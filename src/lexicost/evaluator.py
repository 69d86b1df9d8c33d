"""Least-model evaluation and example coverage over an indexed fact store.

Entailment of an example is membership of the ground example atom in the
least Herbrand model of the background facts plus the hypothesis.  Every
rule body is evaluated by one join (`_join`): a backtracking search over the
body in a fixed order, in which each literal probes a hash index keyed by
its already-bound argument positions instead of scanning its relation.

Facts live in a store holding one tuple set per (predicate, arity).  An
index on a set of bound positions is built the first time a join probes
that relation with that binding pattern, and kept.  A task's store is
built on its first coverage call, not while parsing, and serves every later
call on the same task, as does its component index.

Coverage takes one of two paths:

- Factorised, when no body literal uses a predicate that a rule of the
  program defines.  With the head bound to an example, a body splits into
  components: groups of literals linked by variables that the head does not
  bind.  The body has a solution exactly when each component has one, so a
  rule covers the AND of its components' bitsets and the program the OR of
  its rules'.  A component's bitset over an example set is computed once,
  by one join per example that stops at the first solution, and kept in the
  task's component index, one map per example set.  Its key is the head's
  predicate and argument pattern plus the component's literals, with slots
  numbered by first occurrence and constants kept (`_compile`).  The covered
  examples, at most one head atom each, count against `max_atoms`.
- Semi-naive otherwise, as is `least_model` for every program.  The derived
  relations live in a per-call overlay on the store; their indexes are
  extended as atoms arrive.  After the first round a rule fires only through
  a body literal that reads an atom of the previous round, and each round
  plans those delta joins when it runs.  Every derived atom counts against
  `max_atoms`.

A task keeps its store and its component index (one int per distinct
component per example set) for its lifetime; `max_atoms` bounds neither.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple

from .errors import LengthMismatchError, LexicostError, ResourceLimitError
from .kb import Atom, Program, Rule, Task, is_var, kept

DEFAULT_ATOM_CAP = 10_000_000

# a relation's name: (predicate, arity)
_Key = tuple[str, int]


@dataclass(frozen=True)
class Coverage:
    """Bitsets over the positive/negative example lists; bit i = example i."""

    pos_bits: int
    neg_bits: int
    n_pos: int
    n_neg: int


@dataclass(frozen=True)
class Confusion:
    tp: int
    fp: int
    tn: int
    fn: int


def bits_to_string(bits: int, length: int) -> str:
    return "".join("1" if bits >> i & 1 else "0" for i in range(length))


def string_to_bits(s: str) -> int:
    bits = 0
    for i, ch in enumerate(s):
        if ch == "1":
            bits |= 1 << i
    return bits


def _getter(positions: tuple[int, ...]) -> Callable:
    """Reads an index key off a tuple: the values at `positions`.  Index
    builds (on fact tuples) and probes (on environments) use the same
    getter shape, so their keys agree, a single position giving a bare
    value."""
    if not positions:
        return lambda _row: ()
    return itemgetter(*positions)


def _row_getter(slots: tuple[int, ...]) -> Callable:
    """Reads a ground tuple for an atom off an environment."""
    if len(slots) >= 2:
        return itemgetter(*slots)
    return lambda env: tuple([env[s] for s in slots])


class _Relation:
    """A set of ground tuples plus hash indexes on bound-argument positions."""

    __slots__ = ("tuples", "indexes")

    def __init__(self, tuples: Iterable[tuple[str, ...]] = ()):
        self.tuples = set(tuples)
        self.indexes: dict[tuple[int, ...], tuple[Callable, dict]] = {}

    def index(self, positions: tuple[int, ...]) -> dict:
        """The tuples grouped by their values at `positions`; built once."""
        entry = self.indexes.get(positions)
        if entry is None:
            key_of, idx = _getter(positions), {}
            for row in self.tuples:
                idx.setdefault(key_of(row), []).append(row)
            entry = self.indexes[positions] = (key_of, idx)
        return entry[1]

    def add(self, row: tuple[str, ...]) -> bool:
        """Insert a tuple, extending every index built so far; False if
        it was already present."""
        if row in self.tuples:
            return False
        self.tuples.add(row)
        for key_of, idx in self.indexes.values():
            idx.setdefault(key_of(row), []).append(row)
        return True


# A fact store: one relation per (predicate, arity) that has facts; an
# absent relation is empty.  A task's store is shared and only read.
_Store = dict[_Key, _Relation]


def _store_of(facts: Iterable[Atom]) -> _Store:
    store: defaultdict[_Key, _Relation] = defaultdict(_Relation)
    for a in facts:
        store[(a.predicate, a.arity)].tuples.add(a.args)
    return dict(store)


def fact_store(t: Task) -> _Store:
    """The task's fact store, built by the first call and kept on the task."""
    return kept(t, "_fact_store", lambda: _store_of(t.bk_facts))


def with_examples(t: Task, pos: tuple[Atom, ...], neg: tuple[Atom, ...]) -> Task:
    """A task with `t`'s background and bias but other examples, sharing
    `t`'s fact store (built now if `t` has none yet)."""
    out = replace(t, pos=pos, neg=neg)
    kept(out, "_fact_store", lambda: fact_store(t))
    return out


# ---------------------------------------------------------------------------
# Compiled rules and join plans.  Every variable and every constant of a rule
# gets a slot in a flat environment; constant slots are filled in advance, so
# a probe key is read off the environment alone.
# ---------------------------------------------------------------------------


class _CompiledRule(NamedTuple):
    head_key: _Key
    head: tuple[int, ...]
    body: tuple[tuple[_Key, tuple[int, ...]], ...]
    template: tuple[str | None, ...]  # constant per slot; None for a variable
    constant_slots: frozenset[int]


def _compile(head: Atom, body: Iterable[Atom]) -> _CompiledRule:
    """Slots numbered by first occurrence, head first; equal results for
    equal atoms up to a renaming of variables."""
    slots: dict[str, int] = {}
    template: list[str | None] = []

    def slots_of(a: Atom) -> tuple[int, ...]:
        out = []
        for t in a.args:
            # variable and constant names never clash: their first letters differ
            if t not in slots:
                slots[t] = len(template)
                template.append(None if is_var(t) else t)
            out.append(slots[t])
        return tuple(out)

    head_slots = slots_of(head)
    body_slots = tuple(((a.predicate, a.arity), slots_of(a)) for a in body)
    return _CompiledRule((head.predicate, head.arity), head_slots, body_slots,
                         tuple(template),
                         frozenset(s for s, c in enumerate(template) if c is not None))


def _check_range_restricted(rule: Rule) -> None:
    in_body = {t for a in rule.body for t in a.args}
    if any(is_var(t) and t not in in_body for t in rule.head.args):
        raise LexicostError(
            f"rule is not range-restricted (head variable missing from body): {rule}"
        )


def _compile_rule(rule: Rule) -> _CompiledRule:
    _check_range_restricted(rule)
    return _compile(rule.head, rule.body)


def _split(slots: tuple[int, ...], bound: set[int]):
    """Classify a literal's positions against the slots bound before it:
    the bound positions, the (position, slot) pairs that bind a new slot,
    and those that repeat a slot bound earlier in the same literal.  Adds
    the newly bound slots to `bound`."""
    positions = tuple(p for p, s in enumerate(slots) if s in bound)
    binds, repeats = [], []
    for p, s in enumerate(slots):
        if p in positions:
            continue
        if s in bound:
            repeats.append((p, s))
        else:
            binds.append((p, s))
            bound.add(s)
    return positions, tuple(binds), tuple(repeats)


def _plan(body, bound: Iterable[int], relations: _Store,
          delta: tuple[int, _Relation] | None = None) -> list[tuple]:
    """Order the body for a join from the slots bound before it.  A step is
    (index, probe key getter, binds, repeats); see `_join`.

    `delta` is (literal, relation): that literal leads and reads that
    relation, the atoms new in the previous round.  Then at each step: a
    literal with no free argument, else the one with most bound arguments,
    else the one over the smallest relation.
    """
    bound = set(bound)
    remaining = list(range(len(body)))
    steps = []
    while remaining:
        if delta and delta[0] in remaining:
            i = delta[0]
        else:
            def rank(j):
                n_bound = sum(s in bound for s in body[j][1])
                rel = relations.get(body[j][0])
                return (n_bound < len(body[j][1]), -n_bound,
                        0 if rel is None else len(rel.tuples))

            i = min(remaining, key=rank)
        remaining.remove(i)
        key, slots = body[i]
        rel = delta[1] if delta and i == delta[0] else relations.get(key) or _Relation()
        positions, binds, repeats = _split(slots, bound)
        probe = _getter(tuple(slots[p] for p in positions))
        steps.append((rel.index(positions), probe, binds, repeats))
    return steps


def _join(steps, env: list, i: int = 0):
    """Yield True once per extension of `env` satisfying `steps[i:]`.

    A step is (index, probe, binds, repeats): the index rows under the probe
    key read off `env` bind the step's free slots, and `repeats` checks a
    slot that occurs twice in the literal.  Slots bound by a step are only
    read by later steps, so backtracking needs no undo.
    """
    if i == len(steps):
        yield True
        return
    index, probe, binds, repeats = steps[i]
    for row in index.get(probe(env), ()):
        for p, s in binds:
            env[s] = row[p]
        if not repeats or all(row[p] == env[s] for p, s in repeats):
            yield from _join(steps, env, i + 1)


# ---------------------------------------------------------------------------
# Factorised coverage
# ---------------------------------------------------------------------------


def _components(rule: Rule) -> list[_CompiledRule]:
    """The rule's body components, each compiled with the rule's head: the
    body split into groups of literals linked by variables that the head
    does not bind.  With the head bound, the body has a solution exactly
    when every component has one.  A body-less rule is one component."""
    _check_range_restricted(rule)
    head = rule.head.args
    groups: list[tuple[set[str], list[int]]] = []
    for i, a in enumerate(rule.body):
        free = {t for t in a.args if is_var(t) and t not in head}
        linked = [g for g in groups if g[0] & free]
        groups = [g for g in groups if not g[0] & free]
        groups.append((free.union(*(g[0] for g in linked)),
                       sorted([i, *(j for g in linked for j in g[1])])))
    return [_compile(rule.head, [rule.body[j] for j in js])
            for _, js in groups or [(set(), [])]]


def _component_bits(c: _CompiledRule, examples: tuple[Atom, ...], store: _Store) -> int:
    """Bit i set when example i binds to `c`'s head and its body has a
    solution over the store; the search stops at the first solution."""
    bound = set(c.constant_slots)
    constants, binds, repeats = _split(c.head, bound)
    checks = repeats + tuple((p, c.head[p]) for p in constants)
    steps = _plan(c.body, bound, store)
    env = list(c.template)
    out = 0
    for i, a in enumerate(examples):
        args = a.args
        if (a.predicate, len(args)) != c.head_key:
            continue
        for p, s in binds:
            env[s] = args[p]
        if all(args[p] == env[s] for p, s in checks) and any(_join(steps, env)):
            out |= 1 << i
    return out


def _component_index(t: Task, pos: tuple[Atom, ...], neg: tuple[Atom, ...]) -> dict:
    """The task's map from a component to its bits over `pos + neg`, one
    map per example set, made by the first call and kept on the task."""
    maps = kept(t, "_component_index", list)
    for p, n, known in maps:
        if p == pos and n == neg:
            return known
    index: dict[_CompiledRule, int] = {}
    maps.append((pos, neg, index))
    return index


# ---------------------------------------------------------------------------
# Semi-naive least model
# ---------------------------------------------------------------------------


def _fixpoint(rules: list[_CompiledRule], store: _Store, max_atoms: int) -> _Store:
    """The least model, as the store's relations overlaid with copies of the
    derived (head) relations; the store itself is left unchanged.

    Round 0 runs every rule over the initial relations.  Each later round
    runs each rule once per body literal on a relation that grew in the
    previous round, with that literal reading only the new atoms."""
    relations = defaultdict(_Relation, store)
    for key in {r.head_key for r in rules}:
        relations[key] = _Relation(store[key].tuples if key in store else ())
    count = 0
    delta: dict[_Key, _Relation] | None = None
    while delta is None or delta:
        new: dict[_Key, set] = {}
        for r in rules:
            if delta is None:
                plans = [_plan(r.body, r.constant_slots, relations)]
            else:
                plans = [_plan(r.body, r.constant_slots, relations, (i, delta[key]))
                         for i, (key, _slots) in enumerate(r.body) if key in delta]
            env = list(r.template)
            head_of = _row_getter(r.head)
            out = new.setdefault(r.head_key, set())
            for steps in plans:
                for _ in _join(steps, env):
                    out.add(head_of(env))
        delta = {}
        for key, rows in new.items():
            fresh = [row for row in rows if relations[key].add(row)]
            count += len(fresh)
            if count > max_atoms:
                raise ResourceLimitError(
                    f"least model derived more than {max_atoms} atoms"
                )
            if fresh:
                delta[key] = _Relation(fresh)
    return relations


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def least_model(
    p: Program, facts: frozenset[Atom] | set[Atom], *, max_atoms: int = DEFAULT_ATOM_CAP
) -> frozenset[Atom]:
    """The least fixpoint of the program over the facts; a superset of facts."""
    relations = _fixpoint(
        [_compile_rule(r) for r in p.rules], _store_of(facts), max_atoms
    )
    return frozenset(
        Atom(pred, row)
        for (pred, _arity), rel in relations.items()
        for row in rel.tuples
    )


def coverage_of_examples(
    p: Program,
    t: Task,
    pos: tuple[Atom, ...],
    neg: tuple[Atom, ...],
    *,
    max_atoms: int = DEFAULT_ATOM_CAP,
) -> Coverage:
    """Which of the given examples the hypothesis entails over the task's
    background facts."""
    store = fact_store(t)
    examples = pos + neg
    covered = 0
    if p.is_recursive:
        model = _fixpoint([_compile_rule(r) for r in p.rules], store, max_atoms)
        for i, a in enumerate(examples):
            if a.args in model[(a.predicate, a.arity)].tuples:
                covered |= 1 << i
    else:
        index = _component_index(t, pos, neg)
        for r in p.rules:
            rule_bits = -1
            for c in _components(r):
                bits = index.get(c)
                if bits is None:
                    bits = index[c] = _component_bits(c, examples, store)
                rule_bits &= bits
            covered |= rule_bits
        if covered.bit_count() > max_atoms:
            raise ResourceLimitError(f"coverage derived more than {max_atoms} atoms")
    n = len(pos)
    return Coverage(covered & ((1 << n) - 1), covered >> n, n, len(neg))


def coverage(p: Program, t: Task, *, max_atoms: int = DEFAULT_ATOM_CAP) -> Coverage:
    """Which training examples the hypothesis entails over the task's facts."""
    return coverage_of_examples(p, t, t.pos, t.neg, max_atoms=max_atoms)


def confusion(c: Coverage, t: Task) -> Confusion:
    if c.n_pos != len(t.pos) or c.n_neg != len(t.neg):
        raise LengthMismatchError(
            f"coverage is over {c.n_pos}/{c.n_neg} examples, task has "
            f"{len(t.pos)}/{len(t.neg)}"
        )
    return confusion_of(c.pos_bits, c.neg_bits, c.n_pos, c.n_neg)


def confusion_of(cov_pos: int, cov_neg: int, n_pos: int, n_neg: int) -> Confusion:
    tp = cov_pos.bit_count()
    fp = cov_neg.bit_count()
    return Confusion(tp=tp, fp=fp, tn=n_neg - fp, fn=n_pos - tp)
