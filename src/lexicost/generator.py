"""Candidate-program enumeration within a bias, with constraint pruning.

The generator yields every bias-respecting, non-redundant candidate exactly
once, in nondecreasing total size, breaking ties within a size class by the
sort keys of the programs' rules.  Hypothesis rules draw body predicates from
the bias's body predicates (plus head predicates when recursion is enabled),
use only variables, have distinct canonical head variables, and must be safe
(head variables occur in the body) and connected.  Multi-rule candidates are
produced only when recursion is enabled, and only non-separable ones
(`kb.non_separable`): some rule's body uses a predicate that a rule of the
program defines.  A separable union covers what its rules cover, each of
them a smaller candidate of its own, so the combine stage builds it.

Rules are enumerated over indices into the literal pool, sorted by
`Atom.sort_key`: a body is an ascending index tuple, and only the least
tuple of each renaming class of the body-only variables becomes a `Rule`,
so the rules of one body length come out canonical, unique and in
`Rule.sort_key` order.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

from .kb import Atom, Bias, Program, Rule, is_var, kept, non_separable, variable_name


@dataclass(frozen=True)
class Constraint:
    """Prune every specialisation of `anchor`: each program that it subsumes
    (see `program_subsumes`)."""

    anchor: Program


def prune_specializations(anchor: Program) -> Constraint:
    return Constraint(anchor)


# ---------------------------------------------------------------------------
# Theta-subsumption
# ---------------------------------------------------------------------------


def _bind_atom(a1: Atom, a2: Atom, theta: dict[str, str]) -> bool:
    """Extend theta so that a1·theta == a2; mutates theta, no undo."""
    for t1, t2 in zip(a1.args, a2.args):
        if is_var(t1):
            bound = theta.get(t1)
            if bound is None:
                theta[t1] = t2
            elif bound != t2:
                return False
        elif t1 != t2:
            return False
    return True


def _cover_body(lits: tuple[Atom, ...], candidates: tuple[Atom, ...],
                theta: dict[str, str]) -> bool:
    if not lits:
        return True
    first, rest = lits[0], lits[1:]
    for cand in candidates:
        if cand.predicate == first.predicate and cand.arity == first.arity:
            attempt = dict(theta)
            if _bind_atom(first, cand, attempt) and _cover_body(rest, candidates, attempt):
                return True
    return False


def theta_subsumes(r1: Rule, r2: Rule) -> bool:
    """True iff a substitution maps r1's head to r2's head and its body into r2's."""
    if (r1.head.predicate, r1.head.arity) != (r2.head.predicate, r2.head.arity):
        return False
    theta: dict[str, str] = {}
    if not _bind_atom(r1.head, r2.head, theta):
        return False
    return _cover_body(r1.body, r2.body, theta)


def program_subsumes(p1: Program, p2: Program) -> bool:
    """Every rule of p2 is subsumed by some rule of p1 (so p1 entails p2)."""
    return all(any(theta_subsumes(r1, r2) for r1 in p1.rules) for r2 in p2.rules)


# ---------------------------------------------------------------------------
# Redundancy
# ---------------------------------------------------------------------------


def _connected(head_vars, body_vars) -> bool:
    """Every body literal reaches the head through a chain of shared
    variables; the head's and each literal's variables are bitmasks."""
    connected = head_vars
    pending = list(body_vars)
    progress = True
    while progress and pending:
        progress = False
        still = []
        for avars in pending:
            if avars & connected:
                connected = connected | avars
                progress = True
            else:
                still.append(avars)
        pending = still
    return not pending


def _one_subsumes_another(rules: Sequence[Rule]) -> bool:
    """Some rule theta-subsumes another, which the union therefore does not need."""
    return any(theta_subsumes(r1, r2) for r1, r2 in itertools.permutations(rules, 2))


def _all_rules_can_fire(rules: Sequence[Rule], edb_preds: frozenset[tuple[str, int]]) -> bool:
    """Reject programs containing a rule that can never fire.

    A body predicate is available if it is a background relation or derivable
    by this program; derivability is the fixpoint of "some rule for the
    predicate has an all-available body".  A recursive program without a base
    rule fails this check, as does a rule consuming an underivable invented
    head predicate.  Head predicates never hold background facts (`Task`
    rejects such tasks), so a head predicate is available only if derivable.
    """
    derivable: set[tuple[str, int]] = set()
    changed = True
    while changed:
        changed = False
        for r in rules:
            hkey = (r.head.predicate, r.head.arity)
            if hkey in derivable:
                continue
            if all(
                (a.predicate, a.arity) in edb_preds or (a.predicate, a.arity) in derivable
                for a in r.body
            ):
                derivable.add(hkey)
                changed = True
    return all(
        (a.predicate, a.arity) in edb_preds or (a.predicate, a.arity) in derivable
        for r in rules
        for a in r.body
    )


# ---------------------------------------------------------------------------
# Rule and program enumeration
# ---------------------------------------------------------------------------


def _literal_pool(bias: Bias) -> list[tuple[Atom, tuple[int, ...]]]:
    """All body literals over the allowed predicates, paired with var
    indices, in `Atom.sort_key` order."""
    preds = set(bias.body_preds)
    if bias.enable_recursion:
        preds |= set(bias.head_preds)
    pool = []
    for pred, arity in preds:
        for pattern in itertools.product(range(bias.max_vars), repeat=arity):
            pool.append((Atom(pred, tuple(variable_name(i) for i in pattern)), pattern))
    return sorted(pool, key=lambda lit: lit[0].sort_key())


def _renamings(pool, index, lo: int, hi: int) -> list[list[int]]:
    """For each renaming of variables lo .. hi-1 but the identity, the map
    from pool index to pool index that it induces."""
    maps = []
    for perm in itertools.islice(itertools.permutations(range(lo, hi)), 1, None):
        new = dict(zip(range(lo, hi), perm))
        maps.append([index[a.predicate, tuple(new.get(v, v) for v in pattern)]
                     for a, pattern in pool])
    return maps


def enumerate_rules(bias: Bias, body_len: int) -> list[Rule]:
    """All canonical, safe, connected rules with exactly body_len body
    literals, in `Rule.sort_key` order.

    A body is an ascending tuple of indices into the literal pool.  Its
    variables must form a contiguous prefix, and of the bodies that a
    renaming of its body-only variables maps it to, it must be the least:
    so each rule is met once, as its canonical form, before any `Rule` is
    built.
    """
    pool = _literal_pool(bias)
    index = {(a.predicate, pattern): i for i, (a, pattern) in enumerate(pool)}
    masks = [sum(1 << v for v in set(pattern)) for _, pattern in pool]
    out = []
    for hp, ha in sorted(bias.head_preds):
        if ha > bias.max_vars:
            continue
        head = Atom(hp, tuple(variable_name(i) for i in range(ha)))
        head_id = index.get((hp, tuple(range(ha))))
        head_mask = (1 << ha) - 1
        renamings: dict[int, list[list[int]]] = {}
        for combo in itertools.combinations(range(len(pool)), body_len):
            body_mask = 0
            for i in combo:
                body_mask |= masks[i]
            used = body_mask | head_mask
            # variable indices must form a contiguous prefix (anything else is
            # a renaming of a combination we also enumerate), the body must
            # hold every head variable, and not the head itself
            if used & (used + 1) or body_mask & head_mask != head_mask or head_id in combo:
                continue
            n_used = used.bit_length()
            if n_used not in renamings:
                renamings[n_used] = _renamings(pool, index, ha, n_used)
            if any(tuple(sorted(m[i] for i in combo)) < combo for m in renamings[n_used]):
                continue
            if _connected(head_mask, [masks[i] for i in combo]):
                out.append(Rule(head, [pool[i][0] for i in combo]))
    return out


@dataclass
class RuleTable:
    """Every rule of one bias, interned once: a rule's id is its index."""

    rules: list[Rule] = field(default_factory=list)
    # ends[s]: the number of rules of size <= s, for each size interned so far
    ends: list[int] = field(default_factory=lambda: [0, 0])
    # candidates[s]: the candidate list of size s, for each size listed so far
    candidates: dict[int, list[tuple[int, ...]]] = field(default_factory=dict)


def rule_table(bias: Bias, max_size: int) -> RuleTable:
    """The bias's rule table, holding at least its rules of size <= max_size.

    The table is made by the first call and kept on the bias, the way the
    fact store is kept on the task, so every generator over a bias reads the
    same rule ids.  Sizes are interned smallest first and `enumerate_rules`
    meets each size's rules in `Rule.sort_key` order, so ids follow
    `Rule.sort_key` without a sort, and the rules of size <= s are ids
    0 .. ends[s]-1.
    """
    table = kept(bias, "_rule_table", RuleTable)
    while len(table.ends) <= min(max_size, 1 + bias.max_body):
        table.rules.extend(enumerate_rules(bias, len(table.ends) - 1))
        table.ends.append(len(table.rules))
    return table


def _unions(sizes: list[int], start: int, total: int, slots: int) -> Iterator[tuple[int, ...]]:
    """Ascending tuples of 1 .. slots rule ids from `start` on whose sizes sum
    to `total`, in ascending tuple order; `sizes` ascend and are all >= 2."""
    for j in range(start, len(sizes)):
        left = total - sizes[j]
        if left < 0:
            return
        if left == 0:
            yield (j,)
        elif left >= 2 and slots > 1:
            for rest in _unions(sizes, j + 1, left, slots - 1):
                yield (j, *rest)


def list_candidates(bias: Bias, size: int) -> list[tuple[int, ...]]:
    """Every candidate program of total size `size`, as sorted rule-id tuples.

    The candidates are the rules of that size and, under recursion, the
    non-separable unions of up to `max_clauses` rules in which no rule
    theta-subsumes another; each must have only rules that can fire.  A
    separable union is dropped before any theta-test.  Since ids follow
    `Rule.sort_key`, the list is in the order of the programs' rule sort
    keys.  No anchor or size cap filters it.  A size is listed once per
    bias, and the list is kept in the rule table for every generator over
    the bias.
    """
    table = rule_table(bias, size)
    if size not in table.candidates:
        rules = table.rules
        slots = bias.max_clauses if bias.enable_recursion else 1
        listed = []
        for ids in _unions([r.size for r in rules], 0, size, slots):
            chosen = [rules[i] for i in ids]
            if len(ids) > 1 and not non_separable(chosen):
                continue
            if _all_rules_can_fire(chosen, bias.body_preds) and not _one_subsumes_another(chosen):
                listed.append(ids)
        table.candidates[size] = listed
    return table.candidates[size]


class CandidateGenerator:
    """Stateful filter over the bias's candidate lists; single-owner (the
    engine keeps one per task, in its `CandidateWalk`).

    The generator steps one size at a time: `next_candidate` returns None
    where the list of the current `size` runs out and then moves to the next
    size, so no size is listed before its owner draws from it.  Iterating
    the generator yields the whole stream, up to the bias's largest program.
    A `Program` is built only for a candidate that is emitted.
    Specialisation anchors are numbered in arrival order, and for each rule
    id the generator keeps a bitset over anchor numbers: bit k is set iff
    some rule of anchor k theta-subsumes that rule.  A program is blocked
    iff some anchor subsumes every one of its rules, i.e. iff the AND of its
    rules' bitsets is non-zero.  Bitsets are extended lazily, when a
    candidate containing the rule reaches the check, so each (anchor, rule)
    pair is tested at most once.
    """

    def __init__(self, bias: Bias):
        self.bias = bias
        self._anchors: list[Program] = []
        # the size drawn from, and the rest of its list (None until drawn from)
        self.size = 1
        self._listed: Iterator[tuple[int, ...]] | None = None
        # shared with every generator over the bias; extended in place
        self._rules = rule_table(bias, 0).rules
        # per rule id: bitset of subsuming anchors, and anchors tested so far
        self._subsumed_by: list[int] = []
        self._anchors_tested: list[int] = []

    # -- constraints --------------------------------------------------------

    def add_constraint(self, c: Constraint) -> None:
        self._anchors.append(c.anchor)

    # -- stream -------------------------------------------------------------

    def next_candidate(self) -> Program | None:
        """The next unblocked candidate of size `size`, or None when that size
        has none left, which moves `size` to the next size.  Programs are
        unique by construction, so none is emitted twice."""
        if self._listed is None:
            self._listed = iter(list_candidates(self.bias, self.size))
            grow = len(self._rules) - len(self._subsumed_by)
            self._subsumed_by += [0] * grow
            self._anchors_tested += [0] * grow
        for ids in self._listed:
            if not self._blocked(ids):
                return Program(self._rules[i] for i in ids)
        self.size += 1
        self._listed = None
        return None

    def __iter__(self):
        while self.size <= self.bias.max_program_size:
            if (p := self.next_candidate()) is not None:
                yield p

    def _blocked(self, ids: tuple[int, ...]) -> bool:
        n_anchors = len(self._anchors)
        if not n_anchors:
            return False
        live = -1
        for i in ids:
            if self._anchors_tested[i] < n_anchors:
                self._extend_bitset(i, n_anchors)
            live &= self._subsumed_by[i]
            if not live:
                return False
        return True

    def _extend_bitset(self, rule_id: int, n_anchors: int) -> None:
        rule = self._rules[rule_id]
        bits = self._subsumed_by[rule_id]
        for k in range(self._anchors_tested[rule_id], n_anchors):
            if any(theta_subsumes(a, rule) for a in self._anchors[k].rules):
                bits |= 1 << k
        self._subsumed_by[rule_id] = bits
        self._anchors_tested[rule_id] = n_anchors
