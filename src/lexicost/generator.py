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
tuple of each renaming class of the body-only variables becomes a `Rule`
(by `Rule.canonical`, with no second renaming search), so the rules of one
body length come out canonical, unique and in `Rule.sort_key` order.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

from .kb import Atom, Bias, Program, Rule, is_var, kept, variable_name


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


def _images(r: Rule, head: Atom, terms: list[str], index: dict[tuple, int]) -> Iterator[int]:
    """For each substitution mapping r's head onto `head` and each body-only
    variable to one of `terms`, the mask of the ids of r's body in `index`
    (keyed by predicate and arguments), if all are there: r theta-subsumes a
    rule with head `head` and terms `terms` iff one mask lies in its body's."""
    if (r.head.predicate, r.head.arity) != (head.predicate, head.arity):
        return
    theta: dict[str, str] = {}
    for t, u in zip(r.head.args, head.args):
        if theta.setdefault(t, u) != u or t != u and not is_var(t):
            return
    free = sorted({v for a in r.body for v in a.variables()} - theta.keys())
    for names in itertools.product(terms, repeat=len(free)):
        theta.update(zip(free, names))
        ids = {index.get((a.predicate, tuple([theta.get(t, t) for t in a.args]))) for a in r.body}
        if None not in ids:
            yield sum(1 << i for i in ids)


def theta_subsumes(r1: Rule, r2: Rule) -> bool:
    """True iff a substitution maps r1's head to r2's head and its body into r2's."""
    terms = sorted({t for a in (r2.head, *r2.body) for t in a.args})
    images = _images(r1, r2.head, terms, {(a.predicate, a.args): i for i, a in enumerate(r2.body)})
    return next(images, None) is not None


def program_subsumes(p1: Program, p2: Program) -> bool:
    """Every rule of p2 is subsumed by some rule of p1 (so p1 entails p2)."""
    return all(any(theta_subsumes(r1, r2) for r1 in p1.rules) for r2 in p2.rules)


# ---------------------------------------------------------------------------
# Rule and program enumeration
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
                out.append(Rule.canonical(head, tuple(pool[i][0] for i in combo)))
    return out


def _covers(images: tuple[int, ...], lits: int) -> bool:
    """Some image of a subsumer lies inside a rule's literal mask: the
    subsumer theta-subsumes the rule (see `RuleTable`)."""
    for image in images:
        if image & lits == image:
            return True
    return False


class RuleTable:
    """Every rule of one bias, interned once: a rule's id is its index.

    Per rule id it keeps three bitmasks: `lits`, the literal-pool ids of
    the body plus the head predicate's bit shifted above the pool; `heads`,
    the head predicate's bit; `preds`, the body predicates' bits.  It also
    keeps the bias's theta relation.  A subsumer is any rule, numbered on
    first sight, with its images (`_images` onto the table's head and
    variables, plus its head bit); it theta-subsumes rule r iff one lies
    inside `lits[r]`.  Per rule id r the relation keeps the masks of the
    subsumers tested against r and of those that subsume r.
    """

    def __init__(self, bias: Bias):
        pool = _literal_pool(bias)
        self.pool = {(a.predicate, a.args): i for i, (a, _) in enumerate(pool)}
        self.shift = len(pool)
        self.bits = {p: 1 << i for i, p in enumerate(sorted(bias.body_preds | bias.head_preds))}
        self.edb = sum(self.bits[p] for p in bias.body_preds)
        self.names = [variable_name(i) for i in range(bias.max_vars)]
        self.rules: list[Rule] = []
        # ends[s]: the number of rules of size <= s, for each size interned so far
        self.ends = [0, 0]
        # candidates[s]: the candidate list of size s, for each size listed so far
        self.candidates: dict[int, list[tuple[int, ...]]] = {}
        self.lits: list[int] = []
        self.heads: list[int] = []
        self.preds: list[int] = []
        # subsumer ids and each one's images; per rule id the relation's masks
        self.sids: dict[Rule, int] = {}
        self.images: list[tuple[int, ...]] = []
        self.tested: list[int] = []
        self.subsumed: list[int] = []

    def add(self, r: Rule) -> None:
        head = self.bits[r.head.predicate, r.head.arity]
        self.rules.append(r)
        self.heads.append(head)
        self.lits.append(sum((1 << self.pool[a.predicate, a.args] for a in r.body),
                             head << self.shift))
        self.preds.append(sum(self.bits[p] for p in {(a.predicate, a.arity) for a in r.body}))
        self.tested.append(0)
        self.subsumed.append(0)

    def subsumer(self, r: Rule) -> int:
        """The subsumer id of `r`, which need not be a rule of the table."""
        sid = self.sids.setdefault(r, len(self.sids))
        if sid == len(self.images):
            bit = self.bits.get((r.head.predicate, r.head.arity))
            head = Atom(r.head.predicate, tuple(self.names[:r.head.arity]))
            self.images.append(() if bit is None else tuple(
                {m | bit << self.shift for m in _images(r, head, self.names, self.pool)}))
        return sid

    def subsumed_by(self, rule_id: int, sids: int) -> bool:
        """Some subsumer in the mask `sids` theta-subsumes rule `rule_id`."""
        new = sids & ~self.tested[rule_id]
        self.tested[rule_id] |= new
        lits = self.lits[rule_id]
        while new:
            low = new & -new
            new ^= low
            if _covers(self.images[low.bit_length() - 1], lits):
                self.subsumed[rule_id] |= low
        return sids & self.subsumed[rule_id] != 0


def rule_table(bias: Bias, max_size: int) -> RuleTable:
    """The bias's rule table, holding at least its rules of size <= max_size.

    The table is made by the first call and kept on the bias, the way the
    fact store is kept on the task, so every generator over a bias reads the
    same rule ids.  Sizes are interned smallest first and `enumerate_rules`
    meets each size's rules in `Rule.sort_key` order, so ids follow
    `Rule.sort_key` without a sort, and the rules of size <= s are ids
    0 .. ends[s]-1.
    """
    table = kept(bias, "_rule_table", lambda: RuleTable(bias))
    while len(table.ends) <= min(max_size, 1 + bias.max_body):
        for r in enumerate_rules(bias, len(table.ends) - 1):
            table.add(r)
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
    theta-subsumes another; each must have only rules that can fire.  The
    tests read the table's masks and theta relation, a separable union
    before any theta-test.  Since ids follow `Rule.sort_key`, the list is
    in the order of the programs' rule sort keys.  No anchor or size cap
    filters it.  A size is listed once per bias, and the list is kept in
    the rule table for every generator over the bias.
    """
    table = rule_table(bias, size)
    if size not in table.candidates:
        heads, preds = table.heads, table.preds
        slots = bias.max_clauses if bias.enable_recursion else 1
        listed = []
        for ids in _unions([r.size for r in table.rules], 0, size, slots):
            defined = used = 0
            for i in ids:
                defined |= heads[i]
                used |= preds[i]
            if len(ids) > 1 and not defined & used:
                continue
            # each body predicate is a background one or derived within len(ids) passes
            known = table.edb
            for _ in ids:
                for i in ids:
                    if not preds[i] & ~known:
                        known |= heads[i]
            if used & ~known:
                continue
            # a rule subsumes another only if its body predicates are the other's too
            if len(ids) > 1 and any(table.subsumed_by(j, sum(
                    1 << table.subsumer(table.rules[i]) for i in ids
                    if i != j and not preds[i] & ~preds[j])) for j in ids):
                continue
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
    Specialisation anchors are numbered in arrival order, each a mask of
    its rules' ids in the rule table's theta relation, and for each rule id
    the generator keeps a bitset over anchor numbers: bit k is set iff some
    rule of anchor k theta-subsumes that rule.  A program is blocked iff
    some anchor subsumes every one of its rules, i.e. iff the AND of its
    rules' bitsets is non-zero.  Bitsets are extended lazily, when a
    candidate containing the rule reaches the check, from the relation.
    """

    def __init__(self, bias: Bias):
        self.bias = bias
        self._anchors: list[int] = []
        # the size drawn from, and the rest of its list (None until drawn from)
        self.size = 1
        self._listed: Iterator[tuple[int, ...]] | None = None
        # shared with every generator over the bias; extended in place
        self._table = rule_table(bias, 0)
        # per rule id: bitset of subsuming anchors, and anchors tested so far
        self._subsumed_by: list[int] = []
        self._anchors_tested: list[int] = []

    # -- constraints --------------------------------------------------------

    def add_constraint(self, c: Constraint) -> None:
        self._anchors.append(sum(1 << self._table.subsumer(r) for r in c.anchor.rules))

    # -- stream -------------------------------------------------------------

    def next_candidate(self) -> Program | None:
        """The next unblocked candidate of size `size`, or None when that size
        has none left, which moves `size` to the next size.  Programs are
        unique by construction, so none is emitted twice."""
        if self._listed is None:
            self._listed = iter(list_candidates(self.bias, self.size))
            grow = len(self._table.rules) - len(self._subsumed_by)
            self._subsumed_by += [0] * grow
            self._anchors_tested += [0] * grow
        for ids in self._listed:
            if not self._blocked(ids):
                return Program(self._table.rules[i] for i in ids)
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
        bits = self._subsumed_by[rule_id]
        for k in range(self._anchors_tested[rule_id], n_anchors):
            if self._table.subsumed_by(rule_id, self._anchors[k]):
                bits |= 1 << k
        self._subsumed_by[rule_id] = bits
        self._anchors_tested[rule_id] = n_anchors
