"""Exact minimisation of a lexicographic cost over unions of promising rules.

Selecting a subset of promising rules (each covers a positive and uses no
head predicate) yields a union whose coverage is the bitwise OR of the
members' coverages and whose size is the sum of the members' sizes.
`optimal_combination` finds a subset whose cost vector is lexicographically
minimal over all 2^n subsets (optionally only those of at most `max_rules`
entries, keeping the union inside a bias-bounded space).  It first drops
dominated entries, which never changes the optimal cost: it adds the
entries in id order to a non-dominated front by the step
`CombinePool.insert` takes (`_admit`).  Then it runs one depth-first branch
and bound over include/exclude decisions in id order, a loop over an
explicit stack, so the pool size is limited by time, not by the
interpreter's stack:

- the key of a selection is `(cost, sorted ids)`, and the incumbent is the
  smallest key found so far, starting from the empty selection;
- a node's bound is admissible per cost component: fp and size can only
  grow, and fn can at best fall to the positives the remaining entries
  still cover; a node whose `(bound, ids)` is no smaller than the incumbent
  is cut, since everything below it extends its ids with larger ids;
- a node that this cheap test keeps is charged, when popped, for R, the
  positives the remaining entries could still add (`_reach_cut`).  When
  the first component is fn alone, a completion that misses some k in R
  loses on it at once, and one that covers R includes for each k an entry
  covering k, so each later component rises by at least the largest, over
  k, of the least rise an entry covering k brings there.  When it is
  fp + fn (+ size), covering a subset S of R costs at least the largest of
  those least rises over S, and each positive of R outside S adds 1 to fn.
  Either rise is a lower bound on every completion, so the cut stays
  exact.  It runs only where the O(1) bound fails to cut.  The fn-first test
  reads suffix tables that a search builds the first time a node asks, so
  a later node with the same negatives and slack rescans nothing;
- the child with the smaller bound is tried first, so good incumbents come
  early and cut most of the tree.

So its selection is the one that an exhaustive search over the non-dominated
entries makes (`tests/oracles.py` holds one, `brute_force_combination`); over
all entries the two may select different optima of equal cost.

`CombinePool` keeps the same optimum for a pool that grows one entry at a
time, each with a larger id than the last, without solving from scratch.
When entry e arrives, either an entry of the non-dominated front dominates
it, and nothing changes; or e joins the front and evicts the entries it
dominates.  If one of those was selected, the pool is solved from scratch.
Otherwise the old optimum is still the best selection without e, so the
same search runs with e forced into every selection and the old optimum's
key K as the incumbent; only a strictly smaller key replaces it.

The forced search skips each selection S that covers all of e's positives.
S lies in the old front within the budget, so key(S) >= K; S ∪ {e} has S's
positives, no lower fp or size and, at equal cost, S's ids followed by the
largest id, so its key exceeds key(S).  Every superset of S covers them
too, so entries whose positives contain e's are left out of the search and
no include that makes S cover them is pushed.
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import itemgetter

from .cost import CostSpec, CostVector, evaluate
from .errors import LengthMismatchError, LexicostError, ParseError
from .evaluator import Confusion, bits_to_string, confusion_of, string_to_bits
from .record import Frozen, init_field


class PromisingEntry(Frozen):
    """A promising rule: the examples it covers and its size in literals."""

    __slots__ = ("id", "pos_bits", "neg_bits", "size")

    def __init__(self, id: int, pos_bits: int, neg_bits: int, size: int):
        init_field(self, "id", id)
        init_field(self, "pos_bits", pos_bits)
        init_field(self, "neg_bits", neg_bits)
        init_field(self, "size", size)


class CombineProblem(Frozen):
    # `max_rules`, when set, is a hard budget on the number of selected
    # entries (rules), so the union stays inside a bias-bounded hypothesis space
    __slots__ = ("entries", "n_pos", "n_neg", "spec", "max_rules")

    def __init__(self, entries: tuple[PromisingEntry, ...], n_pos: int, n_neg: int,
                 spec: CostSpec, max_rules: int | None = None):
        init_field(self, "entries", entries)
        init_field(self, "n_pos", n_pos)
        init_field(self, "n_neg", n_neg)
        init_field(self, "spec", spec)
        init_field(self, "max_rules", max_rules)
        seen: set[int] = set()
        for e in self.entries:
            _check_bits(e, self.n_pos, self.n_neg)
            if e.id in seen:
                raise LexicostError(f"repeated entry id {e.id}")
            seen.add(e.id)


class CombineSolution(Frozen):
    __slots__ = ("selected", "cost", "conf", "total_size")

    def __init__(self, selected: tuple[int, ...], cost: CostVector, conf: Confusion,
                 total_size: int):
        init_field(self, "selected", selected)
        init_field(self, "cost", cost)
        init_field(self, "conf", conf)
        init_field(self, "total_size", total_size)


def _check_bits(e: PromisingEntry, n_pos: int, n_neg: int) -> None:
    if e.pos_bits >> n_pos or e.neg_bits >> n_neg:
        raise LengthMismatchError(f"entry {e.id} has coverage bits beyond n_pos/n_neg")


def _solution(p: CombineProblem, pool: Iterable[PromisingEntry],
              ids: tuple[int, ...]) -> CombineSolution:
    """The selection of the entries of `pool` whose ids are `ids`."""
    pos = neg = size = 0
    for e in pool:
        if e.id in ids:
            pos |= e.pos_bits
            neg |= e.neg_bits
            size += e.size
    conf = confusion_of(pos, neg, p.n_pos, p.n_neg)
    return CombineSolution(
        selected=tuple(sorted(ids)),
        cost=evaluate(p.spec, conf, size),
        conf=conf,
        total_size=size,
    )


def _bound(order: list[PromisingEntry], p: CombineProblem):
    """`bound(i, pos, neg, size)`: an admissible lower bound on the cost of
    the partial union (pos, neg, size) extended by any subset of order[i:];
    returned with `suffix`, where suffix[i] ORs the pos_bits of order[i:].

    Adding entries can only raise fp and size, and fn can at best fall to
    the positives that order[i:] still covers.  At i == len(order) the bound
    is the union's exact cost.
    """
    suffix = [0] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        suffix[i] = suffix[i + 1] | order[i].pos_bits
    n_pos = p.n_pos
    # coefficients are 0 or 1, so a component's value is the term sum at
    # index a + 2b + 4c of the tuple that `bound` builds; an itemgetter of
    # one index returns the item, not a 1-tuple
    picks = [c.a_fp + 2 * c.b_fn + 4 * c.c_size for c in p.spec.components]
    pick = itemgetter(*picks) if len(picks) > 1 else lambda sums, k=picks[0]: (sums[k],)

    def bound(i: int, pos: int, neg: int, size: int) -> CostVector:
        fp = neg.bit_count()
        fn = n_pos - (pos | suffix[i]).bit_count()
        return pick((0, fp, fn, fp + fn, size, fp + size, fn + size, fp + fn + size))

    return bound, suffix


def _reach_cut(order: list[PromisingEntry], suffix: list[int], p: CombineProblem):
    """`cut(i, pos, neg, lb, ids, best)`: True when no completion of the node
    by order[i:] has a key below `best`, charging it for the positives R
    that order[i:] can still add; `lb` is the node's `_bound`.  None when
    the first component does not charge fn, or is fn with nothing after it.

    An entry e weighs `a·|e.neg_bits & ~neg| + c·e.size` in a component with
    fp and size coefficients a and c: what a completion with e adds there at
    least.  The incumbent's slack t in a component serves as a threshold.

    The fn-first test answers from tables, one per key (j, neg, t): the
    later component j, the node's negatives (0 when j has no fp term, as
    the weights then ignore them) and the slack.  For each k from the lowest
    index a node with that key has asked about to the end, a table holds
    the OR of the positives of the entries of order[k:] weighing below t,
    and of those weighing exactly t.  A table is built by one backward pass
    the first time its key is met, and extended backwards when a node at a
    lower index asks; every other node reads it in O(1).  The tables live
    as long as the returned `cut`, i.e. one `_search` call.
    """
    comps = [(c.a_fp, c.c_size) for c in p.spec.components]
    if not p.spec.components[0].b_fn or comps == [(0, 0)]:
        return None
    n = len(order)
    pos_bits = [e.pos_bits for e in order]
    neg_bits = [e.neg_bits for e in order]
    sizes = [e.size for e in order]
    # (j, neg, t) -> (below, upto), indexed by n - k, so that extending a
    # table to a lower k appends
    tables: dict[tuple[int, int, int], tuple[list[int], list[int]]] = {}

    def cut_fn_first(i, pos, neg, lb, ids, best):
        # A completion missing some k in R loses on fn.  One covering all of
        # R includes, for each such k, an entry covering k; so component j
        # rises by at least max_k min_{e∋k} weight_j(e).
        r = suffix[i] & ~pos
        if not r or lb[0] != best[0][0]:
            return False
        for j in range(1, len(comps)):
            t = best[0][j] - lb[j]
            if t < 0:
                return True  # every weight is above t
            a, c = comps[j]
            key = (j, neg if a else 0, t)
            table = tables.get(key)
            if table is None:
                table = tables[key] = ([0], [0])
            below, upto = table
            at = n - i
            if len(below) <= at:
                free = ~neg
                b, u = below[-1], upto[-1]
                for k in range(n - len(below), i - 1, -1):
                    w = a * (neg_bits[k] & free).bit_count() + c * sizes[k]
                    if w < t:
                        b |= pos_bits[k]
                    elif w == t:
                        u |= pos_bits[k]
                    below.append(b)
                    upto.append(u)
            if r & ~(below[at] | upto[at]):
                return True  # some k has every weight above t
            if not r & ~below[at]:
                return False  # every k has a weight below t
        return ids >= best[1]

    def cut_error(i, pos, neg, lb, ids, best):
        # Covering the subset S of R costs at least max_{k∈S} d_k, where d_k
        # is the least weight of an entry covering k, and leaving R∖S costs
        # 1 per positive; so component 0 rises by min_t (t + #{d_k > t}).
        r = suffix[i] & ~pos
        if not r:
            return False
        a, c = comps[0]
        t = best[0][0] - lb[0]
        buckets: dict[int, int] = {}
        free = ~neg
        for k in range(i, n):
            if pos_bits[k] & r:
                w = a * (neg_bits[k] & free).bit_count() + c * sizes[k]
                if w <= t:
                    buckets[w] = buckets.get(w, 0) | pos_bits[k]
        rise, covered = r.bit_count(), 0
        for w in sorted(buckets):
            covered |= buckets[w]
            rise = min(rise, w + (r & ~covered).bit_count())
        if rise != t:
            return rise > t
        return (lb[1:], ids) >= (best[0][1:], best[1])

    return cut_fn_first if comps[0] == (0, 0) else cut_error


def _dominates(e1: PromisingEntry, e2: PromisingEntry) -> bool:
    """e1 renders e2 unnecessary: covers no fewer positives, no more
    negatives, is no larger, and is strictly better somewhere (id breaks
    exact ties)."""
    if e2.pos_bits & ~e1.pos_bits:
        return False
    if e1.neg_bits & ~e2.neg_bits:
        return False
    if e1.size > e2.size:
        return False
    if (e1.pos_bits, e1.neg_bits, e1.size) != (e2.pos_bits, e2.neg_bits, e2.size):
        return True
    return e1.id < e2.id


def _admit(front: list[PromisingEntry], e: PromisingEntry) -> set[int] | None:
    """Add `e`, whose id exceeds all of `front`'s, to the non-dominated
    `front` in id order.  None when an entry of `front` dominates `e` (then
    `front` stays as it is: domination is transitive, so `e` dominates none
    of it); else `e` joins, and the ids of the entries it evicts are returned."""
    evicted: set[int] = set()
    for f in front:
        if _dominates(f, e):
            return None
        if _dominates(e, f):
            evicted.add(f.id)
    if evicted:
        front[:] = [f for f in front if f.id not in evicted]
    front.append(e)
    return evicted


_Key = tuple[CostVector, tuple[int, ...]]


def _search(p: CombineProblem, order: list[PromisingEntry],
            forced: PromisingEntry | None = None, best: _Key | None = None) -> _Key:
    """The smallest of `best` and the keys `(cost, sorted ids)` of the
    feasible selections of entries of `order` (in id order), each with
    `forced` added when given; `forced`'s id must exceed all of `order`'s.

    Each selection is scored by the include that creates it; the child with
    the smaller bound is pushed last.  A node is cut when `(bound, ids)` is
    no smaller than the incumbent: its ids, `forced` left out, are a prefix
    of the ids of every selection below it.  A node that survives that test
    gets `_reach_cut`'s dearer one when it is popped.

    With `forced` given, `best` must be no larger than the key of any
    feasible selection of `order` alone; then no selection that covers all
    of `forced`'s positives is searched (see the module docstring).  A node
    carries `left`, the positives of `forced` that its selection leaves
    uncovered.
    """
    # how many entries of `order` a selection may take
    room = float("inf") if p.max_rules is None else p.max_rules
    if forced is None:
        pos = neg = size = 0
        tail: tuple[int, ...] = ()
        left = -1  # no forced entry: no include is ruled out
    else:
        pos, neg, size = forced.pos_bits, forced.neg_bits, forced.size
        tail = (forced.id,)
        left = forced.pos_bits
        room -= 1
        if room < 0 or not left:
            return best
        order = [e for e in order if left & ~e.pos_bits]
    bound, suffix = _bound(order, p)
    cut = _reach_cut(order, suffix, p)
    n = len(order)
    key = (bound(n, pos, neg, size), tail)
    best = key if best is None else min(best, key)
    stack = [(bound(0, pos, neg, size), (), 0, pos, neg, size, left)]
    while stack:
        lb, ids, i, pos, neg, size, left = stack.pop()
        if (lb, ids) >= best or i == n or (
                cut is not None and cut(i, pos, neg, lb, ids, best)):
            continue
        e = order[i]
        out = (bound(i + 1, pos, neg, size), ids, i + 1, pos, neg, size, left)
        if len(ids) >= room or not left & ~e.pos_bits:
            stack.append(out)
            continue
        pos, neg, size = pos | e.pos_bits, neg | e.neg_bits, size + e.size
        ids += (e.id,)
        inc = (bound(i + 1, pos, neg, size), ids, i + 1, pos, neg, size,
               left & ~e.pos_bits)
        best = min(best, (bound(n, pos, neg, size), ids + tail))
        if inc[0] <= out[0]:
            stack += (out, inc)
        else:
            stack += (inc, out)
    return best


def optimal_combination(p: CombineProblem) -> CombineSolution:
    """The feasible selection of non-dominated entries with the smallest key
    `(cost, sorted ids)`: a lexicographically minimal cost, ties broken by
    the smallest id set."""
    front: list[PromisingEntry] = []
    for e in sorted(p.entries, key=lambda e: e.id):
        _admit(front, e)
    return _solution(p, front, _search(p, front)[1])


SKIP, FORCED, FULL = "skip", "forced", "full"


class CombinePool:
    """A combine pool that grows one entry at a time, in increasing id order,
    with its non-dominated front and the `optimal_combination` of the pool
    so far, kept up to date by `insert`."""

    def __init__(self, n_pos: int, n_neg: int, spec: CostSpec,
                 max_rules: int | None = None):
        # the pool's example counts, spec and budget; its entries are below
        self._p = CombineProblem((), n_pos, n_neg, spec, max_rules)
        self.entries: list[PromisingEntry] = []
        self.front: list[PromisingEntry] = []  # the non-dominated entries
        self.solution = _solution(self._p, (), ())

    def problem(self) -> CombineProblem:
        p = self._p
        return CombineProblem(tuple(self.entries), p.n_pos, p.n_neg, p.spec, p.max_rules)

    def insert(self, e: PromisingEntry) -> str:
        """Add `e` and say which case it was:

        - `SKIP`: an entry of the front dominates `e`; since domination is
          transitive, nothing else changes;
        - `FORCED`: `e` evicted no selected entry from the front, and
          `solution` is now the better of the old one and the best selection
          that contains `e`;
        - `FULL`: `e` evicted a selected entry; the caller replaces
          `solution` with `optimal_combination(self.problem())`, so that
          every from-scratch solve is a call of that one public function.
        """
        if self.entries and e.id <= self.entries[-1].id:
            raise ValueError(f"entry {e.id} arrives after entry {self.entries[-1].id}")
        _check_bits(e, self._p.n_pos, self._p.n_neg)
        self.entries.append(e)
        evicted = _admit(self.front, e)
        if evicted is None:
            return SKIP
        if not evicted.isdisjoint(self.solution.selected):
            return FULL
        old = (self.solution.cost, self.solution.selected)
        key = _search(self._p, self.front[:-1], e, old)
        if key < old:
            self.solution = _solution(self._p, self.front, key[1])
        return FORCED


def dump_problem(p: CombineProblem) -> str:
    """A `max_rules N` line (`-` for no budget), then one entry per line:
    `id size pos_bits neg_bits`, with bitstrings.

    A zero-length bitset (e.g. a task with no negatives) is written as `-`.
    """

    def bstr(bits: int, length: int) -> str:
        return bits_to_string(bits, length) if length else "-"

    budget = "-" if p.max_rules is None else p.max_rules
    return "\n".join([f"max_rules {budget}"] + [
        f"{e.id} {e.size} {bstr(e.pos_bits, p.n_pos)} {bstr(e.neg_bits, p.n_neg)}"
        for e in p.entries
    ])


def parse_problem(text: str, spec: CostSpec) -> CombineProblem:
    """Inverse of dump_problem; an empty text is an empty problem.

    A malformed dump raises `ParseError` naming its first bad line: a first
    line that is not the `max_rules` header, an entry line without four
    fields or with a count that is not a natural number, a repeated id, a
    coverage field that is neither `-` nor a bitstring, or bitstrings whose
    lengths differ from the first entry's.
    """
    lines = [(k, line.split()) for k, line in enumerate(text.splitlines(), 1)
             if line.strip()]
    if not lines:
        return CombineProblem((), 0, 0, spec)
    (k, header), *rows = lines
    if len(header) != 2 or header[0] != "max_rules" or not (
            header[1] == "-" or header[1].isdecimal()):
        raise ParseError("expected a `max_rules N` or `max_rules -` header", k, 1)
    entries: list[PromisingEntry] = []
    lengths = (0, 0)
    for k, fields in rows:
        if len(fields) != 4 or not all(f.isdecimal() for f in fields[:2]):
            raise ParseError("expected `id size pos neg`", k, 1)
        ident, size = map(int, fields[:2])
        pos_s, neg_s = ("" if b == "-" else b for b in fields[2:])
        if any(e.id == ident for e in entries):
            raise ParseError(f"repeated entry id {ident}", k, 1)
        if pos_s.strip("01") or neg_s.strip("01"):
            raise ParseError("coverage must be a bitstring of 0s and 1s, or -", k, 1)
        if not entries:
            lengths = (len(pos_s), len(neg_s))
        elif (len(pos_s), len(neg_s)) != lengths:
            raise ParseError(f"bitstring lengths {len(pos_s)}/{len(neg_s)} differ "
                             f"from the first entry's {lengths[0]}/{lengths[1]}", k, 1)
        entries.append(PromisingEntry(id=ident, pos_bits=string_to_bits(pos_s),
                                      neg_bits=string_to_bits(neg_s), size=size))
    return CombineProblem(tuple(entries), *lengths, spec,
                          max_rules=None if header[1] == "-" else int(header[1]))
