"""Exact minimisation of a lexicographic cost over unions of promising programs.

Selecting a subset of promising (non-recursive, positively-covering) programs
yields a union whose coverage is the bitwise OR of the members' coverages and
whose charged size is the sum of the members' sizes.  `optimal_combination`
finds a subset whose cost vector is lexicographically minimal over all 2^n
subsets (optionally only those within a rule-count budget, keeping the union
inside a bias-bounded space).  It first drops dominated entries, which never
changes the optimal cost, and then makes two depth-first passes over
include/exclude decisions, each an explicit-stack loop pruned by the same
admissible per-component lower bound, so the pool size is limited by time,
not by the interpreter's stack:

1. branch and bound for the optimal cost, most-covering entries first;
2. a walk over the entries in id order that returns the first selection of
   that cost, which is the smallest selected-id set in lexicographic order.

So its selection is the one that `brute_force_combination`, the independent
exhaustive oracle, makes over the non-dominated entries; over all entries the
two may select different optima of equal cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cost import CostSpec, CostVector, evaluate
from .errors import LengthMismatchError, TooLargeError
from .evaluator import Confusion, bits_to_string, confusion_of, string_to_bits
from .kb import Atom, Program, Rule

BRUTE_FORCE_LIMIT = 20


@dataclass(frozen=True)
class PromisingEntry:
    id: int
    program: Program
    pos_bits: int
    neg_bits: int
    size: int


@dataclass(frozen=True)
class CombineProblem:
    entries: tuple[PromisingEntry, ...]
    n_pos: int
    n_neg: int
    spec: CostSpec
    # when set, a hard budget on the summed rule count of the selection, so
    # the union stays inside a bias-bounded hypothesis space
    max_rules: int | None = None

    def __post_init__(self):
        for e in self.entries:
            if e.pos_bits >> self.n_pos or e.neg_bits >> self.n_neg:
                raise LengthMismatchError(
                    f"entry {e.id} has coverage bits beyond n_pos/n_neg"
                )


@dataclass(frozen=True)
class CombineSolution:
    selected: tuple[int, ...]
    cost: CostVector
    conf: Confusion
    total_size: int


def _solution(problem: CombineProblem, ids: tuple[int, ...]) -> CombineSolution:
    by_id = {e.id: e for e in problem.entries}
    pos = neg = size = 0
    for i in ids:
        e = by_id[i]
        pos |= e.pos_bits
        neg |= e.neg_bits
        size += e.size
    conf = confusion_of(pos, neg, problem.n_pos, problem.n_neg)
    return CombineSolution(
        selected=tuple(sorted(ids)),
        cost=evaluate(problem.spec, conf, size),
        conf=conf,
        total_size=size,
    )


def _cost_of(spec: CostSpec, pos: int, neg: int, size: int,
             n_pos: int, n_neg: int) -> CostVector:
    return evaluate(spec, confusion_of(pos, neg, n_pos, n_neg), size)


def _bound(order: list[PromisingEntry], p: CombineProblem):
    """`bound(i, pos, neg, size)`: an admissible lower bound on the cost of
    the partial union (pos, neg, size) extended by any subset of order[i:].

    Adding entries can only raise fp and size, and fn can at best fall to
    the positives that order[i:] still covers.  At i == len(order) the bound
    is the union's exact cost.
    """
    suffix = [0] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        suffix[i] = suffix[i + 1] | order[i].pos_bits
    n_pos = p.n_pos
    weights = [(c.a_fp, c.b_fn, c.c_size) for c in p.spec.components]

    def bound(i: int, pos: int, neg: int, size: int) -> CostVector:
        fp = neg.bit_count()
        fn = n_pos - (pos | suffix[i]).bit_count()
        return tuple([a * fp + b * fn + c * size for a, b, c in weights])

    return bound


def _optimal_cost(order: list[PromisingEntry], p: CombineProblem,
                  budget: float) -> CostVector:
    """Phase 1: the optimal cost, by depth-first branch and bound over
    include/exclude decisions in `order`, trying first the child with the
    smaller bound.  Each stack node carries its bound, computed once when
    the node is pushed; the incumbent prunes it when it is popped."""
    bound = _bound(order, p)
    n = len(order)
    incumbent = bound(n, 0, 0, 0)
    stack = [(bound(0, 0, 0, 0), 0, 0, 0, 0, 0)]
    while stack:
        lb, i, pos, neg, size, rules = stack.pop()
        if lb >= incumbent:
            continue
        if i == n:
            incumbent = lb
            continue
        e = order[i]
        out = (bound(i + 1, pos, neg, size), i + 1, pos, neg, size, rules)
        n_rules = len(e.program.rules)
        if rules + n_rules > budget:
            stack.append(out)
            continue
        pos, neg, size = pos | e.pos_bits, neg | e.neg_bits, size + e.size
        inc = (bound(i + 1, pos, neg, size), i + 1, pos, neg, size,
               rules + n_rules)
        if inc[0] <= out[0]:
            stack += (out, inc)
        else:
            stack += (inc, out)
    return incumbent


def _first_selection(order: list[PromisingEntry], p: CombineProblem,
                     budget: float, opt: CostVector) -> tuple[int, ...]:
    """Phase 2: the lexicographically smallest id tuple of a feasible
    selection of cost `opt` from `order` (sorted by id).

    A selection is checked by the include that creates it.  A depth-first
    walk that takes "include" before "exclude" makes those includes in
    lexicographic order of the selections, so the first hit is the smallest.
    A node whose bound exceeds `opt` is not pushed.
    """
    bound = _bound(order, p)
    n = len(order)
    if bound(n, 0, 0, 0) == opt:
        return ()
    stack = [(0, 0, 0, 0, 0, ())]
    while stack:
        i, pos, neg, size, rules, ids = stack.pop()
        if i == n:
            continue
        if bound(i + 1, pos, neg, size) <= opt:
            stack.append((i + 1, pos, neg, size, rules, ids))
        e = order[i]
        n_rules = len(e.program.rules)
        if rules + n_rules > budget:
            continue
        pos, neg, size = pos | e.pos_bits, neg | e.neg_bits, size + e.size
        ids += (e.id,)
        if bound(n, pos, neg, size) == opt:
            return ids
        if bound(i + 1, pos, neg, size) <= opt:
            stack.append((i + 1, pos, neg, size, rules + n_rules, ids))
    # unreachable: phase 1 found a selection of cost `opt`
    raise AssertionError("optimal cost unreachable during tie-break")


def _dominates(e1: PromisingEntry, e2: PromisingEntry) -> bool:
    """e1 renders e2 unnecessary: covers no fewer positives, no more
    negatives, is no larger in literals or in rules, and is strictly better
    somewhere (id breaks exact ties)."""
    if e2.pos_bits & ~e1.pos_bits:
        return False
    if e1.neg_bits & ~e2.neg_bits:
        return False
    if e1.size > e2.size:
        return False
    if len(e1.program.rules) > len(e2.program.rules):
        return False
    if (e1.pos_bits, e1.neg_bits, e1.size) != (e2.pos_bits, e2.neg_bits, e2.size):
        return True
    return e1.id < e2.id


def _filter_dominated(entries: tuple[PromisingEntry, ...]) -> list[PromisingEntry]:
    return [
        e for e in entries
        if not any(f is not e and _dominates(f, e) for f in entries)
    ]


def optimal_combination(
    p: CombineProblem, *, dominance_filter: bool = True
) -> CombineSolution:
    """Lexicographically minimal-cost subset over all feasible subsets.

    Among cost-equal optima it selects the smallest id set of the entries
    that it searches: the non-dominated ones, or with `dominance_filter=False`
    all of them, which makes the selection `brute_force_combination`'s.
    """
    entries = list(p.entries)
    if dominance_filter:
        entries = _filter_dominated(p.entries)

    budget = float("inf") if p.max_rules is None else p.max_rules
    opt = _optimal_cost(
        sorted(entries, key=lambda e: (-e.pos_bits.bit_count(), e.size, e.id)),
        p, budget,
    )
    ids = _first_selection(sorted(entries, key=lambda e: e.id), p, budget, opt)
    return _solution(p, ids)


def brute_force_combination(p: CombineProblem) -> CombineSolution:
    """Exhaustive oracle over all 2^n subsets; same contract, |entries| <= 20."""
    n = len(p.entries)
    if n > BRUTE_FORCE_LIMIT:
        raise TooLargeError(f"{n} entries exceeds the brute-force limit of "
                            f"{BRUTE_FORCE_LIMIT}")
    entries = sorted(p.entries, key=lambda e: e.id)
    budget = float("inf") if p.max_rules is None else p.max_rules
    best: tuple[CostVector, tuple[int, ...]] | None = None

    def rec(i: int, pos: int, neg: int, size: int, rules: int,
            ids: tuple[int, ...]) -> None:
        nonlocal best
        if i == n:
            cost = _cost_of(p.spec, pos, neg, size, p.n_pos, p.n_neg)
            key = (cost, ids)
            if best is None or key < best:
                best = key
            return
        e = entries[i]
        rec(i + 1, pos, neg, size, rules, ids)
        n_rules = len(e.program.rules)
        if rules + n_rules <= budget:
            rec(i + 1, pos | e.pos_bits, neg | e.neg_bits, size + e.size,
                rules + n_rules, ids + (e.id,))

    rec(0, 0, 0, 0, 0, ())
    assert best is not None
    return _solution(p, best[1])


def dump_problem(p: CombineProblem) -> str:
    """A `max_rules N` line (`-` for no budget), then one entry per line:
    `id size rules pos_bits neg_bits`, with bitstrings.

    A zero-length bitset (e.g. a task with no negatives) is written as `-`.
    """

    def bstr(bits: int, length: int) -> str:
        return bits_to_string(bits, length) if length else "-"

    budget = "-" if p.max_rules is None else p.max_rules
    return "\n".join([f"max_rules {budget}"] + [
        f"{e.id} {e.size} {len(e.program.rules)} {bstr(e.pos_bits, p.n_pos)} "
        f"{bstr(e.neg_bits, p.n_neg)}"
        for e in p.entries
    ])


def parse_problem(text: str, spec: CostSpec) -> CombineProblem:
    """Inverse of dump_problem.  Entry programs are not reconstructed: each
    is a placeholder with the dumped number of (nullary, bodiless) rules."""
    lines = [line.split() for line in text.splitlines() if line.strip()]
    budget = lines[0][1] if lines else "-"
    entries = []
    n_pos = n_neg = 0
    for ident, size, rules, pos_s, neg_s in lines[1:]:
        pos_s = "" if pos_s == "-" else pos_s
        neg_s = "" if neg_s == "-" else neg_s
        n_pos, n_neg = len(pos_s), len(neg_s)
        entries.append(
            PromisingEntry(
                id=int(ident),
                program=Program(Rule(Atom(f"r{k}", ()), ()) for k in range(int(rules))),
                pos_bits=string_to_bits(pos_s),
                neg_bits=string_to_bits(neg_s),
                size=int(size),
            )
        )
    return CombineProblem(tuple(entries), n_pos, n_neg, spec,
                          max_rules=None if budget == "-" else int(budget))
