"""The learning loop: generate, test, combine, constrain, bound, terminate.

Which candidates exist, what they cover and which are pruned depend on the
task alone, so one `CandidateWalk` per task, kept on the `Task` like its
fact store, draws and tests each candidate once for every `learn` call on
the task; a candidate covering no positive prunes its specialisations.  It
draws one program size at a time, so no size above a run's cap is listed.

A `Task` holds, for its lifetime: its fact store and that store's hash
indexes, the walk's items (each drawn program with its coverage and
confusion), and the evaluator's component index, one int per distinct body
component per example set.  All are freed with the task; `max_atoms`
bounds none of them, only the atoms one coverage call derives.

Each candidate is tested standalone and may update the best hypothesis
directly (this is how recursive solutions are found).  Candidates that use
no head predicate in a body and cover at least one positive example join
the promising pool, over which the combine stage selects an exactly optimal
union; each is one rule, since the generator lists only non-separable
multi-rule candidates.  The pool is a `CombinePool`: a new entry that an
older one dominates changes nothing, one that evicts no selected entry is
searched only in the unions that contain it, and only one that evicts a
selected entry makes the learner solve the whole pool again with
`optimal_combination`; `LearnStats` counts the first and last kinds.  The
union is built only when the selection changes.  When the cost function
charges for size, the run's size cap shrinks as the best cost improves; the
run ends where the walk has no item within it, and the end of the stream
within the cap proves global optimality over the bias-defined space.

The loop also stops, with the same proof, as soon as the best cost is all
zeros: every cost component is a sum of non-negative counts, so nothing can
cost less, and since the best is replaced only on a strict improvement, the
candidates left untested could not have changed the result.  Only the work
done (`LearnStats`) and the final combine problem are smaller for it.
`LearnStats.stop` records which end the run reached: exhaustion, a zero cost
or the candidate cap.
"""

from __future__ import annotations

from dataclasses import dataclass

from .combiner import (
    FULL,
    SKIP,
    CombinePool,
    CombineProblem,
    PromisingEntry,
    optimal_combination,
)
from .cost import CostSpec, CostVector, evaluate, generator_size_bound
from .errors import LexicostError
from .evaluator import (
    Confusion,
    Coverage,
    confusion,
    confusion_of,
    coverage,
    coverage_of_examples,
)
from .generator import CandidateGenerator, prune_specializations
from .kb import EMPTY_PROGRAM, Atom, Bias, Program, Rule, Task, kept, validate_example

PROOF_OPTIMAL = "optimal"
PROOF_CAP_EXHAUSTED = "cap-exhausted"


@dataclass
class LearnOptions:
    spec: CostSpec
    max_size: int | None = None
    candidate_cap: int | None = None

    def __post_init__(self):
        for name in ("max_size", "candidate_cap"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise LexicostError(f"{name} must be >= 0, got {value}")


@dataclass
class LearnStats:
    generated: int = 0
    promising: int = 0
    # arrivals that an entry already in the pool dominates, and arrivals that
    # needed the pool solved from scratch (see `CombinePool.insert`)
    combine_skipped: int = 0
    combine_resolves: int = 0
    # why the loop ended: "exhausted" (the stream ran out), "zero-cost" (the
    # best cost is all zeros) or "candidate-cap"
    stop: str = "exhausted"


@dataclass
class LearnResult:
    best: Program
    cost: CostVector
    train_conf: Confusion
    stats: LearnStats
    proof: str
    final_problem: CombineProblem | None = None
    # costs at the start and after each improvement, in loop order
    cost_history: tuple[CostVector, ...] = ()


def _admissible(
    p: Program,
    conf: Confusion,
    spec: CostSpec,
    head_preds: frozenset[tuple[str, int]],
) -> bool:
    """Promising-pool admission.

    The union coverage of selected entries is computed as a bitwise OR, which
    is only exact when no selected rule consumes a predicate another rule can
    derive; requiring that no body literal uses any declared head predicate
    guarantees it for every possible union.  Every generated rule head is a
    head predicate, so this also excludes recursive programs and every
    multi-rule candidate, which is non-separable: each entry is one rule.
    Entries must cover a positive, and when false positives are the leading
    objective they must cover no negative: a union containing such an entry
    could never beat the empty hypothesis.
    """
    if conf.tp == 0:
        return False
    if any((a.predicate, a.arity) in head_preds for r in p.rules for a in r.body):
        return False
    if spec.fp_is_primary and conf.fp > 0:
        return False
    return True


class CandidateWalk:
    """One uncapped `CandidateGenerator` over the task's bias and the items
    `(program, coverage, confusion)` drawn from it so far.  A program is
    drawn as an untested item `(program, None, None)` and tested by the
    first read that admits it; one whose test raises stays untested at its
    index, and the next read tests it again.  The walk holds no reference
    to its task, so a task and its walk are freed as soon as the task goes."""

    def __init__(self, bias: Bias):
        self.items: list[tuple[Program, Coverage | None, Confusion | None]] = []
        self._gen = CandidateGenerator(bias)

    def read(self, t: Task, i: int, max_size: int) -> tuple[Program, Coverage, Confusion] | None:
        """Item i of task t's walk (runs read 0, 1, 2, ... in order), or None
        when it has no item i of size <= `max_size`.  Nothing is drawn above
        `max_size`, which must not exceed the bias's largest program size."""
        items, gen = self.items, self._gen
        while i == len(items) and gen.size <= max_size:
            if (h := gen.next_candidate()) is not None:
                items.append((h, None, None))
        if i == len(items) or items[i][0].size > max_size:
            return None
        h, cov, conf = items[i]
        if cov is None:
            cov = coverage(h, t)
            conf = confusion(cov, t)
            if conf.tp == 0:
                gen.add_constraint(prune_specializations(h))
            items[i] = (h, cov, conf)
        return h, cov, conf


def candidate_walk(t: Task) -> CandidateWalk:
    """The task's walk, made by the first call and kept on the task."""
    return kept(t, "_candidate_walk", lambda: CandidateWalk(t.bias))


def learn(t: Task, o: LearnOptions) -> LearnResult:
    spec = o.spec
    walk = candidate_walk(t)
    bias_cap = t.bias.max_program_size
    cap = bias_cap if o.max_size is None else min(o.max_size, bias_cap)

    stats = LearnStats()
    n_pos, n_neg = len(t.pos), len(t.neg)
    best_prog = EMPTY_PROGRAM
    # the empty program covers no example: `Task` keeps head predicates out
    # of the background
    best_conf = Confusion(tp=0, fp=0, tn=n_neg, fn=n_pos)
    best_cost = evaluate(spec, best_conf, 0)

    pool = CombinePool(n_pos, n_neg, spec, max_rules=t.bias.max_clauses)
    rules: list[Rule] = []  # the rule of each entry, by id
    proof = PROOF_OPTIMAL
    history: list[CostVector] = [best_cost]
    bounded = None  # the best cost that `cap` was last bounded by

    while True:
        if not any(best_cost):
            stats.stop = "zero-cost"
            break
        if o.candidate_cap is not None and stats.generated >= o.candidate_cap:
            stats.stop = "candidate-cap"
            proof = PROOF_CAP_EXHAUSTED
            break
        if (item := walk.read(t, stats.generated, cap)) is None:
            break
        h, cov, conf = item
        stats.generated += 1
        size = h.size

        standalone = evaluate(spec, conf, size)
        if standalone < best_cost:
            best_prog, best_conf, best_cost = h, conf, standalone
            history.append(best_cost)

        if _admissible(h, conf, spec, t.bias.head_preds):
            entry = PromisingEntry(id=len(rules), size=size,
                                   pos_bits=cov.pos_bits, neg_bits=cov.neg_bits)
            (rule,) = h.rules
            rules.append(rule)
            stats.promising += 1
            before = pool.solution
            case = pool.insert(entry)
            if case == SKIP:
                stats.combine_skipped += 1
            elif case == FULL:
                stats.combine_resolves += 1
                pool.solution = optimal_combination(pool.problem())
            sol = pool.solution
            # an unchanged selection cannot beat `best_cost`, which is no
            # larger than its union's cost since it was selected
            if sol is not before and sol.cost < best_cost:
                best_prog = Program(rules[i] for i in sol.selected)
                best_conf, best_cost = sol.conf, sol.cost
                history.append(best_cost)

        if best_cost is not bounded:
            bounded = best_cost
            bound = generator_size_bound(spec, best_cost)
            if bound is not None:
                cap = min(cap, bound)

    return LearnResult(
        best=best_prog,
        cost=best_cost,
        train_conf=best_conf,
        stats=stats,
        proof=proof,
        final_problem=pool.problem() if rules else None,
        cost_history=tuple(history),
    )


def evaluate_on_test(
    r: LearnResult,
    t: Task,
    test_pos: tuple[Atom, ...] | list[Atom],
    test_neg: tuple[Atom, ...] | list[Atom],
) -> Confusion:
    """Coverage of the learned hypothesis over held-out examples, against the
    same background facts."""
    test_pos, test_neg = tuple(test_pos), tuple(test_neg)
    for a in (*test_pos, *test_neg):
        validate_example(a, t.bias)
    cov = coverage_of_examples(r.best, t, test_pos, test_neg)
    return confusion_of(cov.pos_bits, cov.neg_bits, len(test_pos), len(test_neg))
