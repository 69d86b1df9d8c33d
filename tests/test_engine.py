import gc
import weakref

import pytest

from lexicost import combiner, engine, generator
from lexicost.combiner import FULL, SKIP, CombinePool, optimal_combination
from lexicost.cost import ALL_SPEC_NAMES, NAMED_SPECS, evaluate, parse_cost_spec
from lexicost.engine import (
    LearnOptions,
    PROOF_CAP_EXHAUSTED,
    PROOF_OPTIMAL,
    candidate_walk,
    evaluate_on_test,
    learn,
)
from lexicost.errors import ResourceLimitError, UnknownPredicateError
from lexicost.generator import CandidateGenerator
from lexicost.kb import Task, atom, parse_program, render_program
from conftest import equal_bias, equal_task, make_task
from oracles import exhaustive_best_cost


def opts(name, **kw):
    return LearnOptions(spec=NAMED_SPECS[name], **kw)


@pytest.fixture
def mislabeled_task():
    """One positive and one negative mislabeled: no expressible rule reaches
    fp = 0 with tp > 0."""
    bk = [("p", "x1"), ("p", "x2"), ("p", "x3"), ("p", "y1"),
          ("r", "x4"), ("r", "y2"), ("r", "y3")]
    return make_task(
        bk,
        pos=[("f", f"x{i}") for i in range(1, 5)],
        neg=[("f", f"y{i}") for i in range(1, 4)],
        head_preds={("f", 1)},
        body_preds={("p", 1), ("r", 1)},
        max_vars=1,
        max_body=2,
        max_clauses=2,
    )


class TestToyRuns:
    def test_trains_errorsize(self, trains_task):
        res = learn(trains_task, opts("errorsize"))
        assert res.cost == (0, 3)
        assert render_program(res.best) == "east(A):- closed(B),has_car(A,B)."
        assert res.proof == PROOF_OPTIMAL

    def test_path_recursion(self, path_task_full):
        res = learn(path_task_full, opts("errorsize"))
        assert res.cost == (0, 5)
        assert len(res.best.rules) == 2
        assert res.best.is_recursive

    def test_mislabeled_fpfn_returns_empty(self, mislabeled_task):
        res = learn(mislabeled_task, opts("fpfn"))
        assert res.best.is_empty
        assert res.cost == (0, 4)

    def test_mislabeled_error_beats_fpfn(self, mislabeled_task):
        res_error = learn(mislabeled_task, opts("error"))
        res_fpfn = learn(mislabeled_task, opts("fpfn"))
        fpfn_error = res_fpfn.train_conf.fp + res_fpfn.train_conf.fn
        assert res_error.cost[0] < fpfn_error
        assert res_error.cost == (2,)


ORACLE_TASKS = ["trains_task", "path_task_full", "clone_noise_task",
                "compression_task"]


class TestGlobalOptimality:
    @pytest.mark.parametrize("fixture", ORACLE_TASKS)
    @pytest.mark.parametrize("name", ALL_SPEC_NAMES)
    def test_matches_exhaustive_oracle(self, fixture, name, request):
        task = request.getfixturevalue(fixture)
        res = learn(task, opts(name))
        assert res.proof == PROOF_OPTIMAL
        assert res.cost == exhaustive_best_cost(task, NAMED_SPECS[name])

    @pytest.mark.parametrize("name", ALL_SPEC_NAMES)
    def test_result_invariant(self, trains_task, name):
        res = learn(trains_task, opts(name))
        assert res.cost == evaluate(
            NAMED_SPECS[name], res.train_conf, res.best.size
        )


class TestLoopBehaviour:
    def test_anytime_costs_nonincreasing(self, trains_task, path_task_full):
        for task in (trains_task, path_task_full):
            for name in ALL_SPEC_NAMES:
                res = learn(task, opts(name))
                hist = res.cost_history
                assert all(a > b for a, b in zip(hist, hist[1:]))
                assert hist[-1] == res.cost

    def test_determinism(self, path_task_full):
        r1 = learn(path_task_full, opts("errorsize"))
        r2 = learn(path_task_full, opts("errorsize"))
        assert r1 == r2

    @pytest.mark.parametrize("fixture", ORACLE_TASKS)
    @pytest.mark.parametrize("name", ALL_SPEC_NAMES)
    def test_constraint_and_filter_neutrality(self, fixture, name, request,
                                              monkeypatch):
        """Specialisation pruning, the combiner's dominance test and the
        size bound change no cost: with each patched out, the cost holds.
        With no entry dominating another, the pool keeps and searches every
        entry.  Each switch runs on a fresh task, whose walk is made under it."""
        task = request.getfixturevalue(fixture)
        reference = learn(task, opts(name)).cost
        switches = {
            "pruning": (CandidateGenerator, "add_constraint", lambda self, c: None),
            "filter": (combiner, "_dominates", lambda e1, e2: False),
            "size_bound": (engine, "generator_size_bound", lambda spec, cost: None),
        }
        for off in (["pruning"], ["filter"], ["pruning", "filter"], ["size_bound"]):
            with monkeypatch.context() as m:
                for name_off in off:
                    m.setattr(*switches[name_off])
                assert learn(equal_task(task), opts(name)).cost == reference

    def test_candidate_cap(self, trains_task):
        res = learn(trains_task, opts("errorsize", candidate_cap=2))
        assert res.proof == PROOF_CAP_EXHAUSTED
        assert res.stats.generated <= 2
        assert res.stats.stop == "candidate-cap"

    def test_max_size_restricts_space(self, trains_task):
        res = learn(trains_task, opts("errorsize", max_size=2))
        # the separating rule has size 3, so only worse candidates remain
        assert res.cost > (0, 3)

    @pytest.mark.parametrize("fixture", ORACLE_TASKS)
    def test_max_size_bounds_each_rule_not_the_union(self, fixture, request):
        # the cap bounds each rule the combine may select and each recursive
        # program; a union of rules within it may exceed it
        task = request.getfixturevalue(fixture)
        over = False
        for cap in (2, 3, 4):
            for name in ALL_SPEC_NAMES:
                best = learn(task, opts(name, max_size=cap)).best
                assert all(r.size <= cap for r in best.rules), (cap, name)
                assert not best.is_recursive or best.size <= cap, (cap, name)
                over |= best.size > cap
        assert over == (fixture == "path_task_full")

    def test_empty_promising_set_yields_empty_program(self, clone_noise_task):
        res = learn(clone_noise_task, opts("fpfn"))
        assert res.best.is_empty
        assert res.train_conf.fp == 0

    def test_final_problem_exposed(self, trains_task):
        res = learn(trains_task, opts("errorsize"))
        assert res.final_problem is not None
        assert res.final_problem.n_pos == 2
        assert len(res.final_problem.entries) == res.stats.promising
        assert res.final_problem.max_rules == trains_task.bias.max_clauses

    def test_final_problem_is_the_last_one_solved(self, trains_task, path_task_full,
                                                  monkeypatch):
        # the final problem holds every promising entry in arrival order,
        # solving it from scratch selects what the learner's pool ended on,
        # and the stats count the pool's skips and full re-solves
        real_insert = CombinePool.insert
        for task in (trains_task, path_task_full):
            pools, inserted, cases = set(), [], []

            def record(pool, e):
                pools.add(pool)
                inserted.append(e)
                cases.append(real_insert(pool, e))
                return cases[-1]

            monkeypatch.setattr(CombinePool, "insert", record)
            res = learn(task, opts("errorsize"))
            (pool,) = pools
            assert inserted and res.final_problem.entries == tuple(inserted)
            assert optimal_combination(res.final_problem) == pool.solution
            assert res.stats.combine_skipped == cases.count(SKIP)
            assert res.stats.combine_resolves == cases.count(FULL)


FIXTURE_TASKS = ORACLE_TASKS + ["path_task_split"]


class TestCandidateWalk:
    """Every run on a task reads the task's one walk; each must return what
    a run on a fresh, equal task returns."""

    @pytest.mark.parametrize("fixture", FIXTURE_TASKS)
    @pytest.mark.parametrize("order", ["forward", "reversed"])
    @pytest.mark.parametrize("options", [
        {}, {"max_size": 3}, {"candidate_cap": 5},
        {"max_size": 4, "candidate_cap": 20}, "mixed",
    ], ids=["plain", "max_size", "candidate_cap", "both", "mixed"])
    def test_shared_walk_equals_fresh_tasks(self, fixture, order, options, request):
        task = request.getfixturevalue(fixture)
        if fixture == "path_task_split":
            task = task[0]  # (task, held-out positives, held-out negatives)
        names = ALL_SPEC_NAMES if order == "forward" else ALL_SPEC_NAMES[::-1]
        cycle = [{}, {"max_size": 3}, {"candidate_cap": 5}]
        shared = equal_task(task)
        for k, name in enumerate(names):
            kw = cycle[k % len(cycle)] if options == "mixed" else options
            result = learn(shared, opts(name, **kw))
            assert result == learn(equal_task(task), opts(name, **kw)), name

    def test_each_candidate_is_tested_once(self, path_task_full, monkeypatch):
        tested = []
        real = engine.coverage
        monkeypatch.setattr(engine, "coverage",
                            lambda p, t: tested.append(p) or real(p, t))
        for name in ALL_SPEC_NAMES:
            learn(path_task_full, opts(name))
        programs = [h for h, _cov, _conf in candidate_walk(path_task_full).items]
        assert tested == programs and len(programs) == 27

    def test_no_candidate_above_the_cap_is_tested(self, trains_task, monkeypatch):
        real = engine.coverage

        def checked(p, t):
            assert p.size <= 2
            return real(p, t)

        monkeypatch.setattr(engine, "coverage", checked)
        for name in ALL_SPEC_NAMES:
            learn(trains_task, opts(name, max_size=2))
        walk = candidate_walk(trains_task)
        assert walk.items and all(h.size <= 2 for h, _cov, _conf in walk.items)

    @pytest.mark.parametrize("fixture", FIXTURE_TASKS)
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_no_size_above_the_cap_is_listed(self, fixture, k, request, monkeypatch):
        # each run is on a bias of its own, so it lists every size it reaches
        task = request.getfixturevalue(fixture)
        if fixture == "path_task_split":
            task = task[0]
        listed = []
        real = generator.list_candidates
        monkeypatch.setattr(generator, "list_candidates",
                            lambda b, size: listed.append(size) or real(b, size))
        for name in ALL_SPEC_NAMES:
            listed.clear()
            own = Task(task.bk_facts, task.pos, task.neg, equal_bias(task.bias))
            learn(own, opts(name, max_size=k))
            assert max(listed, default=0) <= k, name

    def test_walk_is_freed_with_its_task(self, trains_task):
        # no reference cycle keeps a finished task's walk alive until the
        # cycle collector runs
        task = equal_task(trains_task)
        learn(task, opts("error"))
        walk = weakref.ref(candidate_walk(task))
        gc.disable()
        try:
            del task
            assert walk() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("name", ["errorsize", "fnfpsize", "fpfnsize", "mdl"])
    def test_nothing_is_drawn_past_an_item_above_the_cap(self, trains_task,
                                                         path_task_full, name,
                                                         monkeypatch):
        # on these tasks the size bound falls below the size of the last
        # item read, so the run reads no further and draws nothing more
        drawn = []
        real = CandidateGenerator.next_candidate

        def draw(g):
            p = real(g)
            if p is not None:
                drawn.append(p)
            return p

        monkeypatch.setattr(CandidateGenerator, "next_candidate", draw)
        for task in (trains_task, path_task_full):
            drawn.clear()
            assert learn(task, opts(name)).stats.generated == len(drawn)

    @pytest.mark.parametrize("order", ["forward", "reversed"])
    def test_failed_test_stays_at_its_index(self, compression_task, order,
                                            monkeypatch):
        # `mdl` reads items 0 .. 3 and the other six read items 0 .. 14
        index = 4
        names = ALL_SPEC_NAMES if order == "forward" else ALL_SPEC_NAMES[::-1]
        fresh = {n: learn(equal_task(compression_task), opts(n))
                 for n in names}
        assert [fresh[n].stats.generated > index for n in ALL_SPEC_NAMES] == \
            [True] * 6 + [False]
        probe = equal_task(compression_task)
        learn(probe, opts("error"))
        target = candidate_walk(probe).items[index][0]
        real = engine.coverage

        def failing(p, t):
            if p == target:
                raise ResourceLimitError("injected")
            return real(p, t)

        with monkeypatch.context() as m:
            m.setattr(engine, "coverage", failing)
            for name in names:
                if fresh[name].stats.generated > index:
                    with pytest.raises(ResourceLimitError):
                        learn(compression_task, opts(name))
                else:
                    assert learn(compression_task, opts(name)) == fresh[name]
        # the faulting program stays untested at its index
        assert candidate_walk(compression_task).items[index:] == [(target, None, None)]
        # and is tested again on the next read
        for name in names:
            assert learn(compression_task, opts(name)) == fresh[name]


class TestZeroCostStop:
    @pytest.mark.parametrize("name, history", [
        ("error", ((10,), (6,), (3,), (0,))),
        ("fnfp", ((10, 0), (6, 0), (3, 0), (0, 0))),
        ("fpfn", ((0, 10), (0, 6), (0, 3), (0, 0))),
    ])
    def test_closure_stops_at_zero(self, path_task_full, name, history):
        # the pruned stream holds 901 candidates; the cost is zero at the 27th
        res = learn(path_task_full, opts(name))
        assert res.stats.generated == 27
        assert res.stats.stop == "zero-cost"
        assert res.proof == PROOF_OPTIMAL
        assert res.cost_history == history

    def test_cap_reached_at_zero_cost_is_optimal(self, path_task_full):
        res = learn(path_task_full, opts("fnfp", candidate_cap=27))
        assert res.proof == PROOF_OPTIMAL
        assert res.stats.stop == "zero-cost"
        assert res.cost == (0, 0)

    def test_empty_program_at_zero_tests_nothing(self, trains_task):
        # the empty program makes no false positive
        res = learn(trains_task, LearnOptions(spec=parse_cost_spec("custom:fp")))
        assert res.best.is_empty
        assert res.cost == (0,)
        assert res.stats.generated == 0
        assert res.stats.stop == "zero-cost"
        assert res.final_problem is None


class TestEvaluateOnTest:
    def test_clean_split(self, path_task_split):
        task, test_pos, test_neg = path_task_split
        res = learn(task, opts("errorsize"))
        conf = evaluate_on_test(res, task, test_pos, test_neg)
        assert conf.fn == 0 and conf.fp == 0

    def test_empty_program_on_test(self, trains_task):
        res = learn(trains_task, opts("errorsize", max_size=2))
        conf = evaluate_on_test(
            res, trains_task, [atom("east", "t1")], [atom("east", "t3")]
        )
        assert conf.tp == 0 and conf.fp == 0

    def test_half_coverage(self, trains_task):
        res = learn(trains_task, opts("errorsize"))
        conf = evaluate_on_test(
            res,
            trains_task,
            [atom("east", "t1"), atom("east", "t3")],
            [atom("east", "t4")],
        )
        assert conf.tp == 1 and conf.fn == 1

    def test_unknown_predicate_rejected(self, trains_task):
        res = learn(trains_task, opts("errorsize"))
        with pytest.raises(UnknownPredicateError):
            evaluate_on_test(res, trains_task, [atom("west", "t1")], [])
