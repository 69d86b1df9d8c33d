"""End-to-end acceptance suite.

Each test covers one exit criterion at its stated tolerance and prints a
single PASS line on success (run with -s to see them); a pytest failure is
the FAIL line.
"""

import math
import random
import time

import pytest

from lexicost.analytics import (
    MetricReport,
    aggregate_domain,
    metrics,
    pearson,
    rank_table,
    wilcoxon_signed_rank,
)
from lexicost.combiner import (
    CombineProblem,
    PromisingEntry,
    optimal_combination,
)
from lexicost.cost import ALL_SPEC_NAMES, NAMED_SPECS
from lexicost.engine import LearnOptions, evaluate_on_test, learn
from lexicost.evaluator import coverage, least_model
from lexicost.kb import Program, atom
from conftest import make_task
from oracles import (
    brute_force_combination,
    brute_wilcoxon_p,
    exhaustive_best_costs,
    naive_least_model,
    random_facts,
    random_program,
)


def _ok(n: int, name: str, started: float) -> None:
    print(f"\nACCEPTANCE {n} ({name}): PASS in {time.perf_counter() - started:.1f}s")


# ---------------------------------------------------------------------------
# 1. combine-stage exactness
# ---------------------------------------------------------------------------


def test_criterion_1_combine_exactness():
    started = time.perf_counter()
    rng = random.Random(20240601)
    specs = [NAMED_SPECS[name] for name in ALL_SPEC_NAMES]
    problems = 0
    for _ in range(200):
        n = rng.randint(0, 12)
        n_pos = rng.randint(1, 30)
        n_neg = rng.randint(0, 30)
        entries = tuple(
            PromisingEntry(
                id=i,
                pos_bits=rng.getrandbits(n_pos),
                neg_bits=rng.getrandbits(n_neg) if n_neg else 0,
                size=rng.randint(2, 9),
            )
            for i in range(n)
        )
        problems += 1
        for spec in specs:
            problem = CombineProblem(entries, n_pos, n_neg, spec)
            fast = optimal_combination(problem)
            slow = brute_force_combination(problem)
            assert fast.cost == slow.cost, (spec.name, fast.cost, slow.cost)
    assert problems >= 200
    _ok(1, "combine exactness vs brute force", started)


# ---------------------------------------------------------------------------
# 2. engine global optimality on exhaustively enumerable spaces
# ---------------------------------------------------------------------------


def _random_oracle_task(rng: random.Random, shape: int):
    constants = [f"c{i}" for i in range(5)]
    if shape == 0:
        head, body = ("f", 1), [("g", 1), ("h", 1), ("e", 2)]
        bias_kw = dict(max_vars=2, max_body=2, max_clauses=2)
    elif shape == 1:
        head, body = ("f", 1), [("p", 1), ("q", 1), ("r", 1)]
        bias_kw = dict(max_vars=1, max_body=3, max_clauses=2)
    elif shape == 2:
        head, body = ("f", 2), [("e", 2), ("g", 1)]
        bias_kw = dict(max_vars=3, max_body=2, max_clauses=1)
    elif shape == 3:
        head, body = ("f", 1), [("g", 1), ("h", 1), ("e", 2)]
        bias_kw = dict(max_vars=3, max_body=2, max_clauses=2)
    else:
        head, body = ("f", 1), [("g", 1), ("e", 2)]
        bias_kw = dict(max_vars=3, max_body=2, max_clauses=2,
                       enable_recursion=True)
    facts = random_facts(rng, body, constants, rng.randint(4, 14))
    hp, ha = head
    candidates = [
        tuple(rng.sample(constants, ha)) for _ in range(rng.randint(4, 6))
    ]
    candidates = sorted(set(candidates))
    labels = [rng.random() < 0.5 for _ in candidates]
    if not any(labels):
        labels[0] = True
    pos = [(hp, *args) for args, lab in zip(candidates, labels) if lab]
    neg = [(hp, *args) for args, lab in zip(candidates, labels) if not lab]
    return make_task(
        bk=[(a.predicate, *a.args) for a in facts],
        pos=pos,
        neg=neg,
        head_preds={head},
        body_preds=set(body),
        **bias_kw,
    )


def _oracle_task_family():
    rng = random.Random(77001)
    tasks = []
    for i in range(18):
        tasks.append((f"random{i}", _random_oracle_task(rng, i % 5)))
    # handcrafted shapes exercise separability, recursion and compression
    trains = make_task(
        bk=[("has_car", "t1", "c1"), ("has_car", "t2", "c2"),
            ("has_car", "t3", "c3"), ("has_car", "t4", "c4"),
            ("closed", "c1"), ("closed", "c2"), ("long", "c3"),
            ("long", "c4"), ("long", "c1")],
        pos=[("east", "t1"), ("east", "t2")],
        neg=[("east", "t3"), ("east", "t4")],
        head_preds={("east", 1)},
        body_preds={("has_car", 2), ("closed", 1), ("long", 1)},
        max_vars=2, max_body=2, max_clauses=1,
    )
    tasks.append(("trains", trains))
    # recursive reachability: f(X) holds when X can reach a goal node
    reach = make_task(
        bk=[("e", "n1", "n2"), ("e", "n2", "n3"), ("e", "n3", "n4"),
            ("e", "n4", "n5"), ("g", "n5"),
            ("e", "m1", "m2"), ("e", "m2", "m3")],
        pos=[("f", f"n{i}") for i in range(1, 6)],
        neg=[("f", f"m{i}") for i in range(1, 4)],
        head_preds={("f", 1)},
        body_preds={("e", 2), ("g", 1)},
        max_vars=2, max_body=2, max_clauses=2, enable_recursion=True,
    )
    tasks.append(("reach", reach))
    noisy = make_task(
        bk=[("p", "x1"), ("p", "x2"), ("p", "x3"), ("p", "y1"),
            ("r", "x4"), ("r", "y2"), ("r", "y3")],
        pos=[("f", f"x{i}") for i in range(1, 5)],
        neg=[("f", f"y{i}") for i in range(1, 4)],
        head_preds={("f", 1)},
        body_preds={("p", 1), ("r", 1)},
        max_vars=1, max_body=2, max_clauses=2,
    )
    tasks.append(("mislabeled", noisy))
    return tasks


def test_criterion_2_engine_global_optimality():
    started = time.perf_counter()
    specs = [NAMED_SPECS[name] for name in ALL_SPEC_NAMES]
    tasks = _oracle_task_family()
    assert len(tasks) >= 20
    for label, task in tasks:
        oracle = exhaustive_best_costs(task, specs)
        assert oracle["__space_size__"] <= 5000, label
        for spec in specs:
            res = learn(task, LearnOptions(spec=spec))
            assert res.proof == "optimal", (label, spec.name)
            assert res.cost == oracle[spec.name], (label, spec.name)
    _ok(2, f"global optimality on {len(tasks)} tasks x 7 cost functions",
        started)


# ---------------------------------------------------------------------------
# 3-5. published aggregate statistics from the transcribed summary
# ---------------------------------------------------------------------------


def test_criterion_3_overall_means():
    started = time.perf_counter()
    import refdata

    for fn, values in refdata.DOMAIN_ACCURACY.items():
        agg = aggregate_domain([MetricReport(v, v, v, v) for v in values], fn)
        assert math.isclose(
            agg.mean["accuracy"], refdata.EXPECTED_OVERALL_MEAN[fn], abs_tol=1e-3
        ), fn
    _ok(3, "overall accuracy means within 1e-3", started)


def test_criterion_4_rank_one_counts():
    started = time.perf_counter()
    import refdata

    table = rank_table(refdata.DOMAIN_ACCURACY)
    for fn, expected in refdata.EXPECTED_RANK1.items():
        assert table[fn][0] == expected, (fn, table[fn])
    _ok(4, "rank-1 counts under the documented tie rule", started)


def test_criterion_5_correlations():
    started = time.perf_counter()
    import refdata

    r1 = pearson(refdata.DOMAIN_ACCURACY["error"],
                 refdata.DOMAIN_ACCURACY["errorsize"])
    assert r1 >= 0.99
    assert math.isclose(r1, 0.9967, abs_tol=0.03)
    r2 = pearson(refdata.DOMAIN_ACCURACY["mdl"],
                 refdata.DOMAIN_ACCURACY["fnfpsize"])
    assert r2 <= 0.60
    assert math.isclose(r2, 0.4519, abs_tol=0.03)
    _ok(5, "accuracy correlations", started)


# ---------------------------------------------------------------------------
# 6. qualitative cost-function behaviours
# ---------------------------------------------------------------------------


def test_criterion_6_qualitative_behaviours(
    clone_noise_task, compression_task, trains_task
):
    started = time.perf_counter()
    toys = [clone_noise_task, compression_task, trains_task]

    # (i) FpFn never accepts a training false positive; all-covering-rules-
    # have-a-false-positive toy yields the empty program
    for toy in toys:
        res = learn(toy, LearnOptions(spec=NAMED_SPECS["fpfn"]))
        assert res.train_conf.fp == 0
    res = learn(clone_noise_task, LearnOptions(spec=NAMED_SPECS["fpfn"]))
    assert res.best.is_empty

    # (ii) MDL with 3 positives and a minimal perfect rule of size 5 prefers
    # the empty hypothesis
    res_mdl = learn(compression_task, LearnOptions(spec=NAMED_SPECS["mdl"]))
    assert res_mdl.best.is_empty
    assert res_mdl.cost == (3,)

    # (iii) Error on the same task learns something with error < |E+|
    res_err = learn(compression_task, LearnOptions(spec=NAMED_SPECS["error"]))
    assert not res_err.best.is_empty
    assert res_err.cost[0] < len(compression_task.pos)

    # (iv) ErrorSize matches Error on training error everywhere
    for toy in toys:
        e = learn(toy, LearnOptions(spec=NAMED_SPECS["error"])).cost[0]
        es = learn(toy, LearnOptions(spec=NAMED_SPECS["errorsize"])).cost[0]
        assert e == es
    _ok(6, "qualitative behaviours (fpfn/mdl/error/errorsize)", started)


# ---------------------------------------------------------------------------
# 7. recursion with held-out accuracy
# ---------------------------------------------------------------------------


def test_criterion_7_recursion(path_task_split):
    started = time.perf_counter()
    task, test_pos, test_neg = path_task_split
    res = learn(task, LearnOptions(spec=NAMED_SPECS["errorsize"]))
    assert len(res.best.rules) == 2
    assert res.best.is_recursive
    conf = evaluate_on_test(res, task, test_pos, test_neg)
    rep = metrics(conf)
    assert rep.accuracy == 100.0
    _ok(7, "recursive transitive closure, 100% held-out accuracy", started)


# ---------------------------------------------------------------------------
# 8. evaluator soundness
# ---------------------------------------------------------------------------


def test_criterion_8_evaluator_soundness():
    started = time.perf_counter()
    rng = random.Random(88)
    preds = [("e", 2), ("g", 1), ("h", 2), ("k", 1)]
    constants = [f"c{i}" for i in range(5)]

    for trial in range(100):
        facts = random_facts(rng, preds, constants, rng.randint(3, 40))
        body = preds + ([("f", 1)] if trial % 2 else [])
        p = random_program(rng, ("f", 1), body, 3, 3, rng.randint(1, 3))
        assert least_model(p, facts) == naive_least_model(p, facts)

    for _ in range(100):
        facts = random_facts(rng, preds, constants, rng.randint(3, 25))
        task = make_task(
            bk=[], pos=[("f", c) for c in constants[:3]],
            neg=[("f", c) for c in constants[3:]],
            head_preds={("f", 1)}, body_preds=preds,
        )
        task = type(task)(bk_facts=facts, pos=task.pos, neg=task.neg,
                          bias=task.bias)
        p1 = random_program(rng, ("f", 1), preds, 3, 2, 1)
        p2 = random_program(rng, ("f", 1), preds, 3, 2, 1)
        c1, c2 = coverage(p1, task), coverage(p2, task)
        cu = coverage(Program([*p1.rules, *p2.rules]), task)
        assert cu.pos_bits == c1.pos_bits | c2.pos_bits
        assert cu.neg_bits == c1.neg_bits | c2.neg_bits
    _ok(8, "semi-naive vs naive; union coverage OR", started)


# ---------------------------------------------------------------------------
# 9. statistics
# ---------------------------------------------------------------------------


def test_criterion_9_statistics():
    started = time.perf_counter()
    rng = random.Random(99)
    checked = 0
    for n in range(5, 13):
        for _ in range(25):
            xs = [rng.choice([0, 1, 2, 3, 5, 8, 13]) for _ in range(n)]
            ys = [rng.choice([0, 1, 2, 3, 5]) for _ in range(n)]
            if sum(1 for x, y in zip(xs, ys) if x != y) < 5:
                continue
            assert wilcoxon_signed_rank(xs, ys) == pytest.approx(
                brute_wilcoxon_p(xs, ys), abs=1e-12
            )
            checked += 1
    assert checked >= 100

    for _ in range(50):
        xs = [rng.uniform(0, 100) for _ in range(10)]
        ys = [rng.uniform(0, 100) for _ in range(10)]
        a, b = rng.uniform(0.5, 5), rng.uniform(-20, 20)
        base = pearson(xs, ys)
        assert math.isclose(base, pearson([a * x + b for x in xs], ys),
                            abs_tol=1e-9)
        assert math.isclose(base, -pearson([-x for x in xs], ys), abs_tol=1e-9)
    _ok(9, "wilcoxon exact vs 2^n enumeration; pearson affine invariance",
        started)
