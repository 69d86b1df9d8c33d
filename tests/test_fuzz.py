"""Seeded randomized cross-validation of the whole stack against the oracles.

Heavier than the per-module suites: planted-concept tasks with label noise
for the engine, larger combine instances, and end-to-end bench/analyze runs
over generated suites.  Everything is deterministic given the seeds.
"""

import random

import pytest

from lexicost.combiner import (
    CombineProblem,
    PromisingEntry,
    optimal_combination,
)
from lexicost.cost import ALL_SPEC_NAMES, NAMED_SPECS
from lexicost.engine import LearnOptions, learn
from lexicost.kb import Program
from conftest import PLANTED_SHAPES, make_task
from oracles import (
    brute_force_combination,
    enumerate_programs,
    exhaustive_best_costs,
    naive_coverage,
    non_dominated,
    random_facts,
    random_program,
)

SPECS = [NAMED_SPECS[name] for name in ALL_SPEC_NAMES]


def _planted_task(rng: random.Random):
    """A task whose labels come from a hidden random program, with noise."""
    head, body, bias_kw = PLANTED_SHAPES[rng.randrange(len(PLANTED_SHAPES))]
    constants = [f"c{i}" for i in range(rng.randint(3, 5))]
    facts = random_facts(rng, body, constants, rng.randint(3, 12))
    hp, ha = head

    hidden = random_program(rng, head, body, bias_kw["max_vars"],
                            bias_kw["max_body"], rng.randint(1, 2))
    probe = make_task(
        bk=[(a.predicate, *a.args) for a in facts],
        pos=[(hp, *([constants[0]] * ha))],
        neg=[],
        head_preds={head},
        body_preds=set(body),
        **bias_kw,
    )
    covered_pos, _ = _hidden_bits(hidden, probe, constants, ha, hp)

    import itertools

    universe = sorted(set(itertools.product(constants, repeat=ha)))
    rng.shuffle(universe)
    universe = universe[: rng.randint(3, min(8, len(universe)))]
    labels = {}
    for args in universe:
        truth = args in covered_pos
        if rng.random() < 0.2:
            truth = not truth
        labels[args] = truth
    if not any(labels.values()):
        labels[universe[0]] = True
    pos = [(hp, *args) for args, lab in sorted(labels.items()) if lab]
    neg = [(hp, *args) for args, lab in sorted(labels.items()) if not lab]
    return make_task(
        bk=[(a.predicate, *a.args) for a in facts],
        pos=pos,
        neg=neg,
        head_preds={head},
        body_preds=set(body),
        **bias_kw,
    )


def _hidden_bits(hidden: Program, probe, constants, ha, hp):
    from oracles import naive_least_model
    from lexicost.kb import atom as mk_atom

    model = naive_least_model(hidden, probe.bk_facts)
    import itertools

    covered = {
        args
        for args in itertools.product(constants, repeat=ha)
        if mk_atom(hp, *args) in model
    }
    return covered, model


@pytest.mark.parametrize("seed", range(24))
def test_engine_oracle_fuzz(seed):
    rng = random.Random(900_000 + seed)
    task = _planted_task(rng)
    space = sum(1 for _ in enumerate_programs(task.bias))
    assert space <= 5000
    oracle = exhaustive_best_costs(task, SPECS)
    for spec in SPECS:
        res = learn(task, LearnOptions(spec=spec))
        assert res.proof == "optimal"
        assert res.cost == oracle[spec.name], (seed, spec.name)
        # the returned program really has the reported confusion
        assert naive_coverage(res.best, task) == res.train_conf


@pytest.mark.parametrize("seed", range(6))
def test_combiner_larger_instances(seed):
    rng = random.Random(7_700 + seed)
    n = 16
    n_pos, n_neg = 18, 14
    entries = tuple(
        PromisingEntry(
            id=i,
            pos_bits=rng.getrandbits(n_pos),
            neg_bits=rng.getrandbits(n_neg),
            size=rng.randint(2, 9),
        )
        for i in range(n)
    )
    spec = SPECS[seed % len(SPECS)]
    p = CombineProblem(entries, n_pos, n_neg, spec)
    fast = optimal_combination(p)
    # the selection is brute force's over the entries the search keeps
    slow = brute_force_combination(
        CombineProblem(tuple(non_dominated(entries)), n_pos, n_neg, spec))
    assert fast.cost == slow.cost == brute_force_combination(p).cost
    assert fast.selected == slow.selected
