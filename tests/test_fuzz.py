"""Seeded randomized cross-validation of the whole stack against the oracles.

Heavier than the per-module suites: planted-concept tasks with label noise
for the engine, larger combine instances, and end-to-end bench/analyze runs
over generated suites.  Everything is deterministic given the seeds.
"""

import itertools
import random

import pytest

from lexicost.combiner import (
    CombineProblem,
    PromisingEntry,
    optimal_combination,
)
from lexicost.cost import ALL_SPEC_NAMES, NAMED_SPECS
from lexicost.engine import LearnOptions, learn
from lexicost.kb import Program, atom
from conftest import PLANTED_SHAPES, make_task
from oracles import (
    brute_force_combination,
    enumerate_programs,
    exhaustive_best_costs,
    naive_coverage,
    naive_least_model,
    non_dominated,
    random_facts,
    random_program,
)

SPECS = [NAMED_SPECS[name] for name in ALL_SPEC_NAMES]


def _planted_task(rng: random.Random, shape, recursive: bool = False):
    """A task whose labels come from a hidden random program, with noise.

    The hidden program defines each head predicate of `shape` by rules over
    its body predicates, and over its head predicates too if `recursive`;
    3 to 8 examples over the head predicates are labelled by it, and each
    label flips with probability 0.2."""
    heads, body, bias_kw = shape
    constants = [f"c{i}" for i in range(rng.randint(3, 5))]
    facts = random_facts(rng, body, constants, rng.randint(3, 12))
    callable_preds = body + heads if recursive else body
    hidden = Program(r for head in heads
                     for r in random_program(rng, head, callable_preds, bias_kw["max_vars"],
                                             bias_kw["max_body"], rng.randint(1, 2)).rules)
    model = naive_least_model(hidden, facts)

    universe = sorted((hp, *args) for hp, ha in heads
                      for args in itertools.product(constants, repeat=ha))
    rng.shuffle(universe)
    universe = universe[: rng.randint(3, min(8, len(universe)))]
    labels = {}
    for example in universe:
        truth = atom(*example) in model
        if rng.random() < 0.2:
            truth = not truth
        labels[example] = truth
    if not any(labels.values()):
        labels[universe[0]] = True
    return make_task(
        bk=[(a.predicate, *a.args) for a in facts],
        pos=[ex for ex, lab in sorted(labels.items()) if lab],
        neg=[ex for ex, lab in sorted(labels.items()) if not lab],
        head_preds=set(heads),
        body_preds=set(body),
        **bias_kw,
    )


def _check_against_oracle(task, seed):
    space = sum(1 for _ in enumerate_programs(task.bias))
    assert space <= 5000
    oracle = exhaustive_best_costs(task, SPECS)
    for spec in SPECS:
        res = learn(task, LearnOptions(spec=spec))
        assert res.proof == "optimal"
        assert res.cost == oracle[spec.name], (seed, spec.name)
        # the returned program really has the reported confusion
        assert naive_coverage(res.best, task) == res.train_conf


@pytest.mark.parametrize("seed", range(24))
def test_engine_oracle_fuzz(seed):
    rng = random.Random(900_000 + seed)
    head, body, bias_kw = PLANTED_SHAPES[rng.randrange(len(PLANTED_SHAPES))]
    _check_against_oracle(_planted_task(rng, ([head], body, bias_kw)), seed)


# two head predicates that may call each other, and a recursive bias whose
# programs have up to three rules; their hidden programs may recurse
EXTRA_SHAPES = {
    "two_heads": ([("f", 1), ("g", 1)], [("p", 1), ("e", 2)],
                  dict(max_vars=2, max_body=2, max_clauses=2, enable_recursion=True)),
    "three_rules": ([("f", 1)], [("p", 1), ("e", 2)],
                    dict(max_vars=2, max_body=2, max_clauses=3, enable_recursion=True)),
}


@pytest.mark.parametrize("name", EXTRA_SHAPES)
@pytest.mark.parametrize("seed", range(8))
def test_engine_oracle_fuzz_extra_shapes(name, seed):
    rng = random.Random(f"{name}:{seed}")
    _check_against_oracle(_planted_task(rng, EXTRA_SHAPES[name], recursive=True), seed)


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
