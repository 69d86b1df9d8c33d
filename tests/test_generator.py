import dataclasses
import functools
import itertools
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from lexicost.generator import (
    CandidateGenerator,
    _unions,
    enumerate_rules,
    list_candidates,
    program_subsumes,
    prune_specializations,
    rule_table,
    theta_subsumes,
)
from lexicost.evaluator import coverage
from lexicost.kb import (
    Bias,
    Program,
    Rule,
    non_separable,
    parse_program,
    parse_rule,
    render_program,
)
from conftest import PLANTED_SHAPES
from oracles import (
    _oracle_rule_ok,
    all_rules_can_fire,
    brute_subsumes,
    enumerate_candidate_space,
    enumerate_safe_rules,
    random_program,
    random_rule,
)


# `brute_subsumes`, each pair of rules tested once per session
_brute = functools.cache(brute_subsumes)


def _brute_program_subsumes(p1: Program, p2: Program) -> bool:
    return all(any(_brute(r1, r2) for r1 in p1.rules) for r2 in p2.rules)


def bias(head, body, max_vars=3, max_body=2, max_clauses=1, recursion=False):
    return Bias(
        head_preds=frozenset(head),
        body_preds=frozenset(body),
        max_vars=max_vars,
        max_body=max_body,
        max_clauses=max_clauses,
        enable_recursion=recursion,
    )


class TestThetaSubsumes:
    def test_body_extension(self):
        assert theta_subsumes(parse_rule("f(X):- g(X)."),
                              parse_rule("f(Y):- g(Y),h(Y)."))

    def test_repeated_variable_blocks(self):
        assert not theta_subsumes(parse_rule("f(X):- g(X,X)."),
                                  parse_rule("f(A):- g(A,B)."))
        assert theta_subsumes(parse_rule("f(A):- g(A,B)."),
                              parse_rule("f(X):- g(X,X)."))

    def test_reflexive_modulo_renaming(self):
        assert theta_subsumes(parse_rule("f(X):- g(X,Y)."),
                              parse_rule("f(A):- g(A,B)."))

    def test_constants_must_match(self):
        assert theta_subsumes(parse_rule("f(X):- g(X,abc)."),
                              parse_rule("f(Y):- g(Y,abc),h(Y)."))
        assert not theta_subsumes(parse_rule("f(X):- g(X,abc)."),
                                  parse_rule("f(Y):- g(Y,xyz)."))
        # a variable may map onto a constant, not the other way round
        assert theta_subsumes(parse_rule("f(X):- g(X,Z)."),
                              parse_rule("f(Y):- g(Y,abc)."))
        assert not theta_subsumes(parse_rule("f(X):- g(X,abc)."),
                                  parse_rule("f(Y):- g(Y,Z)."))

    def test_matches_brute_force_on_random_pairs(self):
        rng = random.Random(2024)
        preds = [("g", 1), ("h", 2), ("e", 2)]
        for _ in range(300):
            r1 = random_rule(rng, ("f", 1), preds, 3, 2)
            r2 = random_rule(rng, ("f", 1), preds, 3, 3)
            assert theta_subsumes(r1, r2) == brute_subsumes(r1, r2)
            assert theta_subsumes(r2, r1) == brute_subsumes(r2, r1)


class TestStream:
    def test_singleton_space(self):
        g = CandidateGenerator(bias({("f", 1)}, {("g", 1)}, max_vars=1,
                                    max_body=1, max_clauses=1))
        stream = [render_program(p) for p in g]
        assert stream == ["f(A):- g(A)."]

    @pytest.mark.parametrize("recursion", [False, True])
    def test_next_candidate_steps_one_size_at_a_time(self, recursion):
        # a None ends each size and moves `size` on; the draws between two
        # Nones are that size's candidates, and together they are the stream
        b = bias({("f", 1)}, {("e", 2), ("g", 1)}, max_vars=2, max_body=3,
                 max_clauses=2, recursion=recursion)
        g = CandidateGenerator(b)
        drawn = []
        for size in range(1, b.max_program_size + 1):
            assert g.size == size
            while (p := g.next_candidate()) is not None:
                assert p.size == size
                drawn.append(p)
        assert g.size == b.max_program_size + 1
        assert drawn == list(CandidateGenerator(b))

    def test_specialization_constraint_blocks_stream(self):
        b = bias({("f", 1)}, {("g", 1), ("h", 1)}, max_vars=1, max_body=2)
        g = CandidateGenerator(b)
        g.add_constraint(prune_specializations(parse_program("f(X):- g(X).")))
        stream = [render_program(p) for p in g]
        assert "f(A):- g(A)." not in stream
        assert "f(A):- g(A),h(A)." not in stream
        assert "f(A):- h(A)." in stream

    def test_constraints_idempotent(self):
        b = bias({("f", 1)}, {("g", 1), ("h", 1)}, max_vars=1, max_body=2)
        g1 = CandidateGenerator(b)
        g2 = CandidateGenerator(b)
        c = prune_specializations(parse_program("f(X):- g(X)."))
        g1.add_constraint(c)
        g2.add_constraint(c)
        g2.add_constraint(c)
        assert list(g1) == list(g2)

    @pytest.mark.parametrize("text, blocks", [
        ("f(X,Y):- e(X,Y).", True),  # a rule of a size not yet listed
        ("f(X,X):- e(X,X).", False),  # a repeated head variable
        ("f(X,Y):- e(X,Z),e(Z,W),g(Y).", True),  # more variables than max_vars
        ("f(X,Y):- e(X,a),g(Y).", False),  # a constant
        ("f(X,Y):- k(X,Y).", False),  # a predicate outside the bias
        ("h(X):- g(X).", False),  # a head predicate outside the bias
        ("f(X,Y):- e(X,Y).\nf(X,Y):- g(X),g(Y).", True),
    ])
    def test_parsed_anchors_block_what_they_subsume(self, text, blocks):
        # anchors made by the parser reach the theta relation before the
        # table holds their rules, or although it never will
        b = bias({("f", 2)}, {("e", 2), ("g", 1)}, max_vars=3, max_body=3)
        anchor = parse_program(text)
        g = CandidateGenerator(b)
        g.add_constraint(prune_specializations(anchor))
        full = list(CandidateGenerator(b))
        expected = [p for p in full if not _brute_program_subsumes(anchor, p)]
        assert list(g) == expected
        assert (len(expected) < len(full)) == blocks

    def test_size_cap(self):
        # a run capped at size 2 reads the stream up to its first candidate
        # above 2: that prefix holds every candidate of size <= 2
        b = bias({("f", 1)}, {("g", 1), ("h", 1)}, max_vars=1, max_body=2)
        stream = list(CandidateGenerator(b))
        cut = next(k for k, p in enumerate(stream) if p.size > 2)
        assert cut > 0
        assert stream[:cut] == [p for p in stream if p.size <= 2]

    def test_sizes_nondecreasing(self):
        b = bias({("f", 1)}, {("g", 1), ("h", 2)}, max_vars=3, max_body=2)
        sizes = [p.size for p in CandidateGenerator(b)]
        assert sizes == sorted(sizes)

    def test_ties_broken_by_rule_sort_keys(self):
        # max_body 3 puts single rules and rule pairs in one size class
        b = bias({("f", 1)}, {("e", 2), ("g", 1)}, max_vars=2, max_body=3,
                 max_clauses=2, recursion=True)
        keys = [(p.size, tuple(r.sort_key() for r in p.rules))
                for p in CandidateGenerator(b)]
        assert keys == sorted(keys)

    def test_deterministic(self):
        b = bias({("f", 1)}, {("g", 1), ("h", 2)}, max_vars=3, max_body=2)
        assert list(CandidateGenerator(b)) == list(CandidateGenerator(b))

    def test_tightening_cap_midstream(self):
        # a cap lowered to the first candidate's size, with that candidate
        # held as an anchor, cuts the rest of the stream to a prefix
        b = bias({("f", 1)}, {("g", 1), ("h", 2)}, max_vars=3, max_body=3)
        g = CandidateGenerator(b)
        stream = iter(g)
        first = next(stream)
        g.add_constraint(prune_specializations(first))
        rest = list(stream)
        cut = next(k for k, p in enumerate(rest) if p.size > first.size)
        assert rest[:cut] == [p for p in rest if p.size <= first.size]


class TestRuleTable:
    def test_generators_over_one_bias_share_it(self, monkeypatch):
        from lexicost import generator

        b = bias({("f", 1)}, {("g", 1), ("h", 2)}, max_vars=3, max_body=2)
        calls = []
        real = generator.enumerate_rules
        monkeypatch.setattr(generator, "enumerate_rules",
                            lambda bias, n: calls.append(n) or real(bias, n))
        first = list(CandidateGenerator(b))
        assert list(CandidateGenerator(b)) == first
        assert calls == [1, 2]
        assert rule_table(b, 0) is rule_table(b, 3)

    @pytest.mark.parametrize("b", [
        bias({("f", 1)}, {("g", 1), ("h", 2)}, max_vars=3, max_body=3),
        bias({("f", 1)}, {("e", 2), ("g", 1)}, max_vars=2, max_body=3,
             max_clauses=2, recursion=True),
    ], ids=["plain", "recursive"])
    def test_partial_table_changes_no_stream(self, b):
        fresh = list(CandidateGenerator(dataclasses.replace(b)))  # an equal bias, own table
        # a prefix of the stream, cut at its first candidate of size 3,
        # lists sizes 1 .. 3 while holding anchors
        partial = CandidateGenerator(b)
        for i, p in enumerate(partial):
            if p.size >= 3:
                break
            if i % 2 == 0:
                partial.add_constraint(prune_specializations(p))
        table = rule_table(b, 3)
        assert len(table.ends) == 4
        assert list(CandidateGenerator(b)) == fresh
        assert table.rules == sorted(table.rules, key=Rule.sort_key)
        assert len(table.ends) == 5


    def test_second_generator_makes_no_subsumption_check(self, monkeypatch):
        from lexicost import generator

        b = dataclasses.replace(TINY_BIASES[4])  # path/edge, recursive; own table
        checks = []
        real = generator._covers
        monkeypatch.setattr(generator, "_covers",
                            lambda images, lits: checks.append(1) or real(images, lits))
        first = list(CandidateGenerator(b))
        assert checks, "listing the unions makes theta-tests"
        checks.clear()
        assert list(CandidateGenerator(b)) == first
        assert any(len(p.rules) > 1 for p in first)
        assert checks == []


TINY_BIASES = [
    bias({("f", 1)}, {("g", 1), ("h", 1)}, max_vars=2, max_body=2),
    bias({("f", 1)}, {("g", 1), ("e", 2)}, max_vars=3, max_body=2),
    bias({("f", 2)}, {("e", 2), ("g", 1)}, max_vars=3, max_body=2),
    bias({("f", 1)}, {("e", 2)}, max_vars=3, max_body=2, max_clauses=2,
         recursion=True),
    bias({("path", 2)}, {("edge", 2)}, max_vars=3, max_body=2, max_clauses=2,
         recursion=True),
]


class TestCompleteness:
    @pytest.mark.parametrize("b", TINY_BIASES, ids=range(len(TINY_BIASES)))
    def test_rules_have_the_asked_body_length(self, b):
        # a combination picks distinct literals and canonical naming is a
        # renaming, so no body collapses below its length
        for n in range(1, b.max_body + 1):
            assert all(len(r.body) == n for r in enumerate_rules(b, n))

    @pytest.mark.parametrize("b", TINY_BIASES, ids=range(len(TINY_BIASES)))
    def test_stream_matches_independent_enumeration(self, b):
        stream = list(CandidateGenerator(b))
        assert len(stream) == len(set(stream)), "stream emitted a duplicate"
        oracle = enumerate_candidate_space(b)
        assert set(stream) == set(oracle)
        assert len(stream) == len(oracle)


class TestNonSeparable:
    # the tiny biases, and recursive ones with two head predicates, with
    # three clauses, and with rules long enough that one size class holds
    # both single rules and unions
    BIASES = TINY_BIASES + [
        bias({("f", 1), ("g", 1)}, {("e", 2), ("h", 1)}, max_vars=2, max_body=2,
             max_clauses=2, recursion=True),
        bias({("path", 2)}, {("edge", 2)}, max_vars=3, max_body=2, max_clauses=3,
             recursion=True),
        bias({("f", 1)}, {("e", 2), ("g", 1)}, max_vars=2, max_body=3,
             max_clauses=2, recursion=True),
        # three clauses over two head predicates: a union whose rules fire
        # only in the reverse of id order, e.g. f(A):- g(A). g(A):- f(A).
        # f(A):- e(A,B),h(B).
        bias({("f", 1), ("g", 1)}, {("e", 2), ("h", 1)}, max_vars=2, max_body=2,
             max_clauses=3, recursion=True),
    ]

    @pytest.mark.parametrize("b", BIASES, ids=range(len(BIASES)))
    def test_unions_are_non_separable_and_rules_are_listed_alone(self, b):
        table = rule_table(b, b.max_program_size)
        listed = [ids for size in range(1, b.max_program_size + 1)
                  for ids in list_candidates(b, size)]
        for ids in listed:
            if len(ids) > 1:
                assert non_separable([table.rules[i] for i in ids]), ids
        # a rule can fire alone iff its body uses background predicates only
        alone = [i for i, r in enumerate(table.rules)
                 if all((a.predicate, a.arity) in b.body_preds for a in r.body)]
        assert sorted(ids[0] for ids in listed if len(ids) == 1) == alone
        assert any(len(ids) > 1 for ids in listed) == b.enable_recursion

    @pytest.mark.parametrize("b", BIASES, ids=range(len(BIASES)))
    def test_listing_matches_rule_level_references(self, b):
        # the mask tests and the theta relation, union by union, against
        # `non_separable`, the can-fire oracle and brute-force subsumption
        table = rule_table(b, b.max_program_size)
        slots = b.max_clauses if b.enable_recursion else 1
        for size in range(1, b.max_program_size + 1):
            expected = []
            for ids in _unions([r.size for r in table.rules], 0, size, slots):
                rules = [table.rules[i] for i in ids]
                if ((len(ids) == 1 or non_separable(rules))
                        and all_rules_can_fire(rules, b.body_preds)
                        and not any(_brute(r1, r2)
                                    for r1, r2 in itertools.permutations(rules, 2))):
                    expected.append(ids)
            assert list_candidates(b, size) == expected, size


def _oracle_rules(b: Bias, n: int) -> list[Rule]:
    """The oracle's non-redundant rules of body length n, in id order."""
    return sorted((r for r in enumerate_safe_rules(b)
                   if len(r.body) == n and _oracle_rule_ok(r)), key=Rule.sort_key)


# the most literal combinations an oracle enumeration may meet
ORACLE_COMBINATIONS = 1500


@st.composite
def small_biases(draw) -> Bias:
    heads = {(name, draw(st.integers(1, 3)))
             for name in draw(st.lists(st.sampled_from("fg"), min_size=1, max_size=2,
                                       unique=True))}
    body = {(name, draw(st.integers(0, 3)))
            for name in draw(st.lists(st.sampled_from("pqr"), min_size=1, max_size=3,
                                      unique=True))}
    max_vars = draw(st.integers(1, 4))
    recursion = draw(st.booleans())
    pool = sum(max_vars ** a for _, a in body | (heads if recursion else set()))
    # the longest body that keeps the oracle's enumeration small
    longest = max(k for k in range(1, 4)
                  if k == 1 or sum(math.comb(pool, j) for j in range(1, k + 1))
                  <= ORACLE_COMBINATIONS)
    return bias(heads, body, max_vars=max_vars,
                max_body=min(draw(st.integers(1, 3)), longest), recursion=recursion)


class TestEnumerateRules:
    @settings(max_examples=80, deadline=None)
    @given(small_biases())
    # three body-only variables: five renamings besides the identity
    @example(bias({("f", 1)}, {("e", 2)}, max_vars=4, max_body=3))
    def test_matches_the_oracle_in_id_order(self, b):
        for n in range(1, b.max_body + 1):
            assert enumerate_rules(b, n) == _oracle_rules(b, n)

    def test_nine_variables_one_literal(self):
        # the renamings are built only over the variables a body uses: a
        # literal of arity 3 uses at most 3 of the 8 body-only variables
        b = bias({("f", 1)}, {("e", 2), ("t", 3)}, max_vars=9, max_body=1)
        rules = enumerate_rules(b, 1)
        assert rules == _oracle_rules(b, 1)
        # e: A shares e(A,A), e(A,B), e(B,A); t: one of the 1 + 3·2 + 1·3
        # ways to give A a block of a partition of t's three places
        assert len(rules) == 3 + 10


class TestProgramSubsumes:
    def test_program_level(self):
        anchor = parse_program("f(X):- g(X).")
        spec = parse_program("f(X):- g(X),h(X).")
        mixed = parse_program("f(X):- g(X),h(X).\nf(X):- k(X).")
        assert program_subsumes(anchor, spec)
        assert not program_subsumes(anchor, mixed)


FIXTURE_TASKS = ["trains_task", "path_task_full", "clone_noise_task",
                 "compression_task"]


def _check_against_reference_filter(b: Bias, rng: random.Random) -> None:
    """Drive a generator with anchors and duplicate anchors added at random
    points, and check every emitted program against the unconstrained
    stream filtered by `not any(_brute_program_subsumes(a, p) for a in anchors)`,
    until a size cap lowered at a random point cuts the stream, as it
    ends a learner's run."""
    full = list(CandidateGenerator(b))
    head = next(iter(b.head_preds))
    body = sorted(b.body_preds)
    gen = CandidateGenerator(b)
    stream = iter(gen)
    anchors: list[Program] = []
    cap = b.max_program_size
    i = 0
    while True:
        while i < len(full) and any(_brute_program_subsumes(a, full[i]) for a in anchors):
            i += 1
        expected = full[i] if i < len(full) else None
        assert next(stream, None) == expected
        if expected is None or expected.size > cap:
            return
        i += 1
        roll = rng.random()
        if roll < 0.08:
            anchor = expected
        elif roll < 0.12:
            anchor = rng.choice(full)
        elif roll < 0.15:
            anchor = random_program(rng, head, body, b.max_vars, b.max_body,
                                    rng.randint(1, 2))
        elif roll < 0.18 and anchors:
            anchor = rng.choice(anchors)
        else:
            anchor = None
        if anchor is not None:
            gen.add_constraint(prune_specializations(anchor))
            anchors.append(anchor)
        if rng.random() < 0.005:
            cap = min(cap, expected.size + rng.randint(0, 2))


class TestReferenceFilter:
    @pytest.mark.parametrize("fixture", FIXTURE_TASKS)
    @pytest.mark.parametrize("seed", range(3))
    def test_fixture_biases(self, fixture, seed, request):
        b = request.getfixturevalue(fixture).bias
        _check_against_reference_filter(b, random.Random(seed))

    @pytest.mark.parametrize("shape", range(len(PLANTED_SHAPES)))
    @pytest.mark.parametrize("seed", range(3))
    def test_planted_shapes(self, shape, seed):
        head, body, kw = PLANTED_SHAPES[shape]
        b = Bias(head_preds=frozenset({head}), body_preds=frozenset(body), **kw)
        _check_against_reference_filter(b, random.Random(100 * shape + seed))

    def test_closure_candidate_count(self, path_task_full):
        # the whole pruned stream on this task, pruning as the engine does:
        # the specialisations of every candidate that covers no positive
        gen = CandidateGenerator(path_task_full.bias)
        n = 0
        for h in gen:
            n += 1
            if coverage(h, path_task_full).pos_bits == 0:
                gen.add_constraint(prune_specializations(h))
        assert n == 901
