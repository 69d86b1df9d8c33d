import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lexicost.combiner import (
    FORCED,
    FULL,
    SKIP,
    CombinePool,
    CombineProblem,
    PromisingEntry,
    _bound,
    _reach_cut,
    dump_problem,
    optimal_combination,
    parse_problem,
)
from lexicost.cost import ALL_SPEC_NAMES, NAMED_SPECS, evaluate, parse_cost_spec
from lexicost.errors import LexicostError, ParseError
from lexicost.evaluator import string_to_bits
from oracles import TooLargeError, brute_force_combination, cost_levels, non_dominated

DATA = Path(__file__).parent / "data"
# the named specs, and custom ones that reach each branch of `_reach_cut`
CUT_SPECS = ALL_SPEC_NAMES + ("custom:fn,size,fp", "custom:fn,fp+size",
                              "custom:fn+size", "custom:fp+fn+size,fp")


def entry(i, size, pos, neg):
    return PromisingEntry(id=i, pos_bits=string_to_bits(pos),
                          neg_bits=string_to_bits(neg), size=size)


def solved_over_non_dominated(p):
    """`brute_force_combination` over the entries `optimal_combination`
    searches."""
    return brute_force_combination(CombineProblem(
        tuple(non_dominated(p.entries)), p.n_pos, p.n_neg, p.spec,
        max_rules=p.max_rules))


def grow(p):
    """Insert `p`'s entries into a `CombinePool` in id order, re-solving from
    scratch on `FULL` as the learner does; yields (case, solution) after each
    insert."""
    pool = CombinePool(p.n_pos, p.n_neg, p.spec, max_rules=p.max_rules)
    for e in sorted(p.entries, key=lambda e: e.id):
        case = pool.insert(e)
        if case == FULL:
            pool.solution = optimal_combination(pool.problem())
        yield case, pool.solution


def random_problem(rng, spec, max_entries=10, max_pos=12, max_neg=12):
    n = rng.randint(0, max_entries)
    n_pos = rng.randint(1, max_pos)
    n_neg = rng.randint(0, max_neg)
    entries = tuple(
        entry(
            i,
            rng.randint(2, 9),
            "".join(rng.choice("01") for _ in range(n_pos)),
            "".join(rng.choice("01") for _ in range(n_neg)),
        )
        for i in range(n)
    )
    return CombineProblem(entries, n_pos, n_neg, spec)


class TestExamples:
    def test_single_perfect_entry(self):
        p = CombineProblem((entry(0, 3, "111", "00"),), 3, 2, NAMED_SPECS["error"])
        sol = optimal_combination(p)
        assert sol.selected == (0,)
        assert sol.cost == (0,)

    def test_two_halves_union(self):
        p = CombineProblem(
            (entry(0, 3, "110", "00"), entry(1, 3, "011", "00")),
            3, 2, NAMED_SPECS["errorsize"],
        )
        sol = optimal_combination(p)
        assert sol.selected == (0, 1)
        assert sol.cost == (0, 6)

    def test_fpfn_rejects_any_false_positive(self):
        p = CombineProblem((entry(0, 3, "111", "10"),), 3, 2, NAMED_SPECS["fpfn"])
        sol = optimal_combination(p)
        assert sol.selected == ()
        assert sol.cost == (0, 3)

    def test_mdl_compression_failure(self):
        p = CombineProblem(
            (entry(0, 5, "1110000000", ""),), 10, 0, NAMED_SPECS["mdl"]
        )
        sol = optimal_combination(p)
        assert sol.selected == ()
        assert sol.cost == (10,)

    def test_empty_entries(self):
        p = CombineProblem((), 4, 2, NAMED_SPECS["error"])
        for solver in (optimal_combination, brute_force_combination):
            sol = solver(p)
            assert sol.selected == ()
            assert sol.conf.fn == 4 and sol.conf.fp == 0
            assert sol.total_size == 0

    def test_repeated_id_is_rejected(self):
        # solved, the pair would select (0,) at cost (1, 0), the union of
        # both entries, while the first entry alone costs (0, 1)
        with pytest.raises(LexicostError, match="repeated entry id 0"):
            CombineProblem((entry(0, 2, "10", "0"), entry(0, 3, "01", "1")),
                           2, 1, NAMED_SPECS["fpfn"])

    def test_pool_deeper_than_the_interpreter_stack(self):
        # one entry per positive: a search that recursed once per entry
        # would exceed Python's default recursion limit of 1000
        n = 1200
        entries = tuple(entry(i, 2, format(1 << i, f"0{n}b")[::-1], "")
                        for i in range(n))
        for name, cost in (("error", (0,)), ("errorsize", (0, 2 * n))):
            sol = optimal_combination(CombineProblem(entries, n, 0, NAMED_SPECS[name]))
            assert sol.selected == tuple(range(n))
            assert sol.cost == cost


class TestBruteForceContract:
    def test_limit(self):
        big = tuple(entry(i, 2, "1", "") for i in range(21))
        with pytest.raises(TooLargeError):
            brute_force_combination(CombineProblem(big, 1, 0, NAMED_SPECS["error"]))

    def test_runs_at_limit(self):
        rng = random.Random(1)
        entries = tuple(
            entry(i, rng.randint(2, 5),
                  "".join(rng.choice("01") for _ in range(6)),
                  "".join(rng.choice("01") for _ in range(4)))
            for i in range(20)
        )
        p = CombineProblem(entries, 6, 4, NAMED_SPECS["errorsize"])
        sol = brute_force_combination(p)
        assert sol.cost == optimal_combination(p).cost


class TestOracleAgreement:
    def test_cost_and_selection_match_without_filter(self):
        # the cost is brute force's over all entries, the selection brute
        # force's over the non-dominated ones
        rng = random.Random(42)
        for trial in range(150):
            spec = NAMED_SPECS[ALL_SPEC_NAMES[trial % len(ALL_SPEC_NAMES)]]
            p = random_problem(rng, spec)
            a = optimal_combination(p)
            b = solved_over_non_dominated(p)
            assert a.cost == b.cost == brute_force_combination(p).cost
            assert a.selected == b.selected
            assert a.conf == b.conf
            assert a.total_size == b.total_size

    def test_default_selection_is_brute_force_over_non_dominated(self):
        # the filtered path breaks ties among the non-dominated entries only
        spec = NAMED_SPECS["fnfp"]
        p = CombineProblem(tuple(entry(i, size, "1", "") for i, size
                                 in enumerate((3, 3, 4, 4, 2))), 1, 0, spec)
        assert optimal_combination(p).selected == (4,)
        assert brute_force_combination(p).selected == (0,)
        rng = random.Random(49)
        for trial in range(300):
            spec = NAMED_SPECS[ALL_SPEC_NAMES[trial % len(ALL_SPEC_NAMES)]]
            p = random_problem(rng, spec)
            # as in the engine, every entry covers a positive
            p = CombineProblem(tuple(e for e in p.entries if e.pos_bits),
                               p.n_pos, p.n_neg, spec)
            assert optimal_combination(p).selected == \
                solved_over_non_dominated(p).selected

    def test_dominance_filter_preserves_cost(self):
        rng = random.Random(43)
        for trial in range(150):
            spec = NAMED_SPECS[ALL_SPEC_NAMES[trial % len(ALL_SPEC_NAMES)]]
            p = random_problem(rng, spec)
            assert optimal_combination(p).cost == brute_force_combination(p).cost


class TestInvariants:
    def test_appending_entry_never_worsens(self):
        rng = random.Random(44)
        for trial in range(100):
            spec = NAMED_SPECS[ALL_SPEC_NAMES[trial % len(ALL_SPEC_NAMES)]]
            p = random_problem(rng, spec, max_entries=8)
            extra = entry(
                len(p.entries),
                rng.randint(2, 9),
                "".join(rng.choice("01") for _ in range(p.n_pos)),
                "".join(rng.choice("01") for _ in range(p.n_neg)),
            )
            bigger = CombineProblem(
                p.entries + (extra,), p.n_pos, p.n_neg, spec
            )
            assert optimal_combination(bigger).cost <= optimal_combination(p).cost

    def test_fp_first_specs_reach_zero_fp(self):
        rng = random.Random(45)
        for trial in range(60):
            for name in ("fpfn", "fpfnsize"):
                p = random_problem(rng, NAMED_SPECS[name], max_entries=8)
                assert optimal_combination(p).cost[0] == 0

    def test_errorsize_error_component_matches_error_optimum(self):
        rng = random.Random(46)
        for _ in range(60):
            p = random_problem(rng, NAMED_SPECS["errorsize"], max_entries=8)
            p_err = CombineProblem(p.entries, p.n_pos, p.n_neg, NAMED_SPECS["error"])
            assert optimal_combination(p).cost[0] == optimal_combination(p_err).cost[0]

    def test_solution_self_consistency(self):
        rng = random.Random(47)
        for trial in range(100):
            spec = NAMED_SPECS[ALL_SPEC_NAMES[trial % len(ALL_SPEC_NAMES)]]
            p = random_problem(rng, spec)
            sol = optimal_combination(p)
            by_id = {e.id: e for e in p.entries}
            pos = neg = size = 0
            for i in sol.selected:
                pos |= by_id[i].pos_bits
                neg |= by_id[i].neg_bits
                size += by_id[i].size
            assert size == sol.total_size
            assert sol.conf.tp == pos.bit_count()
            assert sol.conf.fp == neg.bit_count()
            assert evaluate(spec, sol.conf, size) == sol.cost
            # never worse than leaving the selection empty
            empty = optimal_combination(
                CombineProblem((), p.n_pos, p.n_neg, spec)
            )
            assert sol.cost <= empty.cost


class TestRuleBudget:
    def test_budget_forces_single_choice(self):
        entries = (entry(0, 3, "110", "00"), entry(1, 3, "011", "00"))
        capped = CombineProblem(entries, 3, 2, NAMED_SPECS["errorsize"],
                                max_rules=1)
        sol = optimal_combination(capped)
        assert len(sol.selected) == 1
        assert sol.cost == (1, 3)
        free = CombineProblem(entries, 3, 2, NAMED_SPECS["errorsize"])
        assert optimal_combination(free).cost == (0, 6)

    def test_budgeted_oracle_agreement(self):
        rng = random.Random(48)
        for trial in range(120):
            spec = NAMED_SPECS[ALL_SPEC_NAMES[trial % len(ALL_SPEC_NAMES)]]
            n = rng.randint(0, 8)
            n_pos, n_neg = rng.randint(1, 10), rng.randint(0, 10)
            entries = tuple(
                entry(
                    i, rng.randint(2, 8),
                    "".join(rng.choice("01") for _ in range(n_pos)),
                    "".join(rng.choice("01") for _ in range(n_neg)),
                )
                for i in range(n)
            )
            p = CombineProblem(entries, n_pos, n_neg, spec,
                               max_rules=rng.randint(0, 4))
            a = optimal_combination(p)
            b = solved_over_non_dominated(p)
            assert a.cost == b.cost == brute_force_combination(p).cost
            assert a.selected == b.selected


class TestCombinePool:
    def test_three_cases(self):
        spec = NAMED_SPECS["errorsize"]
        p = CombineProblem((
            entry(0, 3, "10", ""),
            entry(1, 2, "11", ""),  # dominates the selected entry 0
            entry(2, 2, "11", ""),  # a copy of entry 1
            entry(3, 1, "01", ""),
        ), 2, 0, spec)
        steps = list(grow(p))
        assert [case for case, _ in steps] == [FORCED, FULL, SKIP, FORCED]
        assert [(sol.selected, sol.cost) for _, sol in steps] == [
            ((0,), (1, 3)), ((1,), (0, 2)), ((1,), (0, 2)), ((1,), (0, 2)),
        ]

    def test_entries_arrive_in_id_order(self):
        pool = CombinePool(1, 0, NAMED_SPECS["error"])
        pool.insert(entry(1, 2, "1", ""))
        with pytest.raises(ValueError):
            pool.insert(entry(0, 2, "1", ""))

    def test_random_pools_match_brute_force_at_every_prefix(self):
        # budgeted pools, where some arrivals are built to dominate a
        # selected entry and about half specialise an earlier one (no more
        # positives or negatives, no smaller): the arrivals a forced search
        # rules most selections out for.  The case and the solution at
        # every prefix are brute force's over the non-dominated entries
        specs = [parse_cost_spec(name) for name in CUT_SPECS + ("custom:fp+fn,fn",)]
        rng = random.Random(50)
        seen = set()
        for trial in range(300):
            spec = specs[trial % len(specs)]
            n_pos, n_neg = rng.randint(1, 8), rng.randint(0, 8)
            max_rules = rng.choice((None, 0, 1, 2, 3))
            pool = CombinePool(n_pos, n_neg, spec, max_rules=max_rules)
            for i in range(rng.randint(1, 14)):
                chosen = pool.solution.selected
                draw = rng.random()
                if chosen and draw < 0.2:
                    f = pool.entries[rng.choice(chosen)]
                    e = PromisingEntry(
                        id=i, pos_bits=f.pos_bits | (1 << rng.randrange(n_pos)),
                        neg_bits=f.neg_bits & rng.getrandbits(n_neg),
                        size=rng.randint(1, f.size))
                elif pool.entries and draw < 0.7:
                    f = rng.choice(pool.entries)
                    e = PromisingEntry(
                        id=i, pos_bits=f.pos_bits & rng.getrandbits(n_pos),
                        neg_bits=f.neg_bits & rng.getrandbits(n_neg),
                        size=f.size + rng.randint(0, 2))
                else:
                    e = entry(i, rng.randint(2, 8),
                              "".join(rng.choice("01") for _ in range(n_pos)),
                              "".join(rng.choice("01") for _ in range(n_neg)))
                before = pool.solution.selected
                case = pool.insert(e)
                front = non_dominated(pool.entries)
                assert case == (SKIP if e not in front else
                                FULL if set(before) - {f.id for f in front} else
                                FORCED), (trial, i)
                seen.add(case)
                if case == FULL:
                    pool.solution = optimal_combination(pool.problem())
                oracle = solved_over_non_dominated(pool.problem())
                assert (pool.solution.selected, pool.solution.cost) == \
                    (oracle.selected, oracle.cost), (trial, i)
                assert pool.solution.cost == brute_force_combination(pool.problem()).cost
                assert pool.solution == optimal_combination(pool.problem())
        assert seen == {SKIP, FORCED, FULL}

    def test_front_is_the_non_dominated_set(self):
        # budgeted pools in which many arrivals tie with an earlier entry in
        # coverage and size, so that only the id breaks the tie
        rng = random.Random(51)
        for trial in range(150):
            spec = NAMED_SPECS[ALL_SPEC_NAMES[trial % len(ALL_SPEC_NAMES)]]
            n_pos, n_neg = rng.randint(1, 4), rng.randint(0, 4)
            pool = CombinePool(n_pos, n_neg, spec,
                               max_rules=rng.choice((None, 0, 1, 2, 3)))
            for i in range(rng.randint(1, 14)):
                if pool.entries and rng.random() < 0.4:
                    f = rng.choice(pool.entries)
                    e = PromisingEntry(id=i, pos_bits=f.pos_bits,
                                       neg_bits=f.neg_bits, size=f.size)
                else:
                    e = entry(i, rng.randint(2, 4),
                              "".join(rng.choice("01") for _ in range(n_pos)),
                              "".join(rng.choice("01") for _ in range(n_neg)))
                if pool.insert(e) == FULL:
                    pool.solution = optimal_combination(pool.problem())
                assert pool.front == non_dominated(pool.entries), (trial, i)


@st.composite
def search_problems(draw):
    """A small problem, its entries in id order as `_search` takes them, and
    an entry forced into every selection or None."""
    n_pos, n_neg = draw(st.integers(1, 5)), draw(st.integers(0, 4))
    budget = draw(st.sampled_from((None, 0, 1, 2, 3, 5)))
    entries = [PromisingEntry(id=i, pos_bits=draw(st.integers(0, 2 ** n_pos - 1)),
                              neg_bits=draw(st.integers(0, 2 ** n_neg - 1)),
                              size=draw(st.integers(1, 4)))
               for i in range(draw(st.integers(0, 8)))]
    forced = None
    if entries and draw(st.booleans()) and budget != 0:
        forced = entries.pop()
    spec = parse_cost_spec(draw(st.sampled_from(CUT_SPECS)))
    return CombineProblem(tuple(entries), n_pos, n_neg, spec, budget), forced


class TestCutSoundness:
    @settings(max_examples=300, deadline=None)
    @given(search_problems(), st.data())
    def test_no_node_is_cut_above_a_smaller_completion(self, case, data):
        # every node of the search tree, against incumbents near the keys of
        # feasible selections: when the cheap bound or `_reach_cut` cuts the
        # node, no completion by order[i:] has a smaller key
        p, forced = case
        order = list(p.entries)
        budget = float("inf") if p.max_rules is None else p.max_rules
        levels = cost_levels(p.spec)
        start = [] if forced is None else [forced]

        def key(chosen):
            pos = neg = size = 0
            for e in chosen:
                pos, neg, size = pos | e.pos_bits, neg | e.neg_bits, size + e.size
            terms = {"fp": bin(neg).count("1"), "size": size,
                     "fn": p.n_pos - bin(pos).count("1")}
            return (tuple(sum(terms[t] for t in level) for level in levels),
                    tuple(e.id for e in chosen))

        def selections(entries, taken):
            for k in range(len(entries) + 1):
                for chosen in itertools.combinations(entries, k):
                    if len(taken) + k <= budget:
                        yield list(chosen)

        keys = st.sampled_from([key(c + start) for c in selections(order, start)])
        shift = st.lists(st.integers(-1, 1), min_size=len(levels), max_size=len(levels))
        incumbents = [data.draw(keys) for _ in range(8)] + [
            (tuple(c + d for c, d in zip(data.draw(keys)[0], data.draw(shift))),
             data.draw(keys)[1]) for _ in range(8)]
        bound, suffix = _bound(order, p)
        cut = _reach_cut(order, suffix, p)
        for i in range(len(order) + 1):
            for prefix in selections(order[:i], start):
                node = start + prefix
                pos = neg = size = 0
                for e in node:
                    pos, neg, size = pos | e.pos_bits, neg | e.neg_bits, size + e.size
                lb = bound(i, pos, neg, size)
                ids = tuple(e.id for e in prefix)
                cut_by = [best for best in incumbents if (lb, ids) >= best or (
                    cut is not None and i < len(order) and cut(i, pos, neg, lb, ids, best))]
                if cut_by:
                    least = min(key(prefix + rest + start)
                                for rest in selections(order[i:], node))
                    assert all(least >= best for best in cut_by), (i, prefix, least)


class TestGoldenPools:
    # the last combine problem of costbench's `noisy` workload, seed 1 (the
    # same pool under each of these cost functions), above the brute-force
    # limit; selections and costs were pinned from the recursive search that
    # preceded the iterative one
    GOLDEN = {
        "error": ((24, 33, 34), (7,)),
        "errorsize": ((33, 34), (7, 6)),
        "fnfp": ((11, 24, 26, 31, 33, 35), (0, 12)),
        "fnfpsize": ((26, 33, 34, 35), (0, 12, 12)),
        "mdl": ((3,), (13,)),
    }

    @staticmethod
    def pool(name):
        p = parse_problem((DATA / "noisy_seed1_combine.txt").read_text(),
                          NAMED_SPECS[name])
        assert (len(p.entries), p.max_rules) == (45, 8)
        return p

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_noisy_pool(self, name):
        sol = optimal_combination(self.pool(name))
        assert (sol.selected, sol.cost) == self.GOLDEN[name]

    @pytest.mark.parametrize("name", ALL_SPEC_NAMES)
    def test_noisy_pool_prefixes(self, name):
        # entries[:k] is the problem the learner solves when the k-th entry
        # joins the pool; `noisy_seed1_prefixes.json` holds the selection and
        # cost of every prefix, written by the two-phase search that preceded
        # the single branch and bound
        p = self.pool(name)
        golden = json.loads((DATA / "noisy_seed1_prefixes.json").read_text())[name]
        assert len(golden) == len(p.entries)
        for k, expected in enumerate(golden, 1):
            sol = optimal_combination(CombineProblem(
                p.entries[:k], p.n_pos, p.n_neg, p.spec, max_rules=p.max_rules))
            assert [list(sol.selected), list(sol.cost)] == expected, k

    @pytest.mark.parametrize("name", ALL_SPEC_NAMES)
    def test_noisy_pool_prefixes_incremental(self, name):
        # the same prefixes, as the learner's pool meets them one at a time
        golden = json.loads((DATA / "noisy_seed1_prefixes.json").read_text())[name]
        got = [[list(sol.selected), list(sol.cost)] for _, sol in grow(self.pool(name))]
        assert got == golden


class TestDumpFormat:
    def test_round_trip(self):
        p = CombineProblem(
            (entry(0, 3, "110", "01"), entry(1, 4, "011", "00")),
            3, 2, NAMED_SPECS["errorsize"],
        )
        text = dump_problem(p)
        assert text.splitlines()[:2] == ["max_rules -", "0 3 110 01"]
        back = parse_problem(text, NAMED_SPECS["errorsize"])
        assert back.n_pos == 3 and back.n_neg == 2
        assert [
            (e.id, e.size, e.pos_bits, e.neg_bits) for e in back.entries
        ] == [(e.id, e.size, e.pos_bits, e.neg_bits) for e in p.entries]
        assert optimal_combination(back).cost == optimal_combination(p).cost

    def test_round_trip_without_negatives(self):
        p = CombineProblem((entry(0, 3, "110", ""),), 3, 0, NAMED_SPECS["mdl"])
        text = dump_problem(p)
        assert text == "max_rules -\n0 3 110 -"
        back = parse_problem(text, NAMED_SPECS["mdl"])
        assert back.n_neg == 0
        assert optimal_combination(back).cost == optimal_combination(p).cost

    def test_round_trip_keeps_rule_budget_and_rule_counts(self):
        # each entry is one rule, so the budget of one rule admits one entry
        p = CombineProblem((entry(0, 2, "10", ""), entry(1, 2, "01", "")),
                           2, 0, NAMED_SPECS["error"], max_rules=1)
        text = dump_problem(p)
        assert text.splitlines() == ["max_rules 1", "0 2 10 -", "1 2 01 -"]
        back = parse_problem(text, NAMED_SPECS["error"])
        assert back.max_rules == 1
        for problem in (p, back):
            sol = optimal_combination(problem)
            assert sol.selected == (0,) and sol.cost == (1,)

    def test_empty_dump_is_empty_problem(self):
        p = parse_problem("", NAMED_SPECS["error"])
        assert (p.entries, p.n_pos, p.n_neg, p.max_rules) == ((), 0, 0, None)

    @pytest.mark.parametrize("text, line", [
        # the format without a header: the first entry is not a header
        pytest.param("0 3 110 01\n1 4 011 00\n", 1, id="no-header"),
        pytest.param("max_rules\n0 3 110 01\n", 1, id="header-no-budget"),
        pytest.param("max_rules x\n0 3 110 01\n", 1, id="header-bad-budget"),
        pytest.param("max_rules -\n0 3 110\n", 2, id="three-fields"),
        pytest.param("max_rules -\n0 3 110 01 1 0\n", 2, id="six-fields"),
        pytest.param("max_rules -\n0 -3 110 01\n", 2, id="negative-count"),
        pytest.param("max_rules -\n\n0 3 110 01\n0 4 011 00\n", 4,
                     id="repeated-id"),
        pytest.param("max_rules -\n0 3 1x0 01\n", 2, id="not-bits"),
        # bitstrings shorter or longer than the first entry's
        pytest.param("max_rules -\n0 3 110 01\n1 4 01 00\n", 3,
                     id="shorter-pos"),
        pytest.param("max_rules -\n0 3 11 01\n1 4 011 00\n", 3,
                     id="longer-pos"),
        pytest.param("max_rules -\n0 3 110 01\n1 4 011 -\n", 3,
                     id="missing-neg"),
    ])
    def test_malformed_dump_names_the_line(self, text, line):
        with pytest.raises(ParseError) as caught:
            parse_problem(text, NAMED_SPECS["error"])
        assert caught.value.line == line

    def test_rule_count_column_is_rejected(self):
        # the format that carried each entry's rule count in a third column
        with pytest.raises(ParseError, match="`id size pos neg`") as caught:
            parse_problem("max_rules -\n0 3 1 110 01\n", NAMED_SPECS["error"])
        assert caught.value.line == 2
