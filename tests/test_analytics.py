import dataclasses
import math
import random
import typing

import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats as scipy_stats

from lexicost.analytics import (
    BALANCED_DEGENERATE,
    CSV_COLUMNS,
    MetricReport,
    PRECISION_UNDEFINED,
    ResultRow,
    aggregate_domain,
    analyze_results,
    metrics,
    pearson,
    rank_table,
    read_results_csv,
    wilcoxon_signed_rank,
    write_results_csv,
)
from lexicost.errors import (
    DegenerateInputError,
    EmptyConfusionError,
    EmptyInputError,
    IncompleteMatrixError,
    SchemaError,
    TooFewPairsError,
)
from lexicost.evaluator import Confusion
from oracles import brute_wilcoxon_p
import refdata


class TestMetrics:
    def test_perfect(self):
        rep = metrics(Confusion(tp=5, fp=0, tn=5, fn=0))
        assert (rep.accuracy, rep.balanced_accuracy, rep.precision,
                rep.recall) == (100.0, 100.0, 100.0, 100.0)
        assert not rep.flags

    def test_empty_hypothesis_balanced_data(self):
        rep = metrics(Confusion(tp=0, fp=0, tn=10, fn=10))
        assert rep.accuracy == 50.0
        assert rep.balanced_accuracy == 50.0
        assert rep.recall == 0.0
        assert rep.precision == 0.0
        assert PRECISION_UNDEFINED in rep.flags

    def test_degenerate_flag_only_when_class_absent(self):
        rep = metrics(Confusion(tp=3, fn=1, fp=1, tn=0))
        assert BALANCED_DEGENERATE not in rep.flags
        rep = metrics(Confusion(tp=3, fn=1, fp=0, tn=0))
        assert BALANCED_DEGENERATE in rep.flags
        assert rep.balanced_accuracy == 75.0

    def test_empty_confusion(self):
        with pytest.raises(EmptyConfusionError):
            metrics(Confusion(tp=0, fp=0, tn=0, fn=0))

    @given(tp=st.integers(0, 30), fp=st.integers(0, 30),
           tn=st.integers(0, 30), fn=st.integers(0, 30))
    def test_all_metrics_within_range(self, tp, fp, tn, fn):
        if tp + fp + tn + fn == 0:
            return
        rep = metrics(Confusion(tp=tp, fp=fp, tn=tn, fn=fn))
        for name in ("accuracy", "balanced_accuracy", "precision", "recall"):
            assert 0.0 <= getattr(rep, name) <= 100.0

    @given(tp=st.integers(0, 20), fn=st.integers(0, 20), fp=st.integers(0, 20))
    def test_accuracy_equals_balanced_when_classes_equal(self, tp, fn, fp):
        n = tp + fn
        if n == 0 or fp > n:
            return
        tn = n - fp
        rep = metrics(Confusion(tp=tp, fp=fp, tn=tn, fn=fn))
        assert math.isclose(rep.accuracy, rep.balanced_accuracy, abs_tol=1e-9)


class TestAggregate:
    def test_identical_values(self):
        reports = [MetricReport(80.0, 80.0, 80.0, 80.0)] * 3
        agg = aggregate_domain(reports, "d")
        assert agg.mean["accuracy"] == 80.0
        assert agg.stderr["accuracy"] == 0.0

    def test_one_two_three(self):
        reports = [MetricReport(v, v, v, v) for v in (1.0, 2.0, 3.0)]
        agg = aggregate_domain(reports, "d")
        assert agg.mean["accuracy"] == 2.0
        assert math.isclose(agg.stderr["accuracy"], 0.5774, abs_tol=1e-4)

    def test_reference_overall_means(self):
        for fn, values in refdata.DOMAIN_ACCURACY.items():
            reports = [MetricReport(v, v, v, v) for v in values]
            agg = aggregate_domain(reports, fn)
            assert math.isclose(
                agg.mean["accuracy"], refdata.EXPECTED_OVERALL_MEAN[fn],
                abs_tol=1e-3,
            )

    def test_permutation_invariant(self):
        rng = random.Random(5)
        values = [rng.uniform(0, 100) for _ in range(9)]
        perm = values[::-1]
        a = aggregate_domain([MetricReport(v, v, v, v) for v in values], "d")
        b = aggregate_domain([MetricReport(v, v, v, v) for v in perm], "d")
        assert math.isclose(a.mean["accuracy"], b.mean["accuracy"])
        assert math.isclose(a.stderr["accuracy"], b.stderr["accuracy"])

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            aggregate_domain([], "d")


class TestPearson:
    def test_affine(self):
        xs = [1.0, 2.0, 5.0, 7.0]
        assert math.isclose(pearson(xs, [2 * x + 1 for x in xs]), 1.0)
        assert math.isclose(pearson(xs, [-x for x in xs]), -1.0)

    def test_reference_correlations(self):
        r = pearson(refdata.DOMAIN_ACCURACY["error"],
                    refdata.DOMAIN_ACCURACY["errorsize"])
        assert math.isclose(r, refdata.EXPECTED_PEARSON_ERROR_ERRORSIZE,
                            abs_tol=3e-2)
        r = pearson(refdata.DOMAIN_ACCURACY["mdl"],
                    refdata.DOMAIN_ACCURACY["fnfpsize"])
        assert math.isclose(r, refdata.EXPECTED_PEARSON_MDL_FNFPSIZE,
                            abs_tol=3e-2)

    def test_zero_variance(self):
        with pytest.raises(DegenerateInputError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    @given(
        st.lists(st.floats(-100, 100), min_size=3, max_size=12, unique=True),
        st.floats(0.5, 10),
        st.floats(-50, 50),
    )
    # adding b rounds this spread of xs away: pearson(scaled, ys) is 0.962
    @example(xs=[0.0, 1.2008861186590603e-15, 5.517358738086494e-102], a=1.0, b=1.0)
    def test_affine_invariance(self, xs, a, b):
        from hypothesis import assume

        # each map below adds a constant of up to |b| / a (or 7 / 2.5) to
        # values of up to max|x|, in units of a (or 2.5); a double keeps about
        # 1e-16 of that sum, so the spread of xs must be a millionth of it
        # or more to survive with the correlation good to the tolerance
        spread = max(xs) - min(xs)
        assume(spread >= 1e-6 * (max(map(abs, xs)) + abs(b) / a + 7 / 2.5))
        ys = [2.5 * x - 7 for x in xs]
        scaled = [a * x + b for x in xs]
        flipped_xs = [-a * x + b for x in xs]
        assume(len(set(ys)) > 1)
        assume(len(set(scaled)) > 1 and len(set(flipped_xs)) > 1)
        base = pearson(xs, ys)
        assert math.isclose(base, pearson(scaled, ys), abs_tol=1e-6)
        assert math.isclose(base, -pearson(flipped_xs, ys), abs_tol=1e-6)


class TestWilcoxon:
    def test_identical_sequences_too_few_pairs(self):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        with pytest.raises(TooFewPairsError):
            wilcoxon_signed_rank(xs, xs)

    def test_six_distinct_positive(self):
        xs = [10, 20, 30, 40, 50, 60]
        ys = [9, 18, 27, 36, 45, 54]
        assert wilcoxon_signed_rank(xs, ys) == pytest.approx(2 / 64)

    def test_symmetry(self):
        rng = random.Random(9)
        xs = [rng.uniform(0, 100) for _ in range(10)]
        ys = [rng.uniform(0, 100) for _ in range(10)]
        assert wilcoxon_signed_rank(xs, ys) == pytest.approx(
            wilcoxon_signed_rank(ys, xs)
        )

    def test_exact_matches_brute_force_with_ties(self):
        rng = random.Random(17)
        for _ in range(120):
            n = rng.randint(5, 12)
            xs = [rng.choice([0, 1, 2, 3, 5, 8]) for _ in range(n)]
            ys = [rng.choice([0, 1, 2, 3]) for _ in range(n)]
            diffs = [x - y for x, y in zip(xs, ys) if x != y]
            if len(diffs) < 5:
                continue
            assert wilcoxon_signed_rank(xs, ys) == pytest.approx(
                brute_wilcoxon_p(xs, ys), abs=1e-12
            )

    def test_exact_matches_scipy_without_ties(self):
        rng = random.Random(19)
        for _ in range(40):
            n = rng.randint(6, 20)
            xs = list(range(1, n + 1))
            ys = [x + rng.choice([-1, 1]) * (i + 1) * 0.01
                  for i, x in enumerate(xs)]
            mine = wilcoxon_signed_rank(xs, ys)
            ref = scipy_stats.wilcoxon(xs, ys, mode="exact").pvalue
            assert mine == pytest.approx(ref, abs=1e-12)

    def test_approx_matches_scipy(self):
        rng = random.Random(21)
        xs = [rng.uniform(0, 100) for _ in range(40)]
        ys = [x + rng.uniform(-5, 5) for x in xs]
        mine = wilcoxon_signed_rank(xs, ys)
        ref = scipy_stats.wilcoxon(xs, ys, correction=False, mode="approx").pvalue
        assert mine == pytest.approx(ref, abs=1e-9)


class TestRankTable:
    def test_tie_rule(self):
        table = rank_table({"a": [90.0], "b": [90.0], "c": [80.0]})
        assert table["a"] == (1, 0, 0)
        assert table["b"] == (1, 0, 0)
        assert table["c"] == (0, 1, 0)

    def test_all_tied(self):
        table = rank_table({"a": [70.0], "b": [70.0], "c": [70.0]})
        assert all(v == (1, 0, 0) for v in table.values())

    def test_reference_rank_one_counts(self):
        table = rank_table(refdata.DOMAIN_ACCURACY)
        for fn, expected in refdata.EXPECTED_RANK1.items():
            assert table[fn][0] == expected, fn

    def test_rank_one_counts_cover_domains(self):
        table = rank_table(refdata.DOMAIN_ACCURACY)
        assert sum(v[0] for v in table.values()) >= 25

    def test_rounding_merges_float_noise(self):
        table = rank_table({"a": [90.0 + 1e-9], "b": [90.0]})
        assert table["a"][0] == 1 and table["b"][0] == 1

    def test_incomplete_matrix(self):
        with pytest.raises(IncompleteMatrixError):
            rank_table({"a": [1.0, 2.0], "b": [1.0]})
        with pytest.raises(IncompleteMatrixError):
            rank_table({})
        with pytest.raises(IncompleteMatrixError):
            rank_table({"a": [float("nan")]})


# a results CSV row's name fields may hold commas, quotes and spaces
CSV_TEXT = st.text("ab_/1 ,\"'", max_size=6)
COLUMN_TYPES = typing.get_type_hints(ResultRow)
INT_COLUMNS = [c for c in CSV_COLUMNS if COLUMN_TYPES[c] is int]


def row_order(r: ResultRow):
    return (r.domain, r.task, r.cost_fn, r.repeat)


def make_rows():
    rows = []
    for domain, base in (("alpha", 90), ("beta", 70)):
        for task_i in range(2):
            for cost_fn, delta in (("error", 0), ("mdl", -10)):
                for repeat in (1, 2):
                    rows.append(
                        ResultRow(
                            domain=domain,
                            task=f"t{task_i}",
                            repeat=repeat,
                            cost_fn=cost_fn,
                            tp=base + delta, fp=10, tn=90, fn=100 - base - delta,
                            size=3,
                            cost_vector="[1]",
                            runtime_ms=5,
                        )
                    )
    return rows


class TestResultsPipeline:
    def test_csv_round_trip(self):
        rows = make_rows()
        text = write_results_csv(rows)
        assert read_results_csv(text) == sorted(rows, key=row_order)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.builds(ResultRow, **{
        c: st.integers(0, 2**63) if COLUMN_TYPES[c] is int else CSV_TEXT
        for c in CSV_COLUMNS
    }), min_size=1, max_size=6))
    def test_random_rows_round_trip(self, rows):
        assert read_results_csv(write_results_csv(rows)) == sorted(rows, key=row_order)

    def test_int_columns_are_the_counts_and_times(self):
        assert INT_COLUMNS == ["repeat", "tp", "fp", "tn", "fn", "size", "runtime_ms"]

    @pytest.mark.parametrize("column", INT_COLUMNS)
    @pytest.mark.parametrize("value", ["", "x", "1.5"])
    def test_bad_int_value_names_its_row(self, column, value):
        # rows of two cost functions, so that writing never orders by `repeat`
        rows = make_rows()
        bad = dataclasses.replace(rows[2], **{column: value})
        text = write_results_csv([rows[0], bad])
        if column == "runtime_ms" and value == "":
            assert read_results_csv(text)[1] == dataclasses.replace(bad, runtime_ms=0)
            return
        with pytest.raises(SchemaError, match="^row 3: "):
            read_results_csv(text)

    def test_schema_errors(self):
        with pytest.raises(SchemaError):
            read_results_csv("")
        with pytest.raises(SchemaError):
            read_results_csv("bogus,header\n1,2\n")

    def test_analyze_pipeline(self):
        report = analyze_results(make_rows())
        assert report["cost_fns"] == ["error", "mdl"]
        assert report["domains"] == ["alpha", "beta"]
        assert report["overall_accuracy_mean"]["error"] == pytest.approx(
            (90.0 + 80.0) / 2
        )
        assert report["rank_table"]["error"][0] == 2
        assert report["excluded_tasks"] == []

    def test_analyze_excludes_tasks_without_any_hypothesis(self):
        rows = make_rows()
        rows += [
            ResultRow(domain="gamma", task="t0", repeat=r, cost_fn=fn, size=0,
                      tp=0, fp=0, tn=100, fn=100)
            for r in (1, 2) for fn in ("error", "mdl")
        ]
        report = analyze_results(rows)
        assert report["excluded_tasks"] == ["gamma/t0"]
        assert "gamma" not in report["domains"]
