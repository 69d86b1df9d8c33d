import pytest
from hypothesis import given, strategies as st

from lexicost.cost import (
    ALL_SPEC_NAMES,
    CostSpec,
    LinearComponent,
    NAMED_SPECS,
    evaluate,
    generator_size_bound,
    parse_cost_spec,
)
from lexicost.errors import LexicostError
from lexicost.evaluator import Confusion


def conf(fp, fn):
    return Confusion(tp=0, fp=fp, tn=0, fn=fn)


class TestSpecDefinitions:
    def test_named_component_lists(self):
        expected = {
            "error": [(1, 1, 0)],
            "errorsize": [(1, 1, 0), (0, 0, 1)],
            "fnfp": [(0, 1, 0), (1, 0, 0)],
            "fnfpsize": [(0, 1, 0), (1, 0, 0), (0, 0, 1)],
            "fpfn": [(1, 0, 0), (0, 1, 0)],
            "fpfnsize": [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
            "mdl": [(1, 1, 1)],
        }
        for name, comps in expected.items():
            spec = NAMED_SPECS[name]
            assert [
                (c.a_fp, c.b_fn, c.c_size) for c in spec.components
            ] == comps

    def test_component_needs_nonzero_coefficient(self):
        with pytest.raises(LexicostError):
            LinearComponent(0, 0, 0)

    def test_custom_syntax(self):
        spec = parse_cost_spec("custom:fp+fn,size")
        assert [
            (c.a_fp, c.b_fn, c.c_size) for c in spec.components
        ] == [(1, 1, 0), (0, 0, 1)]

    def test_unknown_name(self):
        with pytest.raises(LexicostError):
            parse_cost_spec("accuracy")


class TestEvaluate:
    def test_error(self):
        assert evaluate(NAMED_SPECS["error"], conf(2, 3), 9) == (5,)

    def test_mdl(self):
        assert evaluate(NAMED_SPECS["mdl"], conf(1, 2), 4) == (7,)

    def test_fnfpsize(self):
        assert evaluate(NAMED_SPECS["fnfpsize"], conf(2, 0), 5) == (0, 2, 5)

    @given(
        fp=st.integers(0, 50), fn=st.integers(0, 50), size=st.integers(0, 50),
        dfp=st.integers(0, 5), dfn=st.integers(0, 5), dsize=st.integers(0, 5),
        name=st.sampled_from(ALL_SPEC_NAMES),
    )
    def test_monotone_componentwise(self, fp, fn, size, dfp, dfn, dsize, name):
        spec = NAMED_SPECS[name]
        lo = evaluate(spec, conf(fp, fn), size)
        hi = evaluate(spec, conf(fp + dfp, fn + dfn), size + dsize)
        assert all(a <= b for a, b in zip(lo, hi))


class TestCompare:
    """Cost vectors are tuples, which compare lexicographically."""

    def test_examples(self):
        assert (0, 3) < (1, 0)
        assert (2, 1) < (2, 5)
        assert not (2, 5) < (2, 5) and (2, 5) == (2, 5)

    @given(
        st.lists(st.tuples(*[st.integers(0, 9)] * 3), min_size=3, max_size=3)
    )
    def test_total_order(self, vs):
        a, b, c = [tuple(v) for v in vs]
        # exactly one of <, == and > holds, and a < b iff b > a
        assert (a < b) + (a == b) + (a > b) == 1
        assert (a < b) == (b > a)
        # transitivity
        if a <= b and b <= c:
            assert a <= c
        # reflexivity
        assert a == a and not a < a


class TestSizeBound:
    def test_errorsize_perfect(self):
        assert generator_size_bound(NAMED_SPECS["errorsize"], (0, 7)) == 6

    def test_errorsize_imperfect_unbounded(self):
        assert generator_size_bound(NAMED_SPECS["errorsize"], (2, 7)) is None

    def test_error_unbounded(self):
        assert generator_size_bound(NAMED_SPECS["error"], (3,)) is None

    def test_mdl(self):
        assert generator_size_bound(NAMED_SPECS["mdl"], (10,)) == 9

    def test_no_best_unbounded(self):
        assert generator_size_bound(NAMED_SPECS["errorsize"], None) is None

    def test_fnfpsize(self):
        assert generator_size_bound(NAMED_SPECS["fnfpsize"], (0, 0, 5)) == 4
        assert generator_size_bound(NAMED_SPECS["fnfpsize"], (0, 1, 5)) is None

    def test_size_component_not_last_allows_ties(self):
        spec = parse_cost_spec("custom:size,fp")
        assert generator_size_bound(spec, (4, 1)) == 4
