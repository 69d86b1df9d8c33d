import random

import pytest
from hypothesis import given, settings, strategies as st

from lexicost.errors import (
    ArityMismatchError,
    InvalidBiasValueError,
    NoPositiveExamplesError,
    ParseError,
    UnknownBiasDirectiveError,
    UnknownPredicateError,
)
from lexicost.kb import (
    Atom,
    Bias,
    Program,
    Rule,
    Task,
    atom,
    is_var,
    parse_bias,
    parse_examples,
    parse_facts,
    parse_program,
    parse_rule,
    parse_task,
    render_program,
)
from oracles import brute_canonical, random_program, random_rule


class TestParseTask:
    def test_minimal_task(self):
        task = parse_task(
            "edge(a,b).",
            "pos(path(a,b)).",
            "head_pred(path,2). body_pred(edge,2). max_vars(3). max_body(2). "
            "max_clauses(1).",
        )
        assert len(task.bk_facts) == 1
        assert len(task.pos) == 1
        assert len(task.neg) == 0
        assert task.bias.max_vars == 3
        assert not task.bias.enable_recursion

    def test_no_positive_examples(self):
        with pytest.raises(NoPositiveExamplesError):
            parse_task("edge(a,b).", "neg(path(a,b)).", "head_pred(path,2).")

    def test_bad_max_vars(self):
        with pytest.raises(InvalidBiasValueError):
            parse_bias("head_pred(f,1). max_vars(0).")

    def test_unknown_directive(self):
        with pytest.raises(UnknownBiasDirectiveError):
            parse_bias("head_pred(f,1). frobnicate(3).")

    def test_malformed_clause_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_task("edge(a,.", "pos(f(a)).", "head_pred(f,1).")
        assert err.value.line == 1

    def test_arity_mismatch_within_file(self):
        with pytest.raises(ArityMismatchError):
            parse_task("edge(a,b). edge(c).", "pos(f(a)).", "head_pred(f,1).")

    def test_example_predicate_must_be_declared(self):
        with pytest.raises(UnknownPredicateError):
            parse_task("edge(a,b).", "pos(g(a)).", "head_pred(f,1).")

    def test_example_arity_mismatch(self):
        with pytest.raises(ArityMismatchError):
            parse_task("edge(a,b).", "pos(f(a,b)).", "head_pred(f,1).")

    def test_non_ground_fact_rejected(self):
        with pytest.raises(ParseError):
            parse_task("edge(a,X).", "pos(f(a)).", "head_pred(f,1).")

    def test_non_ground_fact_in_code_has_no_position(self):
        # a `Task` built in code has no input text to point into
        b = parse_bias("head_pred(f,1). body_pred(p,1).")
        with pytest.raises(ParseError) as err:
            Task(frozenset({atom("p", "X")}), (atom("f", "a"),), (), b)
        assert (err.value.line, err.value.col) == (None, None)
        assert str(err.value) == "background fact is not ground: p(X)"

    def test_comments_and_whitespace(self):
        task = parse_task(
            "% background\n  edge( a , b ).\n",
            "% labels\npos( f(a) ).",
            "head_pred(f,1). % target\nenable_recursion.",
        )
        assert task.bias.enable_recursion
        assert atom("edge", "a", "b") in task.bk_facts

    def test_recursion_flag_default_off(self):
        assert not parse_bias("head_pred(f,1).").enable_recursion

    @pytest.mark.parametrize("parse, text, name", [
        (parse_facts, "p(_x).", "_x"),
        (parse_examples, "pos(f(_a)).", "_a"),
        (parse_rule, "f(X):- p(X,_y).", "_y"),
    ])
    def test_underscore_led_term_is_a_parse_error(self, parse, text, name):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert repr(name) in str(err.value)


class TestTerms:
    def test_first_character_decides_the_kind(self):
        assert all(is_var(n) for n in ("A", "X", "V26", "Foo_1"))
        assert not any(is_var(n) for n in ("a", "x1", "0", "12b", "v26"))

    def test_constants_sort_before_variables_then_by_name(self):
        names = ["Z", "a", "V26", "1", "B", "A"]
        atoms = sorted((atom("p", n) for n in names), key=Atom.sort_key)
        assert [a.args[0] for a in atoms] == ["1", "a", "A", "B", "V26", "Z"]

    def test_rule_body_order_puts_constants_first(self):
        r = parse_rule("f(X):- g(X,Y),g(X,a),g(X,1),g(X,V26).")
        assert str(r) == "f(A):- g(A,1),g(A,a),g(A,B),g(A,C)."

    def test_variables_past_z_are_named_v26_on(self):
        head = ",".join(f"X{i}" for i in range(28))
        r = parse_rule(f"f({head}):- g(X27,X0,1).")
        assert r.head.args[25:] == ("Z", "V26", "V27")
        assert str(r.body[0]) == "g(V27,A,1)"
        assert parse_rule(str(r)) == r


class TestProgramSize:
    def test_single_rule(self):
        assert parse_program("h(X):- b1(X),b2(X).").size == 3

    def test_two_rules_additive(self):
        p = parse_program("h(X):- b1(X),b2(X).\nh(X):- b1(X),b2(X),b3(X).")
        assert p.size == 7

    def test_empty_program(self):
        assert Program().size == 0

    def test_invariant_under_renaming_and_order(self):
        p1 = parse_program("h(X):- b1(X),b2(X,Y).")
        p2 = parse_program("h(Q):- b2(Q,R),b1(Q).")
        assert p1 == p2
        assert p1.size == p2.size


class TestRender:
    def test_canonical_renaming(self):
        assert render_program(parse_program("f(X):- g(X).")) == "f(A):- g(A)."

    def test_empty(self):
        assert render_program(Program()) == ""

    def test_smaller_rule_first(self):
        p = parse_program("f(X):- g(X),h(X).\nf(X):- g(X).")
        lines = render_program(p).splitlines()
        assert lines == ["f(A):- g(A).", "f(A):- g(A),h(A)."]

    def test_round_trip_random_programs(self):
        rng = random.Random(11)
        body_preds = [("g", 1), ("h", 2), ("k", 2)]
        for _ in range(200):
            p = random_program(rng, ("f", 2), body_preds, max_vars=4,
                               max_body=3, n_rules=rng.randint(1, 3))
            assert parse_program(render_program(p)) == p

    def test_rule_equality_modulo_renaming(self):
        assert parse_rule("f(X):- g(X,Y),h(Y).") == parse_rule("f(A):- h(Q),g(A,Q).")
        assert parse_rule("f(X):- g(X,X).") != parse_rule("f(X):- g(X,Y).")

    def test_duplicate_rules_stored_once(self):
        p = Program([parse_rule("f(X):- g(X)."), parse_rule("f(Y):- g(Y).")])
        assert len(p.rules) == 1

    def test_repeated_head_variable(self):
        assert str(parse_rule("f(X,X):- g(X).")) == "f(A,A):- g(A)."
        assert parse_rule("f(X,X):- g(X).") != parse_rule("f(X,Y):- g(X),g(Y).")

    def test_constants_in_rules(self):
        r = parse_rule("f(X):- g(X,abc).")
        assert str(r) == "f(A):- g(A,abc)."
        assert parse_rule("f(Y):- g(Y,abc).") == r

    def test_canonical_form_is_renaming_invariant(self):
        # same body under different variable names and literal orders
        variants = [
            "f(X):- e(X,Y),e(Y,Z),e(Z,X).",
            "f(A):- e(C,A),e(A,B),e(B,C).",
            "f(P):- e(Q,R),e(R,P),e(P,Q).",
        ]
        rules = {parse_rule(v) for v in variants}
        assert len(rules) == 1


class TestCanonicalForm:
    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 3), st.integers(1, 5),
           st.integers(1, 4))
    def test_renaming_and_body_order_change_nothing(self, rng, head_arity, max_vars,
                                                    max_body):
        body_preds = [("g", 1), ("e", 2), ("t", 3)]
        r = random_rule(rng, ("f", head_arity), body_preds, max(max_vars, head_arity),
                        max_body)
        names = rng.sample(["A", "B", "C", "X", "Y", "Zed", "V26", "V100", "W"],
                           len(r.variables()))
        renaming = dict(zip(sorted(r.variables()), names))
        body = [a.substitute(renaming) for a in r.body]
        rng.shuffle(body)
        head = r.head.substitute(renaming)
        assert Rule(head, body) == r
        key = (r.head.sort_key(), tuple(a.sort_key() for a in r.body))
        assert key == brute_canonical(head, tuple(body))


class TestBiasValidation:
    def test_head_preds_required(self):
        with pytest.raises(InvalidBiasValueError):
            Bias(frozenset(), frozenset({("g", 1)}), 2, 2, 1)

    def test_bounds_validated(self):
        with pytest.raises(InvalidBiasValueError):
            Bias(frozenset({("f", 1)}), frozenset(), 1, 0, 1)

    def test_head_pred_of_arity_zero_rejected(self):
        # a head without arguments connects to no body literal, so the
        # generator's space would be empty and its proof false
        with pytest.raises(InvalidBiasValueError, match="head_pred f must have arity >= 1"):
            Bias(frozenset({("f", 0), ("g", 1)}), frozenset({("q", 0)}), 1, 1, 1)
        with pytest.raises(InvalidBiasValueError):
            parse_bias("head_pred(f,0). body_pred(q,0). body_pred(r,1).")
