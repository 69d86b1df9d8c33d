import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from lexicost.engine import LearnResult, LearnStats, evaluate_on_test
from lexicost.errors import LengthMismatchError, ResourceLimitError
from lexicost.evaluator import (
    Confusion,
    Coverage,
    bits_to_string,
    confusion,
    coverage,
    coverage_of_examples,
    fact_store,
    least_model,
    string_to_bits,
)
from lexicost.generator import theta_subsumes
from lexicost.kb import Program, Rule, Task, atom, parse_program, parse_rule, parse_task

from conftest import TRAINS_BIAS, TRAINS_BK, TRAINS_EXS, make_task
from oracles import (
    naive_coverage_bits,
    naive_least_model,
    random_facts,
    random_program,
    random_rule,
)


class TestLeastModel:
    def test_transitive_closure(self):
        p = parse_program(
            "path(X,Y):- edge(X,Y).\npath(X,Y):- edge(X,Z),path(Z,Y)."
        )
        facts = frozenset({atom("edge", "a", "b"), atom("edge", "b", "c")})
        model = least_model(p, facts)
        added = {str(a) for a in model} - {str(a) for a in facts}
        assert added == {"path(a,b)", "path(b,c)", "path(a,c)"}

    def test_empty_program_returns_facts(self):
        facts = frozenset({atom("edge", "a", "b")})
        assert least_model(Program(), facts) == facts

    def test_rule_over_absent_predicate(self):
        p = parse_program("f(X):- missing(X).")
        facts = frozenset({atom("edge", "a", "b")})
        assert least_model(p, facts) == facts

    def test_resource_limit(self):
        # closure over a complete graph on 40 nodes derives ~1600 atoms
        nodes = [f"n{i}" for i in range(40)]
        facts = frozenset(
            atom("edge", a, b) for a in nodes for b in nodes if a != b
        )
        p = parse_program(
            "path(X,Y):- edge(X,Y).\npath(X,Y):- edge(X,Z),path(Z,Y)."
        )
        with pytest.raises(ResourceLimitError):
            least_model(p, facts, max_atoms=100)

    def test_matches_naive_on_random_instances(self):
        rng = random.Random(101)
        preds = [("e", 2), ("g", 1), ("h", 2), ("k", 1), ("m", 2), ("w", 1)]
        constants = [f"c{i}" for i in range(6)]
        for trial in range(120):
            facts = random_facts(rng, preds, constants, rng.randint(3, 50))
            n_rules = rng.randint(1, 3)
            body = preds + [("f", 1)] * (1 if trial % 3 == 0 else 0)
            p = random_program(rng, ("f", 1), body, max_vars=3, max_body=3,
                               n_rules=n_rules)
            assert least_model(p, facts) == naive_least_model(p, facts)

    def test_monotone_in_rules_and_facts(self):
        rng = random.Random(55)
        preds = [("e", 2), ("g", 1)]
        constants = ["a", "b", "c", "d"]
        for _ in range(60)        :
            facts = random_facts(rng, preds, constants, rng.randint(2, 15))
            p = random_program(rng, ("f", 1), preds, 3, 2, 1)
            extra_rule = random_rule(rng, ("f", 1), preds, 3, 2)
            base = least_model(p, facts)
            assert base <= least_model(Program([*p.rules, extra_rule]), facts)
            more = facts | {atom("e", "d", "a")}
            assert base <= least_model(p, more)


class TestCoverage:
    def test_empty_program_covers_nothing(self):
        task = make_task(
            bk=[("g", "a")],
            pos=[("f", f"p{i}") for i in range(5)],
            neg=[("f", f"n{i}") for i in range(3)],
            head_preds={("f", 1)},
            body_preds={("g", 1)},
        )
        cov = coverage(Program(), task)
        assert cov.pos_bits == 0 and cov.neg_bits == 0
        conf = confusion(cov, task)
        assert conf.fp == 0 and conf.fn == 5

    def test_trains_bitstrings(self):
        # 4 positive trains, first two have closed cars; 2 negative trains
        bk = [("has_car", f"t{i}", f"c{i}") for i in range(1, 7)]
        bk += [("closed", "c1"), ("closed", "c2")]
        task = make_task(
            bk,
            pos=[("east", f"t{i}") for i in range(1, 5)],
            neg=[("east", "t5"), ("east", "t6")],
            head_preds={("east", 1)},
            body_preds={("has_car", 2), ("closed", 1)},
        )
        p = parse_program("east(T):- has_car(T,C),closed(C).")
        cov = coverage(p, task)
        assert bits_to_string(cov.pos_bits, cov.n_pos) == "1100"
        assert bits_to_string(cov.neg_bits, cov.n_neg) == "00"
        conf = confusion(cov, task)
        assert (conf.tp, conf.fn, conf.fp, conf.tn) == (2, 2, 0, 2)

    def test_fact_store_stays_read_only(self):
        # `roof` is a body predicate without facts: neither a rule nor a
        # fixpoint that reads it adds a relation for it to the fact store
        task = parse_task(TRAINS_BK, TRAINS_EXS, TRAINS_BIAS + "body_pred(roof,1).\n")
        keys = set(fact_store(task))
        assert ("roof", 1) not in keys
        for text, covered in (
            ("east(A):- has_car(A,B),roof(B).", 0b00),
            ("east(A):- has_car(A,B),closed(B).\n"
             "east(A):- has_car(A,B),east(B),roof(B).", 0b11),
        ):
            assert coverage(parse_program(text), task).pos_bits == covered
            assert set(fact_store(task)) == keys, text

    def test_union_of_nonrecursive_rules_is_bitwise_or(self):
        rng = random.Random(77)
        preds = [("e", 2), ("g", 1), ("h", 1)]
        constants = ["a", "b", "c", "d", "e"]
        for _ in range(100):
            facts = random_facts(rng, preds, constants, rng.randint(3, 20))
            task = make_task(
                bk=[],
                pos=[("f", c) for c in constants[:3]],
                neg=[("f", c) for c in constants[3:]],
                head_preds={("f", 1)},
                body_preds=preds,
            )
            task = type(task)(
                bk_facts=facts, pos=task.pos, neg=task.neg, bias=task.bias
            )
            p1 = random_program(rng, ("f", 1), preds, 3, 2, 1)
            p2 = random_program(rng, ("f", 1), preds, 3, 2, 1)
            c1 = coverage(p1, task)
            c2 = coverage(p2, task)
            cu = coverage(Program([*p1.rules, *p2.rules]), task)
            assert cu.pos_bits == c1.pos_bits | c2.pos_bits
            assert cu.neg_bits == c1.neg_bits | c2.neg_bits

    def test_union_equality_may_fail_for_recursive_programs(self):
        # a recursive rule fires only alongside its base: no OR decomposition
        task = make_task(
            bk=[("edge", "a", "b"), ("edge", "b", "c")],
            pos=[("path", "a", "b"), ("path", "a", "c")],
            neg=[("path", "c", "a")],
            head_preds={("path", 2)},
            body_preds={("edge", 2)},
            enable_recursion=True,
            max_clauses=2,
        )
        base = parse_program("path(X,Y):- edge(X,Y).")
        rec = parse_program("path(X,Y):- edge(X,Z),path(Z,Y).")
        both = Program([*base.rules, *rec.rules])
        cb = coverage(base, task)
        cr = coverage(rec, task)
        cu = coverage(both, task)
        assert cu.pos_bits != cb.pos_bits | cr.pos_bits

    def test_subsumed_rule_covers_subset(self):
        rng = random.Random(31)
        preds = [("e", 2), ("g", 1)]
        constants = ["a", "b", "c", "d"]
        checked = 0
        while checked < 50:
            r1 = random_rule(rng, ("f", 1), preds, 3, 2)
            extra = random_rule(rng, ("f", 1), preds, 3, 3)
            if not theta_subsumes(r1, extra):
                continue
            checked += 1
            facts = random_facts(rng, preds, constants, rng.randint(3, 20))
            task = make_task(
                bk=[], pos=[("f", c) for c in constants],
                neg=[("f", "zz")], head_preds={("f", 1)}, body_preds=preds,
            )
            task = type(task)(
                bk_facts=facts, pos=task.pos, neg=task.neg, bias=task.bias
            )
            general = coverage(Program([r1]), task)
            specific = coverage(Program([extra]), task)
            assert specific.pos_bits & ~general.pos_bits == 0

    def test_matches_naive_coverage(self):
        rng = random.Random(13)
        preds = [("e", 2), ("g", 1), ("h", 1)]
        constants = ["a", "b", "c", "d"]
        for _ in range(60):
            facts = random_facts(rng, preds, constants, rng.randint(3, 20))
            task = make_task(
                bk=[], pos=[("f", c) for c in constants[:2]],
                neg=[("f", c) for c in constants[2:]],
                head_preds={("f", 1)}, body_preds=preds,
            )
            task = type(task)(
                bk_facts=facts, pos=task.pos, neg=task.neg, bias=task.bias
            )
            p = random_program(rng, ("f", 1), preds, 3, 2, rng.randint(1, 2))
            cov = coverage(p, task)
            assert (cov.pos_bits, cov.neg_bits) == naive_coverage_bits(p, task)


# Random tasks for the oracle property: three head predicates (so programs
# may have several heads and rules may read a head predicate that no rule of
# the program defines), constants anywhere, and variables that may repeat.
_CONSTANTS = ("a", "b", "c")
_HEADS = (("f", 1), ("g", 2), ("h", 1))
_BODY = (("e", 2), ("p", 1), ("q", 1))
_term = st.sampled_from(("A", "A", "B", "B", "C", *_CONSTANTS))


@st.composite
def _rules(draw):
    hp, ha = draw(st.sampled_from(_HEADS))
    head = atom(hp, *draw(st.lists(_term, min_size=ha, max_size=ha)))
    body = [
        atom(pred, *draw(st.lists(_term, min_size=arity, max_size=arity)))
        for pred, arity in draw(
            st.lists(st.sampled_from(_BODY + _HEADS), min_size=1, max_size=3)
        )
    ]
    # keep the rule range-restricted
    in_body = {v for a in body for v in a.variables()}
    body += [atom("p", v) for v in head.variables() if v not in in_body]
    return Rule(head, body)


_ground_atoms = {
    (pred, arity): [atom(pred, *args)
                    for args in itertools.product(_CONSTANTS, repeat=arity)]
    for pred, arity in _HEADS + _BODY
}


@st.composite
def _tasks_and_programs(draw):
    facts = draw(st.sets(st.sampled_from(
        [a for key in _BODY for a in _ground_atoms[key]]), max_size=20))
    head_atoms = [a for key in _HEADS for a in _ground_atoms[key]]
    labelled = draw(st.lists(st.sampled_from(head_atoms), min_size=1,
                             max_size=8, unique=True))
    n_pos = draw(st.integers(1, len(labelled)))
    program = Program(draw(st.lists(_rules(), min_size=1, max_size=3)))
    return _task(facts, labelled[:n_pos], labelled[n_pos:]), program


def _task(facts, pos, neg):
    return make_task(
        bk=[(a.predicate, *a.args) for a in facts],
        pos=[(a.predicate, *a.args) for a in pos],
        neg=[(a.predicate, *a.args) for a in neg],
        head_preds=set(_HEADS), body_preds=set(_BODY), enable_recursion=True,
    )


def _case(facts: str, pos: str, neg: str, program: str):
    """An explicit property case from text: facts, examples, program."""
    def atoms(text):
        return [atom(*f.replace("(", " ").replace(",", " ").split())
                for f in text.replace(")", "").split()]

    return _task(atoms(facts), atoms(pos), atoms(neg)), parse_program(program)


class TestIndexedCoverage:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_tasks_and_programs())
    # non-recursive, constants in head and body
    @example(_case("e(a,b) e(b,c) p(c)", "f(a) g(a,b)", "f(b) g(b,c)",
                   "f(A):- e(A,B),e(B,c).\ng(a,B):- e(a,B)."))
    # repeated head variables, repeated body variables
    @example(_case("e(a,a) e(b,c) p(b)", "g(a,a) f(a)", "g(b,b) g(b,c)",
                   "g(A,A):- e(A,B).\nf(A):- e(A,A)."))
    # a body literal on a declared head predicate that no rule defines
    @example(_case("p(a) p(b) q(a)", "f(a)", "f(b)",
                   "f(A):- p(A),g(A,B)."))
    # recursive and multi-head: g is derived from f, f from g and e
    @example(_case("e(a,b) e(b,c) p(a)", "f(c) g(b,b)", "f(a) g(a,c)",
                   "f(A):- p(A).\ng(B,B):- f(A),e(A,B).\nf(B):- g(A,A),e(A,B)."))
    # a join of two derived relations: h is complete after the first round,
    # while g keeps growing, so f's later atoms probe h's index
    @example(_case("e(a,b) e(b,c) e(c,d) p(d)", "f(a) f(b) f(c)", "f(d)",
                   "h(A):- p(A).\ng(A,B):- e(A,B).\ng(A,B):- e(A,C),g(C,B).\n"
                   "f(A):- g(A,B),h(B)."))
    def test_matches_naive_oracle(self, case):
        task, program = case
        cov = coverage(program, task)
        assert (cov.pos_bits, cov.neg_bits) == naive_coverage_bits(program, task)
        assert least_model(program, task.bk_facts) == naive_least_model(
            program, task.bk_facts)

    def test_graph_of_300_constants(self):
        rng = random.Random(2016)
        nodes = [f"v{i}" for i in range(300)]
        edges = {(a, rng.choice(nodes)) for a in nodes for _ in range(2)}
        p = set(rng.sample(nodes, 150))
        q = set(rng.sample(nodes, 150))
        bk = ([("e", a, b) for a, b in edges] + [("p", a) for a in p]
              + [("q", a) for a in q])
        rng.shuffle(nodes)
        train, held = nodes[:40], nodes[40:80]

        def labelled(names):
            half = len(names) // 2
            return ([("f", a) for a in names[:half]],
                    [("f", a) for a in names[half:]])

        pos, neg = labelled(train)
        task = make_task(bk, pos, neg, head_preds={("f", 1)},
                         body_preds={("e", 2), ("p", 1), ("q", 1)}, max_body=3)
        held_pos, held_neg = labelled(held)
        held_task = make_task(bk, held_pos, held_neg, head_preds={("f", 1)},
                              body_preds={("e", 2), ("p", 1), ("q", 1)})
        for text in ("f(A):- e(A,B),q(B).", "f(A):- e(B,A),p(B).",
                     "f(A):- e(A,B),e(B,C),q(C).", "f(A):- e(A,B),p(A),q(B)."):
            program = parse_program(text)
            # one naive model serves both example sets
            model = naive_least_model(program, task.bk_facts)
            cov = coverage(program, task)
            assert cov.pos_bits == sum(1 << i for i, a in enumerate(task.pos) if a in model)
            assert cov.neg_bits == sum(1 << i for i, a in enumerate(task.neg) if a in model)
            result = LearnResult(best=program, cost=(), stats=LearnStats(),
                                 train_conf=Confusion(0, 0, 0, 0), proof="optimal")
            got = evaluate_on_test(result, task, held_task.pos, held_task.neg)
            tp = sum(a in model for a in held_task.pos)
            fp = sum(a in model for a in held_task.neg)
            assert got == Confusion(tp=tp, fp=fp, tn=len(held_task.neg) - fp,
                                    fn=len(held_task.pos) - tp)

    def test_recursive_coverage_respects_atom_cap(self):
        # closure over a complete graph on 40 nodes derives ~1600 atoms
        nodes = [f"n{i}" for i in range(40)]
        task = make_task(
            bk=[("edge", a, b) for a in nodes for b in nodes if a != b],
            pos=[("path", "n0", "n1")], neg=[],
            head_preds={("path", 2)}, body_preds={("edge", 2)},
            enable_recursion=True, max_clauses=2,
        )
        p = parse_program(
            "path(X,Y):- edge(X,Y).\npath(X,Y):- edge(X,Z),path(Z,Y)."
        )
        with pytest.raises(ResourceLimitError):
            coverage(p, task, max_atoms=100)
        assert coverage(p, task).pos_bits == 1

    def test_goal_directed_coverage_counts_covered_examples(self):
        task = make_task(
            bk=[("g", f"c{i}") for i in range(5)],
            pos=[("f", f"c{i}") for i in range(5)], neg=[],
            head_preds={("f", 1)}, body_preds={("g", 1)},
        )
        p = parse_program("f(A):- g(A).")
        with pytest.raises(ResourceLimitError):
            coverage(p, task, max_atoms=4)
        assert coverage(p, task, max_atoms=5).pos_bits == 0b11111

    def test_store_is_built_on_first_coverage_and_kept(self):
        task = parse_task(TRAINS_BK, TRAINS_EXS, TRAINS_BIAS)
        assert "_fact_store" not in vars(task)
        coverage(parse_program("east(A):- has_car(A,B),closed(B)."), task)
        store = fact_store(task)
        assert vars(task)["_fact_store"] is store
        coverage(parse_program("east(A):- has_car(A,B),long(B)."), task)
        assert fact_store(task) is store

    def test_goal_directed_coverage_leaves_the_store_keys(self):
        # a non-recursive hypothesis only reads the store: no relation, not
        # even an empty one for its head predicate, is added to it
        task = parse_task(TRAINS_BK, TRAINS_EXS, TRAINS_BIAS)
        keys = set(fact_store(task))
        coverage(parse_program("east(A):- has_car(A,B),closed(B)."), task)
        assert set(fact_store(task)) == keys
        # nor one for a body predicate that has no background facts
        task = parse_task(TRAINS_BK, TRAINS_EXS, TRAINS_BIAS + "body_pred(roof,1).\n")
        keys = set(fact_store(task))
        conf = coverage(parse_program("east(A):- has_car(A,B),roof(B)."), task)
        assert (conf.pos_bits, conf.neg_bits) == (0, 0)
        assert set(fact_store(task)) == keys


# Random non-recursive programs for the factorised-coverage property: heads
# of arity 1-2 over the head variables A and B or constants, and bodies made
# of up to three groups of literals, each group reading the head's terms,
# constants and variables of its own, so that a body splits into 1-3 or more
# components.
_NR_HEADS = (("f", 1), ("g", 2))


@st.composite
def _factorised_rules(draw):
    hp, ha = draw(st.sampled_from(_NR_HEADS))
    head = atom(hp, *draw(st.lists(st.sampled_from(("A", "B", *_CONSTANTS)),
                                   min_size=ha, max_size=ha)))
    body = []
    for g in range(draw(st.integers(1, 3))):
        terms = st.sampled_from((*head.variables(), f"C{g}", f"C{g}", f"D{g}",
                                 *_CONSTANTS))
        for pred, arity in draw(st.lists(st.sampled_from(_BODY), min_size=1,
                                         max_size=2)):
            body.append(atom(pred, *draw(st.lists(terms, min_size=arity,
                                                  max_size=arity))))
    in_body = {v for a in body for v in a.variables()}
    body += [atom("p", v) for v in head.variables() if v not in in_body]
    return Rule(head, body)


@st.composite
def _shared_cases(draw):
    """A task, two to four programs, and a second example set."""
    facts = draw(st.sets(st.sampled_from(
        [a for key in _BODY for a in _ground_atoms[key]]), max_size=20))
    head_atoms = [a for key in _NR_HEADS for a in _ground_atoms[key]]

    def labelled():
        xs = draw(st.lists(st.sampled_from(head_atoms), min_size=1, max_size=8,
                           unique=True))
        n_pos = draw(st.integers(1, len(xs)))
        return xs[:n_pos], xs[n_pos:]

    task = _task(facts, *labelled())
    pos2, neg2 = labelled()
    programs = draw(st.lists(
        st.lists(_factorised_rules(), min_size=1, max_size=3).map(Program),
        min_size=2, max_size=4))
    return task, tuple(pos2), tuple(neg2), programs


_DISTINCT_PROGRAMS = ("g(A,B):- p(A),q(B).", "g(A,B):- p(B),q(A).",
                      "g(A,B):- e(B,B),p(A).", "f(A):- e(A,a).", "f(A):- e(A,b).")


def _shared_case(facts, pos, neg, pos2, neg2, *programs):
    task, _ = _case(facts, pos, neg, "")
    second, _ = _case("", pos2, neg2, "")
    return task, second.pos, second.neg, [parse_program(p) for p in programs]


class TestFactorisedCoverage:
    """Coverage of non-recursive programs through the task's component
    index: programs run one after another on one task, and on a second
    example set of it, so later ones read what earlier ones stored."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_shared_cases())
    # components that differ only by which head argument they read, or
    # only by a constant; p(A) is shared by the first and third programs
    @example(_shared_case("p(a) q(b) e(a,a) e(b,b)", "g(a,b) f(a)", "g(b,a) f(b)",
                          "f(b) g(b,b)", "f(c) g(a,a)", *_DISTINCT_PROGRAMS))
    def test_matches_naive_oracle(self, case):
        task, pos2, neg2, programs = case
        second = Task(task.bk_facts, pos2, neg2, task.bias)
        for program in programs:
            cov = coverage(program, task)
            assert (cov.pos_bits, cov.neg_bits) == naive_coverage_bits(program, task)
            cov = coverage_of_examples(program, task, pos2, neg2)
            assert (cov.pos_bits, cov.neg_bits) == naive_coverage_bits(program, second)
        maps = vars(task)["_component_index"]
        assert len(maps) == (1 if (pos2, neg2) == (task.pos, task.neg) else 2)

    def test_distinct_components_get_distinct_entries(self):
        task, _, _, programs = _shared_case(
            "p(a) q(b) e(a,a) e(b,b)", "g(a,b) f(a)", "g(b,a) f(b)", "f(b)", "",
            *_DISTINCT_PROGRAMS)
        bits = [coverage(p, task) for p in programs]
        assert [(c.pos_bits, c.neg_bits) for c in bits] == [
            (0b01, 0b00), (0b00, 0b01), (0b01, 0b00), (0b10, 0b00), (0b00, 0b10)]
        # p(A), q(B), p(B), q(A), e(B,B), e(A,a) and e(A,b)
        [(_, _, index)] = vars(task)["_component_index"]
        assert len(index) == 7


class TestConfusion:
    def test_all_set(self):
        task = make_task(
            bk=[], pos=[("f", "a"), ("f", "b")], neg=[("f", "c")],
            head_preds={("f", 1)}, body_preds={("g", 1)},
        )
        conf = confusion(Coverage(0b11, 0b1, 2, 1), task)
        assert conf.fn == 0 and conf.tn == 0

    def test_all_clear(self):
        task = make_task(
            bk=[], pos=[("f", "a")], neg=[("f", "c")],
            head_preds={("f", 1)}, body_preds={("g", 1)},
        )
        conf = confusion(Coverage(0, 0, 1, 1), task)
        assert conf.tp == 0 and conf.fp == 0

    def test_length_mismatch(self):
        task = make_task(
            bk=[], pos=[("f", "a")], neg=[],
            head_preds={("f", 1)}, body_preds={("g", 1)},
        )
        with pytest.raises(LengthMismatchError):
            confusion(Coverage(0, 0, 4, 0), task)


def test_bitstring_round_trip():
    for s in ("", "0", "1", "1100", "0101101"):
        assert bits_to_string(string_to_bits(s), len(s)) == s


def test_closure_of_long_chain_is_quick():
    # 60-node chain: 1770 derived path atoms through the recursive rule
    import time

    n = 60
    facts = frozenset(
        atom("edge", f"n{i}", f"n{i+1}") for i in range(n - 1)
    )
    p = parse_program(
        "path(X,Y):- edge(X,Y).\npath(X,Y):- edge(X,Z),path(Z,Y)."
    )
    started = time.perf_counter()
    model = least_model(p, facts)
    elapsed = time.perf_counter() - started
    assert sum(1 for a in model if a.predicate == "path") == n * (n - 1) // 2
    assert elapsed < 5.0
