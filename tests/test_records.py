"""The record types: value equality by type and fields, read-only fields,
kept caches outside equality, pickling, and an import that loads no
`dataclasses`."""

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from lexicost.analytics import DomainAggregate, MetricReport, ResultRow
from lexicost.cli import SuiteConfig
from lexicost.combiner import CombineProblem, CombineSolution, PromisingEntry
from lexicost.cost import NAMED_SPECS, CostSpec, LinearComponent
from lexicost.engine import LearnOptions, LearnResult, LearnStats, learn
from lexicost.evaluator import Confusion, Coverage, fact_store
from lexicost.generator import Constraint, rule_table
from lexicost.kb import Atom, Bias, Program, Rule, Task, atom, parse_rule
from conftest import equal_bias, equal_task

SRC = Path(__file__).resolve().parent.parent / "src"

RULE = parse_rule("f(A):- g(A).")
BIAS = Bias(frozenset({("f", 1)}), frozenset({("g", 1)}), 1, 1, 1)
CONF = Confusion(1, 0, 1, 0)
ENTRY = PromisingEntry(0, 1, 0, 2)
SPEC = NAMED_SPECS["error"]


# (type, the fields of a record, the same with one field changed); a type
# whose records are mutable, or hold a dict, is unhashable
RECORDS = [
    (Atom, ("f", ("A",)), ("f", ("B",))),
    (Rule, (RULE.head, RULE.body), (RULE.head, ())),
    (Program, ((RULE,),), ((),)),
    (Bias, (BIAS.head_preds, BIAS.body_preds, 1, 1, 1, False),
     (BIAS.head_preds, BIAS.body_preds, 1, 1, 1, True)),
    (Task, (frozenset({atom("g", "a")}), (atom("f", "a"),), (), BIAS),
     (frozenset({atom("g", "a")}), (atom("f", "a"),), (atom("f", "b"),), BIAS)),
    (Coverage, (1, 0, 1, 1), (1, 1, 1, 1)),
    (Confusion, (1, 0, 1, 0), (1, 1, 1, 0)),
    (LinearComponent, (1, 1, 0), (1, 0, 0)),
    (CostSpec, ("error", (LinearComponent(1, 1, 0),)), ("e", (LinearComponent(1, 1, 0),))),
    (PromisingEntry, (0, 1, 0, 2), (0, 1, 0, 3)),
    (CombineProblem, ((ENTRY,), 1, 1, SPEC, None), ((ENTRY,), 1, 1, SPEC, 2)),
    (CombineSolution, ((0,), (0,), CONF, 2), ((0,), (0,), CONF, 3)),
    (Constraint, (Program([RULE]),), (Program(),)),
    (LearnOptions, (SPEC, None, None), (SPEC, 3, None)),
    (LearnStats, (1, 1, 0, 0, "exhausted"), (1, 1, 0, 0, "zero-cost")),
    (LearnResult, (Program(), (2,), CONF, LearnStats(), "optimal", None, ()),
     (Program(), (2,), CONF, LearnStats(), "cap-exhausted", None, ())),
    (MetricReport, (100.0, 100.0, 100.0, 100.0, frozenset()),
     (100.0, 100.0, 100.0, 100.0, frozenset({"precision_undefined"}))),
    (DomainAggregate, ({"accuracy": 1.0}, {"accuracy": 0.0}, 1),
     ({"accuracy": 1.0}, {"accuracy": 0.0}, 2)),
    (ResultRow, ("d", "t", 1, "error", 1, 0, 1, 0, 2, "[0]", 0, "ok"),
     ("d", "t", 2, "error", 1, 0, 1, 0, 2, "[0]", 0, "ok")),
    (SuiteConfig, (SRC, ("error",), 1, None, 0, Path("r.csv"), False, 1),
     (SRC, ("error", "mdl"), 1, None, 0, Path("r.csv"), False, 1)),
]
MUTABLE = (LearnOptions, LearnStats, LearnResult)
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, fields, changed", RECORDS, ids=IDS)
def test_value_semantics(cls, fields, changed):
    a, b, c = cls(*fields), cls(*fields), cls(*changed)
    assert a == b and not a != b
    assert a != c and not a == c
    assert a != fields and a != tuple(getattr(a, n) for n in cls._fields)
    assert all(a != other(*other_fields) for other, other_fields, _ in RECORDS
               if other is not cls)
    if cls in MUTABLE or cls is DomainAggregate:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert pickle.loads(pickle.dumps(a)) == a


def test_same_values_of_two_types_differ():
    assert Coverage(1, 0, 1, 1) != Confusion(1, 0, 1, 1)
    assert Confusion(1, 0, 1, 1) != (1, 0, 1, 1)
    assert len({Coverage(1, 0, 1, 1), Confusion(1, 0, 1, 1), (1, 0, 1, 1)}) == 3


@pytest.mark.parametrize("cls, fields", [r[:2] for r in RECORDS if r[0] not in MUTABLE],
                         ids=[i for i, r in zip(IDS, RECORDS) if r[0] not in MUTABLE])
def test_frozen_fields_refuse_assignment(cls, fields):
    a = cls(*fields)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == cls(*fields)


def test_mutable_records_take_assignment():
    stats = LearnStats()
    stats.generated += 1
    assert stats == LearnStats(generated=1)


def test_kept_caches_are_no_fields():
    t = Task(frozenset({atom("g", "a")}), (atom("f", "a"),), (), BIAS)
    b = equal_bias(BIAS)
    learn(t, LearnOptions(SPEC))
    fact_store(t)
    rule_table(b, 2)
    assert "_fact_store" in t.__dict__ and "_rule_table" in b.__dict__
    fresh = equal_task(t)
    assert fresh == t and hash(fresh) == hash(t) and not fresh.__dict__
    assert b == BIAS and hash(b) == hash(BIAS)
    copied = pickle.loads(pickle.dumps(t))
    assert copied == t and not copied.__dict__


def test_repr_names_the_fields():
    assert repr(Confusion(1, 0, 1, 0)) == "Confusion(tp=1, fp=0, tn=1, fn=0)"
    assert repr(atom("e", "a")) == "Atom(predicate='e', args=('a',))"


def test_import_loads_no_dataclasses():
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import lexicost, lexicost.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
