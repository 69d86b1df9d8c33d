import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from lexicost.kb import Bias, Task, atom


def make_task(bk, pos, neg, head_preds, body_preds, max_vars=3, max_body=2,
              max_clauses=1, enable_recursion=False):
    """Assemble a Task from (pred, *args) tuples."""
    return Task(
        bk_facts=frozenset(atom(*f) for f in bk),
        pos=tuple(atom(*a) for a in pos),
        neg=tuple(atom(*a) for a in neg),
        bias=Bias(
            head_preds=frozenset(head_preds),
            body_preds=frozenset(body_preds),
            max_vars=max_vars,
            max_body=max_body,
            max_clauses=max_clauses,
            enable_recursion=enable_recursion,
        ),
    )


def equal_bias(b: Bias) -> Bias:
    """A bias equal to `b` that carries nothing `kept` stored on `b`: its own
    rule table is made on first use."""
    return Bias(b.head_preds, b.body_preds, b.max_vars, b.max_body, b.max_clauses,
                b.enable_recursion)


def equal_task(t: Task) -> Task:
    """A task equal to `t`, on `t`'s bias, that carries nothing `kept` stored
    on `t`: its own fact store, component index and candidate walk."""
    return Task(t.bk_facts, t.pos, t.neg, t.bias)


# (head predicate, body predicates, bias keywords) of the planted-concept
# fuzz tasks
PLANTED_SHAPES = [
    (("f", 1), [("g", 1), ("h", 1), ("e", 2)],
     dict(max_vars=2, max_body=2, max_clauses=2)),
    (("f", 1), [("p", 1), ("q", 1), ("r", 1)],
     dict(max_vars=1, max_body=2, max_clauses=2)),
    (("f", 2), [("e", 2), ("g", 1)],
     dict(max_vars=3, max_body=2, max_clauses=1)),
    (("f", 1), [("g", 1), ("e", 2)],
     dict(max_vars=2, max_body=2, max_clauses=2, enable_recursion=True)),
]


@pytest.fixture
def trains_task():
    """Separable toy: eastbound trains are exactly those with a closed car."""
    bk = [
        ("has_car", "t1", "c1"), ("has_car", "t2", "c2"),
        ("has_car", "t3", "c3"), ("has_car", "t4", "c4"),
        ("closed", "c1"), ("closed", "c2"),
        ("long", "c3"), ("long", "c4"), ("long", "c1"),
    ]
    return make_task(
        bk,
        pos=[("east", "t1"), ("east", "t2")],
        neg=[("east", "t3"), ("east", "t4")],
        head_preds={("east", 1)},
        body_preds={("has_car", 2), ("closed", 1), ("long", 1)},
        max_vars=2,
        max_body=2,
        max_clauses=1,
    )


CHAIN = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")]
NODES = "abcde"


def _closure_pairs():
    out = []
    for i, x in enumerate(NODES):
        for y in NODES[i + 1:]:
            out.append((x, y))
    return out


@pytest.fixture
def path_task_full():
    """Transitive closure over a 5-node chain; all closure pairs as positives,
    all reversed pairs as negatives."""
    pairs = _closure_pairs()
    return make_task(
        bk=[("edge", x, y) for x, y in CHAIN],
        pos=[("path", x, y) for x, y in pairs],
        neg=[("path", y, x) for x, y in pairs],
        head_preds={("path", 2)},
        body_preds={("edge", 2)},
        max_vars=3,
        max_body=2,
        max_clauses=2,
        enable_recursion=True,
    )


@pytest.fixture
def path_task_split():
    """The same closure toy with a held-out test half (distance >= 2 pairs
    are mostly held out, so only a recursive hypothesis generalises)."""
    pairs = _closure_pairs()
    train = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "e"), ("b", "d")]
    test = [p for p in pairs if p not in train]
    task = make_task(
        bk=[("edge", x, y) for x, y in CHAIN],
        pos=[("path", x, y) for x, y in train],
        neg=[("path", y, x) for x, y in train],
        head_preds={("path", 2)},
        body_preds={("edge", 2)},
        max_vars=3,
        max_body=2,
        max_clauses=2,
        enable_recursion=True,
    )
    test_pos = tuple(atom("path", x, y) for x, y in test)
    test_neg = tuple(atom("path", y, x) for x, y in test)
    return task, test_pos, test_neg


@pytest.fixture
def clone_noise_task():
    """Every rule that covers a positive also covers its negative clone, so no
    expressible hypothesis reaches fp = 0 with tp > 0."""
    bk = []
    for i in range(1, 4):
        bk += [("p", f"x{i}"), ("p", f"y{i}"), ("q", f"x{i}"), ("q", f"y{i}")]
    return make_task(
        bk,
        pos=[("f", f"x{i}") for i in range(1, 4)],
        neg=[("f", f"y{i}") for i in range(1, 4)],
        head_preds={("f", 1)},
        body_preds={("p", 1), ("q", 1)},
        max_vars=2,
        max_body=2,
        max_clauses=2,
    )


@pytest.fixture
def compression_task():
    """Three positives whose only perfect rule has size 5; under MDL the empty
    hypothesis (cost 3) beats it, under Error it wins."""
    bk = []
    # positives satisfy all four properties; negatives each break one
    for i in range(1, 4):
        c = f"g{i}"
        bk += [("p1", c), ("p2", c), ("p3", c), ("p4", c)]
    spoil = [("p1",), ("p2",), ("p3",), ("p4",)]
    for i, missing in enumerate(spoil, start=1):
        c = f"b{i}"
        bk += [(p, c) for p in ("p1", "p2", "p3", "p4") if (p,) != missing]
    return make_task(
        bk,
        pos=[("f", f"g{i}") for i in range(1, 4)],
        neg=[("f", f"b{i}") for i in range(1, 5)],
        head_preds={("f", 1)},
        body_preds={("p1", 1), ("p2", 1), ("p3", 1), ("p4", 1)},
        max_vars=1,
        max_body=4,
        max_clauses=1,
    )


def write_task_dir(root: Path, domain: str, task: str, bk: str, exs: str,
                   bias: str, test_exs: str | None = None) -> Path:
    d = root / domain / task
    d.mkdir(parents=True)
    (d / "bk.datalog").write_text(bk)
    (d / "exs.datalog").write_text(exs)
    (d / "bias.txt").write_text(bias)
    if test_exs is not None:
        (d / "test_exs.datalog").write_text(test_exs)
    return d


TRAINS_BK = """\
has_car(t1,c1). has_car(t2,c2). has_car(t3,c3). has_car(t4,c4).
closed(c1). closed(c2).
long(c3). long(c4). long(c1).
"""

TRAINS_EXS = """\
pos(east(t1)). pos(east(t2)).
neg(east(t3)). neg(east(t4)).
"""

TRAINS_BIAS = """\
head_pred(east,1).
body_pred(has_car,2).
body_pred(closed,1).
body_pred(long,1).
max_vars(2).
max_body(2).
max_clauses(1).
"""
