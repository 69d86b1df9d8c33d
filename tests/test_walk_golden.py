"""The candidate walk's items against a stored copy.

`tests/data/walk_items_golden.json` maps each task below to the items its
`CandidateWalk` holds after `learn` has run under every named cost function,
in `NAMED_SPECS` order: per item, in walk order, the program string and the
positive and negative coverage bitstrings (null for an item drawn but not
yet tested).  It pins what the evaluator computes for every candidate.  The
tasks are the `conftest.py` fixtures, every `demo/*/*` task and the three
costbench workloads at seed 1, written out with `costbench/workloads.py`.

Rewrite the file only for a deliberate change of outputs:

    PYTHONPATH=src python tests/test_walk_golden.py
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest

import conftest
from lexicost.cost import NAMED_SPECS
from lexicost.engine import LearnOptions, candidate_walk, learn
from lexicost.evaluator import bits_to_string
from lexicost.kb import Task, parse_task

TESTS = Path(__file__).parent
REPO = TESTS.parent
GOLDEN = TESTS / "data" / "walk_items_golden.json"
FIXTURES = ("trains_task", "path_task_full", "path_task_split", "clone_noise_task",
            "compression_task")


def _read_dir(d: Path) -> Task:
    return parse_task(*((d / f).read_text() for f in ("bk.datalog", "exs.datalog",
                                                      "bias.txt")))


def _costbench_tasks() -> dict[str, Task]:
    sys.path.append(str(REPO / "costbench"))
    import workloads

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for w in workloads.WORKLOADS:
            root = workloads.write_workload(Path(tmp) / w, w, workloads.make_tasks(w, 1))
            for d in sorted(p.parent for p in root.rglob("bias.txt")):
                out[f"costbench/{d.relative_to(root).as_posix()}"] = _read_dir(d)
    return out


def tasks() -> dict[str, Task]:
    out = {}
    for name in FIXTURES:
        t = getattr(conftest, name).__wrapped__()
        out[f"conftest/{name}"] = t[0] if isinstance(t, tuple) else t
    for d in sorted(p.parent for p in (REPO / "demo").glob("*/*/bias.txt")):
        out[d.relative_to(REPO).as_posix()] = _read_dir(d)
    out.update(_costbench_tasks())
    return out


def record(t: Task) -> list:
    for spec in NAMED_SPECS.values():
        learn(t, LearnOptions(spec=spec))
    return [[str(h),
             None if cov is None else bits_to_string(cov.pos_bits, len(t.pos)),
             None if cov is None else bits_to_string(cov.neg_bits, len(t.neg))]
            for h, cov, _conf in candidate_walk(t).items]


TASKS = tasks()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", TASKS)
def test_walk_items_match_golden(name, golden):
    assert record(TASKS[name]) == golden[name]


def test_golden_covers_every_task(golden):
    assert sorted(golden) == sorted(TASKS)


if __name__ == "__main__":
    out = {name: record(t) for name, t in TASKS.items()}
    GOLDEN.write_text("{\n" + ",\n".join(
        f" {json.dumps(k)}: {json.dumps(out[k])}" for k in sorted(out)) + "\n}\n")
