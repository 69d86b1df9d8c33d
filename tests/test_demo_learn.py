"""`learn`'s whole stdout on the `demo/` tasks against a stored copy.

`tests/data/demo_learn.json` maps `<domain>/<task>/<cost>/<format>` to the
exact stdout of `learn --format <format>` on that task, with `--test-exs`
where the task has `test_exs.datalog`.  It pins every key, value and byte of
the JSON payload and of the text report.  Rewrite the file only for a
deliberate change of outputs:

    PYTHONPATH=src python tests/test_demo_learn.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from lexicost.cli import EXIT_OK, main

DEMO = Path(__file__).parent.parent / "demo"
GOLDEN = Path(__file__).parent / "data" / "demo_learn.json"
TASKS = sorted(str(p.parent.relative_to(DEMO)) for p in DEMO.rglob("bias.txt"))
COSTS = ("error", "mdl")
FORMATS = ("json", "text")


def learn_stdout(task: str, cost: str, fmt: str) -> str:
    d = DEMO / task
    argv = ["learn", "--bk", str(d / "bk.datalog"), "--exs", str(d / "exs.datalog"),
            "--bias", str(d / "bias.txt"), "--cost", cost, "--format", fmt]
    if (d / "test_exs.datalog").exists():
        argv += ["--test-exs", str(d / "test_exs.datalog")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == EXIT_OK
    return out.getvalue()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("cost", COSTS)
@pytest.mark.parametrize("task", TASKS)
def test_learn_stdout_matches_golden(task, cost, fmt, golden):
    assert learn_stdout(task, cost, fmt) == golden[f"{task}/{cost}/{fmt}"]


def test_golden_covers_every_run(golden):
    assert "reach/t1" in TASKS
    assert sorted(golden) == sorted(
        f"{t}/{c}/{f}" for t in TASKS for c in COSTS for f in FORMATS
    )


if __name__ == "__main__":
    out = {f"{t}/{c}/{f}": learn_stdout(t, c, f)
           for t in TASKS for c in COSTS for f in FORMATS}
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
