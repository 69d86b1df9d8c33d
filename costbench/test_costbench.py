"""Tests of the benchmark itself: python3 -m pytest costbench

They run real rounds (about a minute in all) and assert nothing about time.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_smallest_seed(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == 7 * len(workloads.make_tasks(workload, 0))
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_round_writes_the_same_csv(workload):
    tasks, run_dir = run.prepare(workload, 0)
    plain = run.run_child(run_dir, 0, 0, timing=False)
    traced = run.run_child(run_dir, 1, 0, traced=True, timing=False)
    assert ((run_dir / "results-0.csv").read_bytes()
            == (run_dir / "results-1.csv").read_bytes())
    assert run.check_rounds(workload, tasks, [plain, traced]) == []
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert set(traced["layers"]) == per_layer - {"trace.overhead_s"}


@pytest.fixture(scope="module")
def noisy_round():
    tasks, run_dir = run.prepare("noisy", 0)
    return tasks, run.run_child(run_dir, 0, 0, timing=False)


def _tamper_learned(field, change):
    def apply(out):
        out["learned"][0][field] = change(out["learned"][0][field])
    return apply


def _tamper_csv(column, change, row=1):
    def apply(out):
        rows = list(csv.reader(io.StringIO(out["csv"])))
        col = rows[0].index(column)
        rows[row][col] = change(rows[row][col])
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        out["csv"] = buf.getvalue()
    return apply


def _lower_csv_cost(text):
    values = text.strip("[]").split(",")
    values[0] = str(int(values[0]) - 1)
    return "[" + ",".join(values) + "]"


TAMPERINGS = {
    "reported cost lowered by one": _tamper_learned("cost", lambda c: [c[0] - 1] + c[1:]),
    "training coverage bit flipped": _tamper_learned(
        "train", lambda c: [c[0] - 1, c[1], c[2], c[3] + 1]),
    "proof not optimal": _tamper_learned("proof", lambda p: "cap-exhausted"),
    "hypothesis swapped for the empty program": _tamper_learned("hypothesis", lambda h: []),
    "CSV cost lowered by one": _tamper_csv("cost_vector", _lower_csv_cost),
    "CSV held-out coverage bit flipped": _tamper_csv("tp", lambda v: str(int(v) + 1)),
    "CSV size changed": _tamper_csv("size", lambda v: str(int(v) + 1)),
    "CSV status not ok": _tamper_csv("status", lambda v: "error"),
    "analysis mean changed": lambda out: out["analysis"]["per_domain"]["error"]["noisy"][
        "mean"].__setitem__("accuracy", 0.0),
}


def test_checker_accepts_the_untampered_round(noisy_round):
    tasks, out = noisy_round
    assert run.check_rounds("noisy", tasks, [out]) == []


@pytest.mark.parametrize("name", TAMPERINGS)
def test_checker_rejects_a_tampered_round(noisy_round, name):
    tasks, out = noisy_round
    bad = copy.deepcopy(out)
    TAMPERINGS[name](bad)
    assert run.check_rounds("noisy", tasks, [bad]) != []


def test_checker_rejects_a_round_that_differs_from_the_first(noisy_round):
    tasks, out = noisy_round
    later = copy.deepcopy(out)
    _tamper_learned("hypothesis", lambda h: h[:-1])(later)
    assert run.check_rounds("noisy", tasks, [out, later]) != []


def test_reference_fixpoint_closes_recursion():
    rules = [check.parse_rule("path(A,B):- edge(A,B)."),
             check.parse_rule("path(A,B):- edge(A,C),path(C,B).")]
    model = check.least_model(rules, [("edge", "a", "b"), ("edge", "b", "c"),
                                      ("edge", "c", "d")])
    assert {a for a in model if a[0] == "path"} == {
        ("path", x, y) for x, y in ("ab", "ac", "ad", "bc", "bd", "cd")}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_follow_the_seed(workload):
    assert workloads.make_tasks(workload, 3) == workloads.make_tasks(workload, 3)
    assert workloads.make_tasks(workload, 3) != workloads.make_tasks(workload, 4)
    for t in workloads.make_tasks(workload, 3):
        heads = {p for p, _ in t.head_preds}
        assert not any(f[0] in heads for f in t.facts)
