"""`learn`'s outputs on the `conftest.py` fixtures against a stored copy.

`tests/data/learn_golden.json` holds, for every fixture under every named
cost function, the learned rules, the cost, the proof and the cost history.
It was written before the loop gained its stop at an all-zero cost, so it
checks that a speed-up leaves what is learned unchanged.  `stats` is left
out: how much work a run does is free to change.  Rewrite the file only for a
deliberate change of outputs:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import sys
from pathlib import Path

import pytest

from lexicost.cost import ALL_SPEC_NAMES, NAMED_SPECS
from lexicost.engine import LearnOptions, learn

GOLDEN = Path(__file__).parent / "data" / "learn_golden.json"
FIXTURES = ["trains_task", "path_task_full", "path_task_split",
            "clone_noise_task", "compression_task"]


def _task(value):
    # path_task_split is (task, held-out positives, held-out negatives)
    return value[0] if isinstance(value, tuple) else value


def record(task, name: str) -> dict:
    res = learn(task, LearnOptions(spec=NAMED_SPECS[name]))
    return {
        "best": [str(r) for r in res.best.rules],
        "cost": list(res.cost),
        "proof": res.proof,
        "cost_history": [list(c) for c in res.cost_history],
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("fixture", FIXTURES)
@pytest.mark.parametrize("name", ALL_SPEC_NAMES)
def test_learn_matches_golden(fixture, name, golden, request):
    task = _task(request.getfixturevalue(fixture))
    assert record(task, name) == golden[f"{fixture}/{name}"]


def test_golden_covers_every_pair(golden):
    assert sorted(golden) == sorted(
        f"{f}/{n}" for f in FIXTURES for n in ALL_SPEC_NAMES
    )


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent))
    import conftest

    out = {
        f"{f}/{n}": record(_task(getattr(conftest, f).__wrapped__()), n)
        for f in FIXTURES
        for n in ALL_SPEC_NAMES
    }
    lines = (f" {json.dumps(k)}: {json.dumps(out[k])}" for k in sorted(out))
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
