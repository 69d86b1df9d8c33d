"""`learn`'s outputs on the `conftest.py` fixtures against stored copies.

`tests/data/learn_golden.json` holds, for every fixture under every named
cost function, the learned rules, the cost, the proof and the cost history.
It was written before the loop gained its stop at an all-zero cost, so it
checks that a speed-up leaves what is learned unchanged.  `stats` is left
out: how much work an uncapped run does is free to change.

`tests/data/learn_capped_golden.json` holds the same for runs with
`max_size` 2 or 3 or with `candidate_cap` 5, plus `stats.generated` and
`stats.stop`: where a capped run ends is part of its output, so a change to
how the candidate walk finds a cap must leave both as they are.

Rewrite the files only for a deliberate change of outputs:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import sys
from pathlib import Path

import pytest

from lexicost.cost import ALL_SPEC_NAMES, NAMED_SPECS
from lexicost.engine import LearnOptions, learn

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "learn_golden.json"
CAPPED_GOLDEN = DATA / "learn_capped_golden.json"
FIXTURES = ["trains_task", "path_task_full", "path_task_split",
            "clone_noise_task", "compression_task"]
CAPS = {
    "max_size=2": {"max_size": 2},
    "max_size=3": {"max_size": 3},
    "candidate_cap=5": {"candidate_cap": 5},
}


def _task(value):
    # path_task_split is (task, held-out positives, held-out negatives)
    return value[0] if isinstance(value, tuple) else value


def record(task, name: str, **options) -> dict:
    """What a golden keeps of one run; a capped run adds where it ended."""
    res = learn(task, LearnOptions(spec=NAMED_SPECS[name], **options))
    out = {
        "best": [str(r) for r in res.best.rules],
        "cost": list(res.cost),
        "proof": res.proof,
        "cost_history": [list(c) for c in res.cost_history],
    }
    if options:
        out["generated"] = res.stats.generated
        out["stop"] = res.stats.stop
    return out


def _read(path: Path) -> dict:
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def golden():
    return _read(GOLDEN)


@pytest.fixture(scope="module")
def capped_golden():
    return _read(CAPPED_GOLDEN)


@pytest.mark.parametrize("fixture", FIXTURES)
@pytest.mark.parametrize("name", ALL_SPEC_NAMES)
def test_learn_matches_golden(fixture, name, golden, request):
    task = _task(request.getfixturevalue(fixture))
    assert record(task, name) == golden[f"{fixture}/{name}"]


@pytest.mark.parametrize("fixture", FIXTURES)
@pytest.mark.parametrize("name", ALL_SPEC_NAMES)
@pytest.mark.parametrize("cap", CAPS)
def test_capped_learn_matches_golden(fixture, name, cap, capped_golden, request):
    task = _task(request.getfixturevalue(fixture))
    assert record(task, name, **CAPS[cap]) == capped_golden[f"{fixture}/{name}/{cap}"]


def test_golden_covers_every_pair(golden, capped_golden):
    assert sorted(golden) == sorted(
        f"{f}/{n}" for f in FIXTURES for n in ALL_SPEC_NAMES
    )
    assert sorted(capped_golden) == sorted(
        f"{f}/{n}/{c}" for f in FIXTURES for n in ALL_SPEC_NAMES for c in CAPS
    )


def _write(path: Path, out: dict) -> None:
    lines = (f" {json.dumps(k)}: {json.dumps(out[k])}" for k in sorted(out))
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent))
    import conftest

    def fresh(fixture):
        return _task(getattr(conftest, fixture).__wrapped__())

    _write(GOLDEN, {
        f"{f}/{n}": record(fresh(f), n)
        for f in FIXTURES
        for n in ALL_SPEC_NAMES
    })
    _write(CAPPED_GOLDEN, {
        f"{f}/{n}/{c}": record(fresh(f), n, **CAPS[c])
        for f in FIXTURES
        for n in ALL_SPEC_NAMES
        for c in CAPS
    })
