"""Benchmark of the cost-function study.

    python3 costbench/run.py --workload closure|graph|noisy --seed N \
        --seconds S --trace 0|1

Run from the root of a lexicost checkout.  Generates the workload's task
directories from the seed under costbench/out/, then runs rounds of the study
(every task under all seven cost functions through `run_bench`, then
`analyze_results`), each round in a fresh process (study.py), until S seconds
have passed.  Every round is checked by check.py; the first in full, the rest
by requiring the same outputs.

--trace 0 prints the end-to-end metrics: medians over rounds of the study's
wall time, the longest single `learn` call and the round's peak RSS, and the
median set-up time over several set-ups.  --trace 1 alternates untraced and
traced rounds and prints the per-layer metrics of the traced ones, plus the
tracing overhead.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 9
CHILD_TIMEOUT_S = 150


def hash_seed(seed: int, index: int) -> str:
    """PYTHONHASHSEED for child `index`: string hashing, and so the order in
    which the evaluator walks its sets, varies from round to round but is
    reproducible for a seed."""
    return str((seed * 1_000_003 + index) % 4_294_967_296)


def prepare(workload: str, seed: int) -> tuple[list, Path]:
    """Generate and write the workload; returns the tasks and the run dir."""
    tasks = workloads.make_tasks(workload, seed)
    run_dir = OUT / f"{workload}-seed{seed}"
    workloads.write_workload(run_dir / "suite", workload, tasks)
    return tasks, run_dir


def run_child(run_dir: Path, index: int, seed: int, *, setup_only: bool = False,
              traced: bool = False, timing: bool = True) -> dict:
    cmd = [sys.executable, str(HERE / "study.py"), "--suite", str(run_dir / "suite")]
    if setup_only:
        cmd.append("--setup-only")
    else:
        cmd += ["--out", str(run_dir / f"results-{index}.csv")]
    if traced:
        cmd += ["--spans", str(run_dir / f"spans-{index}.jsonl")]
    if not timing:
        cmd.append("--no-timing")
    env = {**os.environ, "PYTHONHASHSEED": hash_seed(seed, index)}
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"study.py exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def learned_of(round_out: dict) -> dict:
    return {(r["task"], r["cost_fn"]): check.Learned(r["hypothesis"], r["cost"], r["train"],
                                                      r["proof"])
            for r in round_out["learned"]}


def check_rounds(workload: str, tasks: list, rounds: list[dict]) -> list[str]:
    """Check the first round in full; every later one must give the same
    hypotheses, costs, proofs, CSV (but for run times) and analysis."""
    first = rounds[0]
    errors = check.check_round(workload, tasks, first["csv"], learned_of(first),
                               first["analysis"])
    for i, r in enumerate(rounds[1:], start=1):
        if learned_of(r) != learned_of(first):
            errors.append(f"round {i}: learn results differ from round 0")
        if not check.same_outputs(r["csv"], first["csv"]):
            errors.append(f"round {i}: results CSV differs from round 0")
        if r["analysis"] != first["analysis"]:
            errors.append(f"round {i}: analysis differs from round 0")
    return errors


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "lexicost" / "__init__.py").is_file():
        print(f"costbench: no lexicost sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tasks, run_dir = prepare(args.workload, args.seed)
    setups = [run_child(run_dir, i, args.seed, setup_only=True)["setup_s"]
              for i in range(SETUP_PROBES)]

    kinds = (False, True) if args.trace else (False,)
    rounds: dict[bool, list[dict]] = {False: [], True: []}
    index = SETUP_PROBES
    started = time.perf_counter()
    while True:
        for traced in kinds:
            rounds[traced].append(run_child(run_dir, index, args.seed, traced=traced))
            index += 1
        if time.perf_counter() - started >= args.seconds:
            break

    errors = []
    for traced in kinds:
        errors += check_rounds(args.workload, tasks, rounds[traced])
    if args.trace and not check.same_outputs(rounds[True][0]["csv"], rounds[False][0]["csv"]):
        errors.append("traced and untraced rounds wrote different results CSVs")
    for e in errors:
        print(f"costbench: {e}", file=sys.stderr)

    all_rounds = rounds[False] + rounds[True]
    rows = [row for r in all_rounds for row in check.read_csv(r["csv"]).values()]
    failed = sum(row["status"] != "ok" for row in rows)

    def median(key, which=rounds[False]):
        return statistics.median(r[key] for r in which)

    if args.trace:
        values = {name: statistics.median(r["layers"][name] for r in rounds[True])
                  for name in rounds[True][0]["layers"]}
        values["trace.overhead_s"] = median("suite_s", rounds[True]) - median("suite_s")
    else:
        values = {
            "setup_s": statistics.median(setups + [r["setup_s"] for r in rounds[False]]),
            "suite_s": median("suite_s"),
            "slowest_learn_s": median("slowest_learn_s"),
            "peak_rss_mb": median("peak_rss_mb"),
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    print(json.dumps({"correct": not errors, "attempted": len(rows), "failed": failed,
                      "metrics": metrics}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
