"""One round of the study, in a fresh process.

    python3 costbench/study.py --suite DIR --out CSV [--setup-only] [--no-timing]
                               [--spans FILE]

Set-up: import lexicost from this checkout's `src/`, then read, parse and
validate every task under DIR into `Task` values.  Study: `run_bench` over
every task under all seven cost functions with one worker, write the results
CSV, read it back and analyse it.  With `--spans` the round is traced (see
tracing.py) and the spans are written to FILE.

Every `learn` call is captured, with its wall time, so that the checker can
recompute what it returned; this costs one extra Python call per job.

Prints one JSON object on its last line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layers(tracer, learned: list[dict], suite_s: float) -> dict[str, float]:
    inclusive, own = tracer.totals()
    calls = {}
    for name, *_ in tracer.spans:
        calls[name] = calls.get(name, 0) + 1
    counts = tracer.counts
    improvements = sum(r["improvements"] for r in learned)
    return {
        "kb.parse_s": inclusive.get("kb.parse", 0.0),
        "kb.parse_calls": calls.get("kb.parse", 0),
        "kb.facts": counts["kb.facts"],
        "generator.next_s": inclusive.get("generator.next", 0.0),
        "generator.enumerate_s": inclusive.get("generator.enumerate", 0.0),
        "generator.candidates": counts["generator.candidates"],
        "generator.anchors": counts["generator.anchors"],
        "generator.subsumption_checks": counts["generator.subsumption_checks"],
        "generator.checks_per_candidate": _ratio(counts["generator.subsumption_checks"],
                                                 counts["generator.candidates"]),
        "evaluator.coverage_s": inclusive.get("evaluator.coverage", 0.0),
        "evaluator.coverage_calls": calls.get("evaluator.coverage", 0),
        "evaluator.ms_per_coverage": 1000 * _ratio(inclusive.get("evaluator.coverage", 0.0),
                                                   calls.get("evaluator.coverage", 0)),
        "evaluator.test_s": inclusive.get("evaluator.test", 0.0),
        "combiner.solve_s": inclusive.get("combiner.solve", 0.0),
        "combiner.calls": calls.get("combiner.solve", 0),
        "combiner.ms_per_call": 1000 * _ratio(inclusive.get("combiner.solve", 0.0),
                                              calls.get("combiner.solve", 0)),
        "combiner.pool_max": tracer.pool_max,
        "combiner.calls_per_improvement": _ratio(calls.get("combiner.solve", 0), improvements),
        "engine.learn_s": inclusive.get("engine.learn", 0.0),
        "engine.self_s": own.get("engine.learn", 0.0),
        "engine.promising": sum(r["promising"] for r in learned),
        "engine.improvements": improvements,
        "cli.bench_s": inclusive.get("cli.bench", 0.0),
        "cli.self_s": own.get("cli.bench", 0.0),
        "analytics.analyze_s": inclusive.get("analytics.analyze", 0.0),
        "trace.suite_s": suite_s,
        "trace.glue_s": own.get("suite", 0.0),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--suite", required=True, type=Path)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--no-timing", action="store_true")
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import lexicost.cli as cli
    from lexicost.kb import parse_examples, parse_task

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"lexicost was imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    names = {}
    for bias_file in sorted(args.suite.rglob("bias.txt")):
        d = bias_file.parent
        task = parse_task((d / "bk.datalog").read_text(), (d / "exs.datalog").read_text(),
                          bias_file.read_text())
        parse_examples((d / "test_exs.datalog").read_text())
        names[frozenset(task.pos)] = d.name
    setup_s = time.perf_counter() - started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from lexicost.analytics import analyze_results, read_results_csv
    from lexicost.cost import ALL_SPEC_NAMES

    config = cli.SuiteConfig(root_dir=args.suite, cost_fns=ALL_SPEC_NAMES, repeats=1,
                             output=args.out, timing=not args.no_timing, workers=1)
    run_bench = cli.run_bench

    def analyze(csv_text):
        return analyze_results(read_results_csv(csv_text))

    tracer = None
    if args.spans:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        run_bench = tracer.wrap("cli.bench", run_bench)
        analyze = tracer.wrap("analytics.analyze", analyze)

    def study():
        csv_text = run_bench(config)
        config.output.write_text(csv_text)
        return csv_text, analyze(csv_text)

    if tracer:
        study = tracer.wrap("suite", study)

    learned: list[dict] = []
    real_learn = cli.learn

    def capture(task, options):
        t0 = time.perf_counter()
        result = real_learn(task, options)
        seconds = time.perf_counter() - t0
        c = result.train_conf
        learned.append({
            "task": names[frozenset(task.pos)],
            "cost_fn": options.spec.name,
            "hypothesis": [str(r) for r in result.best.rules],
            "cost": list(result.cost),
            "train": [c.tp, c.fp, c.tn, c.fn],
            "proof": result.proof,
            "seconds": seconds,
            "promising": result.stats.promising,
            "improvements": len(result.cost_history) - 1,
        })
        return result

    cli.learn = capture

    t1 = time.perf_counter()
    csv_text, analysis = study()
    suite_s = time.perf_counter() - t1

    out = {
        "setup_s": setup_s,
        "suite_s": suite_s,
        "slowest_learn_s": max(r["seconds"] for r in learned),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "csv": csv_text,
        "analysis": analysis,
        "learned": learned,
    }
    if tracer:
        out["layers"] = _layers(tracer, learned, suite_s)
        tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
