"""Command-line front end: learn one task, benchmark a suite, analyze results.

Exit codes are a stable API: 0 success, 2 usage or input error, 3 resource
limit.  JSON is the machine interface; metric values are printed with four
decimals.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from . import analytics
from .analytics import (
    METRIC_NAMES,
    ResultRow,
    analyze_results,
    read_results_csv,
    write_results_csv,
)
from .combiner import dump_problem
from .cost import parse_cost_spec
from .engine import LearnOptions, LearnResult, evaluate_on_test, learn
from .errors import LexicostError, ParseError, ResourceLimitError
from .evaluator import Confusion, fact_store, with_examples
from .generator import rule_table
from .kb import (
    Atom,
    Task,
    parse_bias,
    parse_examples,
    parse_facts,
    parse_task,
    render_program,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_RESOURCE = 3


def _round4(x: float) -> float:
    return round(x, 4)


def _metric_json(conf: Confusion) -> dict:
    rep = analytics.metrics(conf)
    return {**{m: _round4(getattr(rep, m)) for m in METRIC_NAMES},
            "flags": sorted(rep.flags), **asdict(conf)}


def _result_json(result: LearnResult, test_conf: Confusion | None) -> dict:
    out = {
        "hypothesis": [str(r) for r in result.best.rules],
        "cost": list(result.cost),
        "train": asdict(result.train_conf),
        "stats": asdict(result.stats),
        "proof": result.proof,
    }
    if test_conf is not None:
        out["test"] = _metric_json(test_conf)
    return out


def cmd_learn(args: argparse.Namespace) -> int:
    bk_text = Path(args.bk).read_text()
    exs_text = Path(args.exs).read_text()
    bias_text = Path(args.bias).read_text()
    test_text = Path(args.test_exs).read_text() if args.test_exs else None

    spec = parse_cost_spec(args.cost)
    task = parse_task(bk_text, exs_text, bias_text)
    options = LearnOptions(
        spec=spec,
        max_size=args.max_size,
        candidate_cap=args.candidate_cap,
    )
    result = learn(task, options)

    test_conf = None
    if test_text is not None:
        test_pos, test_neg = parse_examples(test_text)
        test_conf = evaluate_on_test(result, task, test_pos, test_neg)

    if args.dump_combine:
        text = dump_problem(result.final_problem) if result.final_problem else ""
        Path(args.dump_combine).write_text(text + ("\n" if text else ""))

    payload = _result_json(result, test_conf)
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        hyp = render_program(result.best) or "<empty hypothesis>"
        print(hyp)
        print(f"cost: {list(result.cost)}  proof: {result.proof}")
        print("train:", " ".join(f"{k}={v}" for k, v in payload["train"].items()))
        if test_conf is not None:
            rep = payload["test"]
            print(
                "test: accuracy={accuracy:.4f} balanced={balanced_accuracy:.4f} "
                "precision={precision:.4f} recall={recall:.4f}".format(**rep)
            )
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteConfig:
    root_dir: Path
    cost_fns: tuple[str, ...]
    repeats: int = 3
    split: float | None = None
    seed: int = 0
    output: Path = Path("results.csv")
    timing: bool = True
    workers: int = 1

    def __post_init__(self):
        if not self.root_dir.is_dir():
            raise LexicostError(f"bench root is not a directory: {self.root_dir}")
        if not self.output.parent.is_dir():
            raise LexicostError(f"bench output directory does not exist: {self.output.parent}")
        if self.repeats < 1:
            raise LexicostError("repeats must be >= 1")
        if self.split is not None and not (0.0 < self.split < 1.0):
            raise LexicostError("split must lie strictly between 0 and 1")


def discover_tasks(root: Path) -> list[tuple[str, str, Path]]:
    """(domain, task, dir) triples: every directory under root with bias.txt."""
    out = []
    for bias_file in sorted(root.rglob("bias.txt")):
        d = bias_file.parent
        rel = d.relative_to(root)
        parts = rel.parts
        if not parts:
            domain = task = root.name
        elif len(parts) == 1:
            domain = task = parts[0]
        else:
            domain, task = parts[0], "/".join(parts[1:])
        out.append((domain, task, d))
    return out


def _split_seed(seed: int, domain: str, task: str, repeat: int) -> int:
    import hashlib

    digest = hashlib.sha256(f"{seed}:{domain}/{task}:{repeat}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def stratified_split(
    pos: tuple[Atom, ...],
    neg: tuple[Atom, ...],
    fraction: float,
    rng: random.Random,
):
    """Deterministic train/test split preserving the pos/neg ratio.

    The training side always keeps at least one positive, and leaves at least
    one positive for testing whenever two or more exist.
    """

    def cut(items, lo):
        order = list(items)
        rng.shuffle(order)
        n_train = round(fraction * len(order))
        n_train = max(lo, min(n_train, len(order) - (1 if len(order) > lo else 0)))
        return tuple(order[:n_train]), tuple(order[n_train:])

    train_pos, test_pos = cut(pos, 1)
    train_neg, test_neg = cut(neg, 0) if neg else ((), ())
    return train_pos, train_neg, test_pos, test_neg


def _split_run(task: Task, fraction: float, seed: int) -> tuple[Task, tuple, tuple]:
    """(training task, held-out positives, held-out negatives) of one split."""
    train_pos, train_neg, test_pos, test_neg = stratified_split(
        task.pos, task.neg, fraction, random.Random(seed)
    )
    return with_examples(task, train_pos, train_neg), test_pos, test_neg


# statuses of failed rows, most specific first; the suite carries on
_FAILURES = (
    (OSError, "io_error"),
    (ResourceLimitError, "resource_limit"),
    (ParseError, "parse_error"),
    (LexicostError, "error"),
    # one job that exhausts the interpreter must not abort the suite
    (RecursionError, "crash"),
    (MemoryError, "crash"),
)
_CAUGHT = tuple(kind for kind, _ in _FAILURES)


def _status(exc: BaseException) -> str:
    return next(status for kind, status in _FAILURES if isinstance(exc, kind))


def _learned(row: ResultRow, task: Task, test_pos: tuple[Atom, ...],
             test_neg: tuple[Atom, ...], timing: bool) -> ResultRow:
    """`row` filled in by `learn` on the task under its cost function, timed
    alone."""
    spec = parse_cost_spec(row.cost_fn)
    started = time.perf_counter()
    result = learn(task, LearnOptions(spec=spec))
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    if test_pos or test_neg:
        conf = evaluate_on_test(result, task, test_pos, test_neg)
    else:
        conf = result.train_conf
    return replace(
        row,
        **asdict(conf),
        size=result.best.size,
        cost_vector="[" + ",".join(str(v) for v in result.cost) + "]",
        runtime_ms=elapsed_ms if timing else 0,
    )


def _bench_task(job: tuple[str, str, Path, SuiteConfig]) -> list[ResultRow]:
    """Every (repeat, cost function) row of one task directory.

    The files are read and parsed once, into one `Task` over all of the
    directory's examples, so a task that `Task` rejects fails every row, with
    or without a split.  The fact store and the bias's rules are built once,
    before the first `learn`, and every split's `Task` shares them.
    `runtime_ms` times the row's `learn` call.  The rows on one `Task` share
    its candidate walk: the first row pays for the walk up to where it
    stops, and a later row only for what it adds.  Repeats without a split
    share one `Task` and so one walk; each split repeat has its own.
    """
    domain, name, d, config = job
    repeats = range(1, config.repeats + 1)
    try:
        bk_text = (d / "bk.datalog").read_text()
        exs_text = (d / "exs.datalog").read_text()
        bias_text = (d / "bias.txt").read_text()
        test_path = d / "test_exs.datalog"
        test_text = test_path.read_text() if test_path.exists() else None
        pos, neg = parse_examples(exs_text)
        bias = parse_bias(bias_text)
        facts = parse_facts(bk_text)
        held_out = ((), ())
        if config.split is None and test_text is not None:
            held_out = parse_examples(test_text)
        # validated once, over every example, before any split
        task = Task(bk_facts=facts, pos=pos, neg=neg, bias=bias)
        fact_store(task)
        rule_table(bias, bias.max_program_size)
        if config.split is None:
            runs = [(task, *held_out)] * config.repeats
        else:
            runs = [_split_run(task, config.split, _split_seed(config.seed, domain, name, r))
                    for r in repeats]
    except _CAUGHT as exc:
        return [ResultRow(domain, name, r, c, status=_status(exc))
                for r in repeats for c in config.cost_fns]

    rows: list[ResultRow] = []
    for repeat, run in zip(repeats, runs):
        for cost_fn in config.cost_fns:
            row = ResultRow(domain, name, repeat, cost_fn)
            try:
                rows.append(_learned(row, *run, config.timing))
            except _CAUGHT as exc:
                rows.append(replace(row, status=_status(exc)))
    return rows


def run_bench(config: SuiteConfig) -> str:
    """Run every (task x cost_fn x repeat) and return the results CSV text.

    The serial loop and the worker pool both map `_bench_task` over tasks.
    """
    jobs = [(domain, task, d, config)
            for domain, task, d in discover_tasks(config.root_dir)]
    if config.workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(config.workers, len(jobs))) as pool:
            per_task = list(pool.map(_bench_task, jobs))
    else:
        per_task = map(_bench_task, jobs)
    return write_results_csv(row for rows in per_task for row in rows)


def _worker_count(requested: int | None) -> int:
    env = os.environ.get("LEXICOST_THREADS")
    try:
        cap = int(env) if env else None
    except ValueError:
        raise LexicostError(f"LEXICOST_THREADS is not an integer: {env!r}") from None
    workers = requested if requested is not None else (cap or 1)
    if cap is not None:
        workers = min(workers, cap)
    return max(workers, 1)


def cmd_bench(args: argparse.Namespace) -> int:
    config = SuiteConfig(
        root_dir=Path(args.root),
        cost_fns=tuple(c.strip() for c in args.costs.split(",") if c.strip()),
        repeats=args.repeats,
        split=args.split,
        seed=args.seed,
        output=Path(args.out),
        timing=not args.no_timing,
        workers=_worker_count(args.workers),
    )
    for name in config.cost_fns:
        parse_cost_spec(name)
    csv_text = run_bench(config)
    config.output.write_text(csv_text)
    print(f"wrote {config.output}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _analysis_tables(report: dict) -> list[tuple[str, list, list, int]]:
    """(file name, header, rows, decimals of each float) of every aggregate
    CSV that `analyze --out-dir` writes."""
    fns = report["cost_fns"]
    stats = ("mean", "stderr")
    per_domain = [
        [fn, domain, agg["n_tasks"], *(agg[s][m] for s in stats for m in METRIC_NAMES)]
        for fn in fns for domain, agg in sorted(report["per_domain"][fn].items())
    ]
    return [
        ("overall_means.csv", ["cost_fn", "accuracy_mean"],
         [[fn, report["overall_accuracy_mean"][fn]] for fn in fns], 4),
        ("rank_table.csv", ["cost_fn", "rank1", "rank2", "rank3"],
         [[fn, *report["rank_table"][fn]] for fn in fns], 4),
        ("pearson_accuracy.csv", ["cost_fn", *fns],
         [[f1, *(report["pearson_accuracy"][f1][f2] for f2 in fns)] for f1 in fns], 4),
        ("wilcoxon_p.csv", ["pair", "p_value"],
         sorted(report["wilcoxon_accuracy_p"].items()), 6),
        ("per_domain.csv", ["cost_fn", "domain", "n_tasks",
                            *(f"{m}_{s}" for s in stats for m in METRIC_NAMES)],
         per_domain, 4),
    ]


def _write_analysis_csvs(report: dict, out_dir: Path) -> None:
    def cell(v, decimals: int):
        if isinstance(v, float):
            return f"{v:.{decimals}f}"
        return "" if v is None else v

    out_dir.mkdir(parents=True, exist_ok=True)
    for file_name, header, rows, decimals in _analysis_tables(report):
        with open(out_dir / file_name, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            w.writerows([cell(v, decimals) for v in row] for row in rows)


def _round_floats(obj):
    if isinstance(obj, float):
        return _round4(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round_floats(v) for v in obj]
    return obj


def cmd_analyze(args: argparse.Namespace) -> int:
    rows = read_results_csv(Path(args.results).read_text())
    report = analyze_results(rows)
    if args.out_dir:
        _write_analysis_csvs(report, Path(args.out_dir))
    print(json.dumps(_round_floats(report), indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexicost",
        description="Learn optimal logic programs under lexicographic cost functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("learn", help="learn a hypothesis for one task")
    p.add_argument("--bk", required=True, help="background facts file")
    p.add_argument("--exs", required=True, help="training examples file")
    p.add_argument("--bias", required=True, help="bias directives file")
    p.add_argument("--cost", required=True,
                   help="cost function name or custom:fp+fn,size syntax")
    p.add_argument("--test-exs", help="held-out examples file")
    p.add_argument("--max-size", type=int, default=None)
    p.add_argument("--candidate-cap", type=int, default=None)
    p.add_argument("--dump-combine", metavar="PATH",
                   help="write the final combine problem to PATH")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("bench", help="run a task suite and write a results CSV")
    p.add_argument("--root", required=True, help="directory of task directories")
    p.add_argument("--costs", default=",".join(
        ("error", "errorsize", "fnfp", "fnfpsize", "fpfn", "fpfnsize", "mdl")))
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--split", type=float, default=None,
                   help="train fraction for a random stratified split")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="results.csv")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (capped by LEXICOST_THREADS)")
    p.add_argument("--no-timing", action="store_true",
                   help="write runtime_ms as 0 for byte-reproducible output")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("analyze", help="aggregate a results CSV")
    p.add_argument("results", help="results CSV produced by bench")
    p.add_argument("--out-dir", help="also write aggregate CSV files here")
    p.set_defaults(func=cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except RecursionError:
        print("resource limit: maximum recursion depth exceeded", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("resource limit: out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    # an unreadable input or an unwritable output is an input error too
    except (LexicostError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
