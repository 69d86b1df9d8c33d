"""Evaluation metrics and the study statistics pipeline.

Covers per-run metrics (accuracy, balanced accuracy, precision, recall, all
as percentages), per-domain aggregation with standard errors, Pearson
correlation, exact/approximate two-sided Wilcoxon signed-rank tests, and the
rank table over a cost-function x domain matrix.  Re-exports the results-CSV
schema from `results`, which `analyze_results` reads.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from .errors import (
    DegenerateInputError,
    EmptyConfusionError,
    EmptyInputError,
    IncompleteMatrixError,
    TooFewPairsError,
)
from .evaluator import Confusion
from .record import Frozen, init_field
from .results import (  # noqa: F401  (re-exported)
    CSV_COLUMNS,
    STATUS_OK,
    ResultRow,
    _cell,
    read_results_csv,
    write_results_csv,
)

PRECISION_UNDEFINED = "precision_undefined"
BALANCED_DEGENERATE = "balanced_degenerate"

METRIC_NAMES = ("accuracy", "balanced_accuracy", "precision", "recall")


class MetricReport(Frozen):
    __slots__ = ("accuracy", "balanced_accuracy", "precision", "recall", "flags")

    def __init__(self, accuracy: float, balanced_accuracy: float, precision: float,
                 recall: float, flags: frozenset[str] = frozenset()):
        init_field(self, "accuracy", accuracy)
        init_field(self, "balanced_accuracy", balanced_accuracy)
        init_field(self, "precision", precision)
        init_field(self, "recall", recall)
        init_field(self, "flags", flags)


def metrics(conf: Confusion) -> MetricReport:
    """Percentage metrics with documented degenerate-denominator conventions.

    Precision over zero predicted positives is reported as 0 with a flag.
    Balanced accuracy with an absent class degrades to the present class's
    rate, flagged.  Recall over zero actual positives is reported as 0 (the
    balanced flag fires in the same situation).
    """
    total = conf.tp + conf.fp + conf.tn + conf.fn
    if total == 0:
        raise EmptyConfusionError("all confusion counts are zero")
    flags = set()
    accuracy = 100.0 * (conf.tp + conf.tn) / total

    pos_total = conf.tp + conf.fn
    neg_total = conf.tn + conf.fp
    if pos_total and neg_total:
        balanced = 50.0 * (conf.tp / pos_total + conf.tn / neg_total)
    else:
        flags.add(BALANCED_DEGENERATE)
        present = conf.tp / pos_total if pos_total else conf.tn / neg_total
        balanced = 100.0 * present

    if conf.tp + conf.fp:
        precision = 100.0 * conf.tp / (conf.tp + conf.fp)
    else:
        precision = 0.0
        flags.add(PRECISION_UNDEFINED)

    recall = 100.0 * conf.tp / pos_total if pos_total else 0.0
    return MetricReport(accuracy, balanced, precision, recall, frozenset(flags))


class DomainAggregate(Frozen):
    # in the order of the keys of a `per_domain` cell of `analyze_results`
    __slots__ = ("mean", "stderr", "n_tasks")

    def __init__(self, mean: Mapping[str, float], stderr: Mapping[str, float], n_tasks: int):
        init_field(self, "mean", mean)
        init_field(self, "stderr", stderr)
        init_field(self, "n_tasks", n_tasks)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _stderr(values: Sequence[float]) -> float:
    n = len(values)
    if n < 2:
        return 0.0
    m = _mean(values)
    sd = math.sqrt(sum((v - m) ** 2 for v in values) / (n - 1))
    return sd / math.sqrt(n)


def aggregate_domain(reports: Sequence[MetricReport], domain: str) -> DomainAggregate:
    """Arithmetic mean and sample standard error per metric over one domain."""
    if not reports:
        raise EmptyInputError(f"no reports for domain {domain!r}")
    columns = {m: [getattr(r, m) for r in reports] for m in METRIC_NAMES}
    return DomainAggregate({m: _mean(v) for m, v in columns.items()},
                           {m: _stderr(v) for m, v in columns.items()}, len(reports))


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient."""
    if len(xs) != len(ys):
        raise DegenerateInputError("paired sequences differ in length")
    n = len(xs)
    if n < 2:
        raise DegenerateInputError("need at least two pairs")
    mx, my = _mean(xs), _mean(ys)
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    if vx == 0.0 or vy == 0.0:
        raise DegenerateInputError("zero variance")
    return cov / math.sqrt(vx * vy)


MIN_WILCOXON_PAIRS = 5
EXACT_WILCOXON_LIMIT = 25


def _signed_ranks(diffs: Sequence[float]) -> tuple[list[float], float]:
    """Average ranks of |d| (ties shared) and the positive-rank sum W+."""
    order = sorted(range(len(diffs)), key=lambda i: abs(diffs[i]))
    ranks = [0.0] * len(diffs)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and abs(diffs[order[j + 1]]) == abs(diffs[order[i]]):
            j += 1
        avg = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    w_plus = sum(r for r, d in zip(ranks, diffs) if d > 0)
    return ranks, w_plus


def _exact_p(ranks: Sequence[float], w_plus: float) -> float:
    """Exact two-sided p via the signed-rank sum distribution.

    Works on doubled ranks so that averaged tied ranks stay integral; counts
    the number of sign assignments for each achievable W+ by polynomial
    multiplication.  The distribution is symmetric about T/2, so the
    two-sided p is twice the smaller tail.
    """
    doubled = [round(2 * r) for r in ranks]
    total = sum(doubled)
    counts = [0] * (total + 1)
    counts[0] = 1
    for r in doubled:
        for s in range(total - r, -1, -1):
            if counts[s]:
                counts[s + r] += counts[s]
    w2 = round(2 * w_plus)
    w_min = min(w2, total - w2)
    tail = sum(counts[: w_min + 1])
    p = 2.0 * tail / (1 << len(ranks))
    return min(p, 1.0)


def _approx_p(ranks: Sequence[float], w_plus: float) -> float:
    """Normal approximation with tie correction (no continuity correction)."""
    n = len(ranks)
    mu = n * (n + 1) / 4.0
    tie_term = 0.0
    seen: dict[float, int] = {}
    for r in ranks:
        seen[r] = seen.get(r, 0) + 1
    for count in seen.values():
        if count > 1:
            tie_term += count**3 - count
    var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term / 48.0
    if var <= 0:
        return 1.0
    z = (w_plus - mu) / math.sqrt(var)
    return math.erfc(abs(z) / math.sqrt(2.0))


def wilcoxon_signed_rank(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Two-sided paired Wilcoxon signed-rank p-value.

    Zero differences are dropped; tied |differences| share averaged ranks.
    The exact distribution is enumerated for up to 25 informative pairs,
    beyond which a tie-corrected normal approximation is used.
    """
    if len(xs) != len(ys):
        raise TooFewPairsError("paired sequences differ in length")
    diffs = [x - y for x, y in zip(xs, ys) if x != y]
    if len(diffs) < MIN_WILCOXON_PAIRS:
        raise TooFewPairsError(
            f"only {len(diffs)} nonzero differences; need at least "
            f"{MIN_WILCOXON_PAIRS}"
        )
    ranks, w_plus = _signed_ranks(diffs)
    if len(diffs) <= EXACT_WILCOXON_LIMIT:
        return _exact_p(ranks, w_plus)
    return _approx_p(ranks, w_plus)


def rank_table(
    per_domain_means: Mapping[str, Sequence[float]]
) -> dict[str, tuple[int, int, int]]:
    """Counts of rank-1/2/3 finishes per cost function across domains.

    Within a domain, every function tied at the best value (rounded to six
    decimals) gets rank 1, the next distinct value rank 2, then rank 3.
    """
    if not per_domain_means:
        raise IncompleteMatrixError("empty matrix")
    lengths = {len(v) for v in per_domain_means.values()}
    if len(lengths) != 1 or 0 in lengths:
        raise IncompleteMatrixError("ragged or empty matrix rows")
    n_domains = lengths.pop()
    for fn, row in per_domain_means.items():
        for v in row:
            if v is None or (isinstance(v, float) and math.isnan(v)):
                raise IncompleteMatrixError(f"missing value for {fn!r}")
    counts = {fn: [0, 0, 0] for fn in per_domain_means}
    for d in range(n_domains):
        vals = {fn: round(row[d], 6) for fn, row in per_domain_means.items()}
        distinct = sorted(set(vals.values()), reverse=True)
        for fn, v in vals.items():
            place = distinct.index(v)
            if place < 3:
                counts[fn][place] += 1
    return {fn: tuple(c) for fn, c in counts.items()}


# ---------------------------------------------------------------------------
# The analyze pipeline
# ---------------------------------------------------------------------------


def _task_report(rows: list[ResultRow]) -> MetricReport:
    """Repeat-averaged metrics for one (domain, task, cost_fn) group."""
    reports = [
        metrics(Confusion(r.tp, r.fp, r.tn, r.fn)) for r in rows
    ]
    return MetricReport(
        **{m: _mean([getattr(r, m) for r in reports]) for m in METRIC_NAMES},
        flags=frozenset().union(*(r.flags for r in reports)),
    )


def _or_none(stat, error: type[Exception], xs: Sequence[float],
             ys: Sequence[float]) -> float | None:
    """`stat(xs, ys)`, or None where the statistic raises its own `error`."""
    try:
        return stat(xs, ys)
    except error:
        return None


def analyze_results(rows: Sequence[ResultRow]) -> dict:
    """Full study pipeline over a results table.

    Tasks where no run under any cost function learned a non-empty hypothesis
    are excluded.  Repeats are averaged per task, tasks aggregated per domain,
    and the cross-domain statistics (overall means, rank table, Pearson
    matrix, pairwise Wilcoxon) are computed over per-domain accuracy means.
    """
    cost_fns = sorted({r.cost_fn for r in rows})
    tasks: dict[tuple[str, str], list[ResultRow]] = {}
    for r in rows:
        tasks.setdefault((r.domain, r.task), []).append(r)

    excluded = []
    reports: dict[str, dict[str, list[MetricReport]]] = {fn: {} for fn in cost_fns}
    for (domain, task), trs in sorted(tasks.items()):
        if not any(r.status == STATUS_OK and r.size > 0 for r in trs):
            excluded.append(f"{domain}/{task}")
            continue
        ok: dict[str, list[ResultRow]] = {}
        for r in trs:
            if r.status == STATUS_OK:
                ok.setdefault(r.cost_fn, []).append(r)
        for fn, fn_rows in ok.items():
            reports[fn].setdefault(domain, []).append(_task_report(fn_rows))
    aggregates = {fn: {d: aggregate_domain(rs, d) for d, rs in by_domain.items()}
                  for fn, by_domain in reports.items()}

    # cross-domain statistics need a complete (cost_fn x domain) matrix
    complete = [d for d in sorted({r.domain for r in rows})
                if all(d in aggregates[fn] for fn in cost_fns)]
    acc = {fn: [aggregates[fn][d].mean["accuracy"] for d in complete] for fn in cost_fns}
    ranks = rank_table(acc) if complete else dict.fromkeys(cost_fns, (0, 0, 0))
    return {
        "cost_fns": cost_fns,
        "domains": complete,
        "excluded_tasks": excluded,
        "per_domain": {fn: {d: agg._asdict() for d, agg in aggregates[fn].items()}
                       for fn in cost_fns},
        "overall_accuracy_mean": {fn: _mean(acc[fn]) if complete else None
                                  for fn in cost_fns},
        "rank_table": {fn: list(v) for fn, v in ranks.items()},
        "pearson_accuracy": {
            f1: {f2: _or_none(pearson, DegenerateInputError, acc[f1], acc[f2])
                 for f2 in cost_fns}
            for f1 in cost_fns
        },
        "wilcoxon_accuracy_p": {
            f"{f1}|{f2}": _or_none(wilcoxon_signed_rank, TooFewPairsError,
                                   acc[f1], acc[f2])
            for i, f1 in enumerate(cost_fns) for f2 in cost_fns[i + 1:]
        },
    }
