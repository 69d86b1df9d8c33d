"""The results CSV that `bench` writes and `analyze` reads: one row per
(domain, task, repeat, cost function).  Kept apart from the statistics, so
that `learn` and `bench` load no more than they need."""

from __future__ import annotations

import csv
import io
from typing import Iterable, get_type_hints

from .errors import SchemaError
from .record import Frozen, init_field

STATUS_OK = "ok"


class ResultRow(Frozen):
    """One row of the results CSV: its fields, in order, are the columns, and
    each value is read back by the type its constructor declares."""

    __slots__ = ("domain", "task", "repeat", "cost_fn", "tp", "fp", "tn", "fn", "size",
                 "cost_vector", "runtime_ms", "status")

    def __init__(self, domain: str, task: str, repeat: int, cost_fn: str, tp: int = 0,
                 fp: int = 0, tn: int = 0, fn: int = 0, size: int = 0,
                 cost_vector: str = "", runtime_ms: int = 0, status: str = STATUS_OK):
        init_field(self, "domain", domain)
        init_field(self, "task", task)
        init_field(self, "repeat", repeat)
        init_field(self, "cost_fn", cost_fn)
        init_field(self, "tp", tp)
        init_field(self, "fp", fp)
        init_field(self, "tn", tn)
        init_field(self, "fn", fn)
        init_field(self, "size", size)
        init_field(self, "cost_vector", cost_vector)
        init_field(self, "runtime_ms", runtime_ms)
        init_field(self, "status", status)


CSV_COLUMNS = ResultRow._fields
_COLUMN_TYPES = get_type_hints(ResultRow.__init__)
# the one column that may be left blank; it then reads as 0
_BLANK_OK = "runtime_ms"


def _cell(column: str, text: str):
    if not text and column == _BLANK_OK:
        return 0
    return _COLUMN_TYPES[column](text)


def write_results_csv(rows: Iterable[ResultRow]) -> str:
    ordered = sorted(rows, key=lambda r: (r.domain, r.task, r.cost_fn, r.repeat))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in ordered:
        writer.writerow([getattr(r, c) for c in CSV_COLUMNS])
    return buf.getvalue()


def read_results_csv(text: str) -> list[ResultRow]:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("results CSV is empty") from None
    if tuple(header) != CSV_COLUMNS:
        raise SchemaError(
            f"unexpected CSV header {header!r}; expected {list(CSV_COLUMNS)}"
        )
    rows = []
    # the line of the row of each (domain, task, repeat, cost_fn)
    lines: dict[tuple, int] = {}
    for line_no, values in enumerate(reader, start=2):
        if not values:
            continue
        if len(values) != len(CSV_COLUMNS):
            raise SchemaError(f"row {line_no} has {len(values)} fields")
        try:
            row = ResultRow(*map(_cell, CSV_COLUMNS, values))
        except ValueError as exc:
            raise SchemaError(f"row {line_no}: {exc}") from None
        first = lines.setdefault((row.domain, row.task, row.repeat, row.cost_fn), line_no)
        if first != line_no:
            raise SchemaError(
                f"row {line_no} repeats the domain, task, repeat and cost_fn of row {first}"
            )
        rows.append(row)
    if not rows:
        raise SchemaError("results CSV contains no data rows")
    return rows
