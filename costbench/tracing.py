"""Spans and counts recorded around lexicost's public entry points, from outside.

`install` replaces module attributes at the place where the caller looks them
up (for example `lexicost.engine.coverage`, which the learning loop calls) with
thin wrappers.  A span is `[name, start_ns, end_ns, parent_index]`, kept in
memory and written out by `write_spans` once the round ends.  The hottest
entry point, `program_subsumes`, is counted rather than spanned.

Layer names follow the module that owns the wrapped function:

| span / count                  | wrapped at                                   |
|-------------------------------|----------------------------------------------|
| kb.parse (+ kb.facts)         | lexicost.cli.parse_facts/_examples/_bias     |
| engine.learn                  | lexicost.cli.learn                           |
| evaluator.test                | lexicost.cli.evaluate_on_test                |
| generator.next                | CandidateGenerator.next_candidate            |
| generator.enumerate           | lexicost.generator.enumerate_rules           |
| generator.subsumption_checks  | lexicost.generator.program_subsumes (count)  |
| generator.anchors             | lexicost.engine.prune_specializations (count)|
| evaluator.coverage            | lexicost.engine.coverage                     |
| combiner.solve                | lexicost.engine.optimal_combination          |
| suite, cli.bench,             | wrapped by the caller in study.py            |
| analytics.analyze             |                                              |
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.pool_max = 0

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapped(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return wrapped

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Seconds per span name: (inclusive, self).  Self time is a span's
        duration minus the durations of its direct children."""
        inclusive: Counter = Counter()
        child: Counter = Counter()
        for name, start, end, parent in self.spans:
            inclusive[name] += end - start
        for idx, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
        own: Counter = Counter()
        for idx, (name, start, end, parent) in enumerate(self.spans):
            own[name] += end - start - child[idx]
        return ({k: v / 1e9 for k, v in inclusive.items()},
                {k: v / 1e9 for k, v in own.items()})

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap lexicost's entry points for the rest of this process."""
    from lexicost import cli, engine, generator

    def parse_facts(text):
        facts = real_parse_facts(text)
        tracer.counts["kb.facts"] += len(facts)
        return facts

    real_parse_facts = cli.parse_facts
    cli.parse_facts = tracer.wrap("kb.parse", parse_facts)
    cli.parse_examples = tracer.wrap("kb.parse", cli.parse_examples)
    cli.parse_bias = tracer.wrap("kb.parse", cli.parse_bias)
    cli.learn = tracer.wrap("engine.learn", cli.learn)
    cli.evaluate_on_test = tracer.wrap("evaluator.test", cli.evaluate_on_test)

    gen_cls = generator.CandidateGenerator
    real_next = gen_cls.next_candidate

    def next_candidate(self):
        p = real_next(self)
        if p is not None:
            tracer.counts["generator.candidates"] += 1
        return p

    gen_cls.next_candidate = tracer.wrap("generator.next", next_candidate)
    generator.enumerate_rules = tracer.wrap("generator.enumerate", generator.enumerate_rules)
    generator.program_subsumes = tracer.counted("generator.subsumption_checks",
                                                generator.program_subsumes)
    engine.prune_specializations = tracer.counted("generator.anchors",
                                                  engine.prune_specializations)
    engine.coverage = tracer.wrap("evaluator.coverage", engine.coverage)

    def optimal_combination(problem, **kwargs):
        tracer.pool_max = max(tracer.pool_max, len(problem.entries))
        return real_combine(problem, **kwargs)

    real_combine = engine.optimal_combination
    engine.optimal_combination = tracer.wrap("combiner.solve", optimal_combination)
