"""Independent checker for one benchmark round.

Nothing here imports `lexicost`.  Hypotheses arrive as rule text and are
evaluated with a naive bottom-up fixpoint over the generated facts; the seven
cost functions are restated from the paper.  For every (task, cost function)
row the checker requires:

- status `ok` and proof `optimal`;
- the hypothesis lies inside the task's bias;
- its recomputed training confusion equals the one `learn` reported, and its
  recomputed held-out confusion equals the CSV row;
- its size equals the CSV size, and the cost vector equals the cost computed
  from the recomputed training confusion, both as `learn` reported it and in
  the CSV;
- the cost is at most the planted program's cost (the planted program lies
  inside the bias, so an optimal learner can never do worse);
- the cost is at most the cost, under the same cost function, of the
  hypothesis every other cost function returned for the task (all seven
  search one space, so each optimum beats the others' choices).

It also recomputes the analysis's per-domain accuracy means.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass

COST_FUNCTIONS = {
    "error": (("fp", "fn"),),
    "errorsize": (("fp", "fn"), ("size",)),
    "fnfp": (("fn",), ("fp",)),
    "fnfpsize": (("fn",), ("fp",), ("size",)),
    "fpfn": (("fp",), ("fn",)),
    "fpfnsize": (("fp",), ("fn",), ("size",)),
    "mdl": (("fp", "fn", "size"),),
}

_ATOM = re.compile(r"\s*([a-z0-9_][A-Za-z0-9_]*)\(([^()]*)\)\s*")


def parse_rule(text: str) -> tuple[tuple, list[tuple]]:
    """`h(A,B):- b1(A,C),b2(C,B).` -> (head, [body atoms]); atoms are tuples."""
    head_text, _, body_text = text.strip().rstrip(".").partition(":-")

    def atoms(s: str) -> list[tuple]:
        out, pos = [], 0
        while pos < len(s):
            m = _ATOM.match(s, pos)
            if not m:
                raise ValueError(f"cannot parse rule {text!r}")
            out.append((m.group(1), *(a.strip() for a in m.group(2).split(","))))
            pos = m.end()
            if pos < len(s) and s[pos] == ",":
                pos += 1
        return out

    (head,) = atoms(head_text)
    return head, atoms(body_text)


def _is_var(term: str) -> bool:
    return term[0].isupper()


def least_model(rules: list[tuple[tuple, list[tuple]]], facts) -> set[tuple]:
    """Naive bottom-up fixpoint: apply every rule to the whole model until
    nothing new is derived."""
    model = set(facts)
    while True:
        by_pred: dict[str, list[tuple]] = {}
        for a in model:
            by_pred.setdefault(a[0], []).append(a)
        new = set()
        for head, body in rules:
            for env in _solutions(body, by_pred, {}):
                new.add((head[0], *(env[t] if _is_var(t) else t for t in head[1:])))
        if new <= model:
            return model
        model |= new


def _solutions(body, by_pred, env):
    if not body:
        yield env
        return
    first, rest = body[0], body[1:]
    for fact in by_pred.get(first[0], ()):
        if len(fact) != len(first):
            continue
        ext = dict(env)
        for t, v in zip(first[1:], fact[1:]):
            if not _is_var(t):
                if t != v:
                    break
            elif ext.setdefault(t, v) != v:
                break
        else:
            yield from _solutions(rest, by_pred, ext)


def confusion(model: set[tuple], pos, neg) -> tuple[int, int, int, int]:
    tp = sum(a in model for a in pos)
    fp = sum(a in model for a in neg)
    return tp, fp, len(neg) - fp, len(pos) - tp


def cost(name: str, conf: tuple[int, int, int, int], size: int) -> tuple[int, ...]:
    tp, fp, tn, fn = conf
    terms = {"fp": fp, "fn": fn, "size": size}
    return tuple(sum(terms[t] for t in level) for level in COST_FUNCTIONS[name])


def program_size(rules) -> int:
    return sum(1 + len(body) for _, body in rules)


def _in_bias(task, rules) -> str | None:
    heads = set(task.head_preds)
    allowed = set(task.body_preds) | (heads if task.recursion else set())
    if len(rules) > task.max_clauses:
        return f"{len(rules)} rules > max_clauses {task.max_clauses}"
    for head, body in rules:
        if (head[0], len(head) - 1) not in heads:
            return f"head {head[0]} is not a head predicate"
        if len(body) > task.max_body:
            return f"body of {len(body)} literals > max_body {task.max_body}"
        variables = {t for a in (head, *body) for t in a[1:]}
        if not all(_is_var(t) for t in variables) or len(variables) > task.max_vars:
            return f"rule uses {sorted(variables)} (max_vars {task.max_vars})"
        if any((a[0], len(a) - 1) not in allowed for a in body):
            return "body predicate outside the bias"
    return None


@dataclass
class Learned:
    """What `learn` returned for one (task, cost function) job."""

    hypothesis: list[str]
    cost: list[int]
    train: list[int]  # tp, fp, tn, fn
    proof: str


def read_csv(text: str) -> dict[tuple[str, str], dict]:
    rows = list(csv.DictReader(io.StringIO(text)))
    return {(r["task"], r["cost_fn"]): r for r in rows}


def check_round(workload: str, tasks, csv_text: str, learned: dict, analysis: dict) -> list[str]:
    """All violations found in one round's outputs; empty when correct.

    `learned` maps (task name, cost function) to a `Learned`.
    """
    errors: list[str] = []
    rows = read_csv(csv_text)
    expected = {(t.name, c) for t in tasks for c in COST_FUNCTIONS}
    if set(rows) != expected:
        errors.append(f"CSV rows {sorted(rows)} != expected {sorted(expected)}")
        return errors
    if set(learned) != expected:
        errors.append(f"learn calls {sorted(learned)} != expected {sorted(expected)}")
        return errors

    accuracy: dict[str, list[float]] = {c: [] for c in COST_FUNCTIONS}
    for t in tasks:
        facts = [tuple(f) for f in t.facts]
        pos, neg = [tuple(a) for a in t.pos], [tuple(a) for a in t.neg]
        test_pos, test_neg = [tuple(a) for a in t.test_pos], [tuple(a) for a in t.test_neg]

        def evaluate(rule_texts):
            rules = [parse_rule(r) for r in rule_texts]
            model = least_model(rules, facts)
            return rules, confusion(model, pos, neg), confusion(model, test_pos, test_neg)

        planted_rules, planted_train, _ = evaluate(t.planted)
        if (err := _in_bias(t, planted_rules)) is not None:
            errors.append(f"{t.name}: planted program outside the bias: {err}")
        by_text: dict[tuple[str, ...], tuple] = {}
        evaluated = {}
        for c in COST_FUNCTIONS:
            key = tuple(learned[t.name, c].hypothesis)
            if key not in by_text:
                by_text[key] = evaluate(key)
            evaluated[c] = by_text[key]
        # the analysis drops tasks on which every cost function learned nothing
        analysed = any(evaluated[c][0] for c in COST_FUNCTIONS)

        for c in COST_FUNCTIONS:
            where = f"{workload}/{t.name}/{c}"
            row, got = rows[t.name, c], learned[t.name, c]
            rules, train, test = evaluated[c]
            size = program_size(rules)
            want = cost(c, train, size)
            if row["status"] != "ok":
                errors.append(f"{where}: status {row['status']}")
                continue
            if got.proof != "optimal":
                errors.append(f"{where}: proof {got.proof!r}")
            if (err := _in_bias(t, rules)) is not None:
                errors.append(f"{where}: hypothesis outside the bias: {err}")
            if tuple(got.train) != train:
                errors.append(f"{where}: reported training confusion {got.train} != recomputed {list(train)}")
            csv_test = tuple(int(row[k]) for k in ("tp", "fp", "tn", "fn"))
            if csv_test != test:
                errors.append(f"{where}: CSV held-out confusion {list(csv_test)} != recomputed {list(test)}")
            if int(row["size"]) != size:
                errors.append(f"{where}: CSV size {row['size']} != {size}")
            if tuple(got.cost) != want:
                errors.append(f"{where}: reported cost {got.cost} != recomputed {list(want)}")
            if row["cost_vector"] != "[" + ",".join(map(str, want)) + "]":
                errors.append(f"{where}: CSV cost {row['cost_vector']} != recomputed {list(want)}")
            planted_cost = cost(c, planted_train, program_size(planted_rules))
            if want > planted_cost:
                errors.append(f"{where}: cost {list(want)} > planted program's {list(planted_cost)}")
            for other in COST_FUNCTIONS:
                o_rules, o_train, _ = evaluated[other]
                o_cost = cost(c, o_train, program_size(o_rules))
                if want > o_cost:
                    errors.append(f"{where}: cost {list(want)} > {list(o_cost)}, the cost of "
                                  f"the {other} hypothesis under {c}")
            if analysed:
                accuracy[c].append(100.0 * (test[0] + test[2]) / sum(test))

    for c, values in accuracy.items():
        if not values:
            continue
        per_domain = analysis.get("per_domain", {}).get(c, {}).get(workload)
        got = None if per_domain is None else per_domain["mean"]["accuracy"]
        want = sum(values) / len(values)
        if got is None or abs(got - want) > 1e-9:
            errors.append(f"{workload}/{c}: analysed accuracy mean {got} != {want}")
    return errors


def same_outputs(csv_a: str, csv_b: str) -> bool:
    """Two results CSVs agree on everything except the runtime column."""

    def strip(text):
        rows = list(csv.reader(io.StringIO(text)))
        col = rows[0].index("runtime_ms")
        return [r[:col] + r[col + 1:] for r in rows]

    return strip(csv_a) == strip(csv_b)

