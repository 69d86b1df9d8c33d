"""Rule tables against stored copies.

`tests/data/rule_tables_golden.json` holds, for each bias below, the rule
strings of `rule_table(b, b.max_program_size).rules` in id order and the
table's `ends`.  A rule's id is its place in the whole walk of every
candidate, so a change to how rules are enumerated must leave both as they
are.  The biases are the three costbench workloads at seed 1, every
`demo/*/*/bias.txt` and the `TINY_BIASES` of `test_generator.py`.

Rewrite the file only for a deliberate change of outputs:

    PYTHONPATH=src python tests/test_rule_tables.py
"""

import dataclasses
import json
import random
from pathlib import Path

import pytest

from lexicost.generator import rule_table
from lexicost.kb import Atom, Bias, Rule, parse_bias
from oracles import brute_canonical, brute_subsumes

TESTS = Path(__file__).parent
GOLDEN = TESTS / "data" / "rule_tables_golden.json"
DEMO = TESTS.parent / "demo"

# costbench's closure, graph and noisy biases at seed 1, as `bias.txt` text
COSTBENCH_BIASES = {
    "costbench/closure": """head_pred(path,2).
body_pred(edge,2).
max_vars(3).
max_body(2).
max_clauses(2).
enable_recursion.
""",
    "costbench/graph": """head_pred(f,1).
body_pred(e,2).
body_pred(p,1).
body_pred(q,1).
max_vars(3).
max_body(3).
max_clauses(1).
""",
    "costbench/noisy": "head_pred(f,1).\n"
    + "".join(f"body_pred(p{i},1).\n" for i in range(9))
    + "max_vars(1).\nmax_body(2).\nmax_clauses(8).\n",
}


def biases() -> dict[str, Bias]:
    from test_generator import TINY_BIASES

    out = {name: parse_bias(text) for name, text in COSTBENCH_BIASES.items()}
    for path in sorted(DEMO.glob("*/*/bias.txt")):
        out[path.parent.relative_to(TESTS.parent).as_posix()] = parse_bias(path.read_text())
    for i, b in enumerate(TINY_BIASES):
        # an equal bias with its own table, so no earlier test's table is read
        out[f"tiny/{i}"] = dataclasses.replace(b)
    return out


def record(b: Bias) -> dict:
    table = rule_table(b, b.max_program_size)
    return {"rules": [str(r) for r in table.rules], "ends": table.ends}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


BIASES = biases()


@pytest.mark.parametrize("name", BIASES)
def test_rule_table_matches_golden(name, golden):
    assert record(BIASES[name]) == golden[name]


def test_golden_covers_every_bias(golden):
    assert sorted(golden) == sorted(BIASES)


@pytest.mark.parametrize("name", BIASES)
def test_rules_built_without_the_search_are_canonical(name):
    # the table's rules come from `Rule.canonical`: each equals, and hashes
    # as, the rule that `Rule` canonicalises, and has the least key over
    # every variable bijection
    for r in rule_table(BIASES[name], BIASES[name].max_program_size).rules:
        again = Rule(r.head, r.body)
        assert again == r and hash(again) == hash(r), str(r)
        key = (r.head.sort_key(), tuple(a.sort_key() for a in r.body))
        assert brute_canonical(r.head, r.body) == key, str(r)


@pytest.mark.parametrize("name", BIASES)
def test_theta_relation_matches_brute_force_on_every_pair(name):
    table = rule_table(BIASES[name], BIASES[name].max_program_size)
    for r1 in table.rules:
        sid = 1 << table.subsumer(r1)
        got = [table.subsumed_by(j, sid) for j in range(len(table.rules))]
        assert got == [brute_subsumes(r1, r2) for r2 in table.rules], str(r1)


def _random_anchor_rule(rng: random.Random, b: Bias) -> Rule:
    """A rule over the bias's predicates, and sometimes one outside it,
    whose terms may repeat in the head, be constants, or number more than
    `max_vars`."""
    preds = sorted(b.body_preds | b.head_preds) + [("k", 1)]
    terms = [f"V{i}" for i in range(b.max_vars + 2)] + ["a", "b"]
    hp, ha = rng.choice(sorted(b.head_preds) + [("k", 1)])
    head = Atom(hp, tuple(rng.choice(terms) for _ in range(ha)))
    body = [Atom(p, tuple(rng.choice(terms) for _ in range(n)))
            for p, n in rng.choices(preds, k=rng.randint(0, 3))]
    return Rule(head, body)


@pytest.mark.parametrize("name", BIASES)
def test_theta_relation_matches_brute_force_on_random_anchors(name):
    b = BIASES[name]
    table = rule_table(b, b.max_program_size)
    rng = random.Random(name)
    for _ in range(40):
        r1 = _random_anchor_rule(rng, b)
        sid = 1 << table.subsumer(r1)
        got = [table.subsumed_by(j, sid) for j in range(len(table.rules))]
        assert got == [brute_subsumes(r1, r2) for r2 in table.rules], str(r1)


if __name__ == "__main__":
    out = {name: record(b) for name, b in BIASES.items()}
    GOLDEN.write_text("{\n" + ",\n".join(
        f" {json.dumps(k)}: {json.dumps(out[k])}" for k in sorted(out)) + "\n}\n")
