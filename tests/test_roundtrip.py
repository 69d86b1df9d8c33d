"""Property tests: random tasks and programs, rendered to text, parse back
equal; with one bad token injected, they fail where that token starts.

A term is its name, so the tests draw digit-led and lowercase-led constants
and uppercase-led variables (up to `V26`-style canonical names), which pins
`is_var` and the constants-before-variables order that rule ids rest on.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from lexicost.errors import ArityMismatchError, ParseError, UnknownBiasDirectiveError
from lexicost.kb import (
    Atom,
    Bias,
    Program,
    Rule,
    Task,
    parse_bias,
    parse_examples,
    parse_facts,
    parse_program,
    parse_task,
    render_program,
)

LOWER = "abcdefghijklmnopqrstuvwxyz"
UPPER = LOWER.upper()
DIGITS = "0123456789"


def _names(first: str, rest: str) -> st.SearchStrategy[str]:
    return st.builds(str.__add__, st.sampled_from(first), st.text(rest, max_size=3))


PRED = _names(LOWER, LOWER + DIGITS + "_")
CONST = _names(LOWER + DIGITS, LOWER + UPPER + DIGITS + "_")
VAR = _names(UPPER, LOWER + UPPER + DIGITS + "_")


def _atoms(preds: list[str], arity: dict[str, int], term) -> st.SearchStrategy[Atom]:
    return st.sampled_from(preds).flatmap(
        lambda p: st.lists(term, min_size=arity[p], max_size=arity[p]).map(
            lambda args: Atom(p, tuple(args))
        )
    )


@st.composite
def tasks(draw) -> tuple[Task, list[tuple[Atom, bool]]]:
    """A task, and its labelled examples in file order (labels interleave)."""
    names = draw(st.lists(PRED, min_size=2, max_size=6, unique=True))
    n_head = draw(st.integers(1, len(names) - 1))
    head, body = names[:n_head], names[n_head:]
    # a head predicate has an argument; a body predicate may have none
    arity = {n: draw(st.integers(int(n in head), 3)) for n in names}
    facts = draw(st.lists(_atoms(body, arity, CONST), max_size=8))
    examples = draw(st.lists(_atoms(head, arity, CONST), min_size=1, max_size=8,
                             unique=True))
    labels = draw(st.lists(st.booleans(), min_size=len(examples),
                           max_size=len(examples)))
    labels[0] = True
    bias = Bias(
        head_preds=frozenset((n, arity[n]) for n in head),
        body_preds=frozenset((n, arity[n]) for n in body),
        max_vars=draw(st.integers(1, 6)),
        max_body=draw(st.integers(1, 6)),
        max_clauses=draw(st.integers(1, 4)),
        enable_recursion=draw(st.booleans()),
    )
    return Task(
        bk_facts=frozenset(facts),
        pos=tuple(a for a, lab in zip(examples, labels) if lab),
        neg=tuple(a for a, lab in zip(examples, labels) if not lab),
        bias=bias,
    ), list(zip(examples, labels))


def render_bias(b: Bias) -> str:
    lines = [f"head_pred({p},{n})." for p, n in sorted(b.head_preds)]
    lines += [f"body_pred({p},{n})." for p, n in sorted(b.body_preds)]
    lines += [f"max_vars({b.max_vars}).", f"max_body({b.max_body}).",
              f"max_clauses({b.max_clauses})."]
    if b.enable_recursion:
        lines.append("enable_recursion.")
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(tasks())
def test_rendered_task_parses_back_equal(drawn):
    task, labelled = drawn
    assert parse_task(*render_task(task, labelled)) == task


def render_task(task: Task, labelled: list[tuple[Atom, bool]]) -> tuple[str, str, str]:
    bk = "".join(f"{a}.\n" for a in task.bk_facts)
    exs = "".join(f"{'pos' if lab else 'neg'}({a}).\n" for a, lab in labelled)
    return bk, exs, render_bias(task.bias)


@st.composite
def rules(draw) -> Rule:
    # head variables are named by first occurrence, so many of them reach
    # the `V26` names cheaply; body-only ones are few, since canonicalising
    # searches their permutations
    head_vars = draw(st.lists(VAR, max_size=30, unique=True))
    body_vars = draw(st.lists(VAR.filter(lambda v: v not in head_vars),
                              max_size=3, unique=True))
    constants = draw(st.lists(CONST, max_size=3))
    head_args = draw(st.permutations(head_vars + constants))
    terms = st.sampled_from(head_vars + body_vars + constants + ["0"])
    preds = ["g", "h", "k"]
    arity = {"g": 1, "h": 2, "k": 3}
    body = draw(st.lists(_atoms(preds, arity, terms), min_size=1, max_size=4))
    return Rule(Atom("f", tuple(head_args)), body)


@settings(max_examples=200, deadline=None)
@given(st.lists(rules(), max_size=3))
def test_rendered_program_parses_back_equal(rs):
    p = Program(rs)
    text = render_program(p)
    assert parse_program(text) == p
    assert render_program(parse_program(text)) == text


# Rendered texts hold no whitespace but newlines and the space after ':-'.
_TOKEN = re.compile(r"[A-Za-z0-9_]+|:-|\S")


def _injections(text: str, term_depth: int, kinds: set[str]):
    """(kind, bad text, offset where its faulty token starts) for one bad
    token put at each place of a valid rendered text.  Terms sit at paren
    depth `term_depth`; an atom's predicate one level above.  An "arity"
    injection gives one more term to an atom whose predicate occurs earlier,
    and a "directive" one renames a bias directive to `max_var`."""
    tokens, depth, seen = [], 0, set()
    for m in _TOKEN.finditer(text):
        depth -= m[0] == ")"
        tokens.append((m[0], m.start(), depth))
        depth += m[0] == "("
    for i, (tok, at, d) in enumerate(tokens):
        end = at + len(tok)
        after = tokens[i + 1][1] - len(tok) if i + 1 < len(tokens) else len(text) - len(tok)
        is_name = tok[0].isalnum()
        if is_name and d == term_depth:
            if "term" in kinds:
                yield "term", text[:at] + "_x" + text[end:], at
            if "integer" in kinds and tokens[i + 1][0] == ")":
                yield "integer", text[:at] + "x" + text[end:], at
            if "ground" in kinds:
                atom_at = max(a for t, a, dd in tokens[:i] if dd == d - 1 and t[0].isalnum())
                yield "ground", text[:at] + "X" + text[end:], atom_at
        if is_name and d == term_depth - 1 and "predicate" in kinds:
            yield "predicate", text[:at] + "Q" + text[end:], at
        if is_name and d == term_depth - 1 and "arity" in kinds:
            if tok in seen and tokens[i + 1][0] == "(":
                yield "arity", text[:end + 1] + "z," + text[end + 1:], at
            elif tok in seen:
                yield "arity", text[:end] + "(z)" + text[end:], at
            seen.add(tok)
        if is_name and d == term_depth - 1 and "directive" in kinds:
            yield "directive", text[:at] + "max_var" + text[end:], at
        if tok == "." or (tok == ")" and tokens[i + 1][0] == "."):
            yield f"missing {tok}", text[:at] + text[end:], after


def _position(text: str, offset: int) -> tuple[int, int]:
    before = text[:offset].split("\n")
    return len(before), len(before[-1]) + 1


@settings(max_examples=100, deadline=None)
@given(tasks(), st.lists(rules(), min_size=1, max_size=3))
def test_parse_error_points_at_the_injected_token(drawn, rs):
    bk, exs, bias = render_task(*drawn)
    common = {"term", "missing .", "missing )"}
    files = [
        (parse_facts, bk, 1, common | {"predicate", "ground", "arity"}),
        (parse_examples, exs, 2, common | {"predicate", "ground", "arity"}),
        (parse_bias, bias, 1, common | {"integer", "directive"}),
        (parse_program, render_program(Program(rs)), 1, common | {"predicate"}),
    ]
    # the two input errors that are not ParseErrors keep their own classes
    errors = {"arity": ArityMismatchError, "directive": UnknownBiasDirectiveError}
    for parse, text, term_depth, kinds in files:
        for kind, bad, offset in _injections(text, term_depth, kinds):
            with pytest.raises(errors.get(kind, ParseError)) as caught:
                parse(bad)
            got = (caught.value.line, caught.value.col)
            assert got == _position(bad, offset), (parse.__name__, kind, bad)
            assert str(caught.value).startswith("line {}, col {}: ".format(*got))
