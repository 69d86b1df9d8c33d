"""Logic-core representation: terms, atoms, rules, programs, tasks.

Everything here is immutable and hash-equal modulo variable renaming: a
Rule canonicalises itself at construction time (variables renamed A, B,
C, ... and body literals sorted), so structural equality of two Rule or
Program values coincides with equality up to renaming and literal order.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import (
    ArityMismatchError,
    BackgroundHeadPredicateError,
    InvalidBiasValueError,
    LexicostError,
    NoPositiveExamplesError,
    ParseError,
    UnknownBiasDirectiveError,
    UnknownPredicateError,
)

_IDENT = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_]*")


def variable_name(index: int) -> str:
    """Canonical variable name for position `index`: A..Z, then V26, V27, ..."""
    if index < 26:
        return chr(ord("A") + index)
    return f"V{index}"


def is_var(name: str) -> bool:
    """A term is its name: uppercase-led names are variables, the rest
    (lowercase- or digit-led) constants."""
    return name[0].isupper()


@dataclass(frozen=True, slots=True)
class Atom:
    predicate: str
    args: tuple[str, ...]

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def is_ground(self) -> bool:
        return not any(is_var(t) for t in self.args)

    def variables(self) -> Iterator[str]:
        return filter(is_var, self.args)

    def substitute(self, mapping: dict[str, str]) -> "Atom":
        return Atom(self.predicate, tuple(mapping.get(t, t) for t in self.args))

    def sort_key(self):
        # constants before variables, then by name: rule ids follow this order
        return (self.predicate, len(self.args), tuple((is_var(t), t) for t in self.args))

    def __str__(self) -> str:
        if not self.args:
            return self.predicate
        return f"{self.predicate}({','.join(self.args)})"


def atom(predicate: str, *names: str) -> Atom:
    """Convenience constructor: `atom("edge", "a", "X")`."""
    return Atom(predicate, names)


def _canonicalise(head: Atom, body: Iterable[Atom]) -> tuple[Atom, tuple[Atom, ...]]:
    """Rename variables to A,B,C,... and sort the body into the unique minimal form.

    Head variables are fixed by their first occurrence in the head.  The
    remaining (body-only) variables are assigned by exact search over all
    bijections, keeping the assignment whose sorted body is lexicographically
    smallest.  The search is factorial in the number of body-only variables,
    which is bounded by the bias's max_vars.
    """
    head_map: dict[str, str] = {}
    for v in head.variables():
        if v not in head_map:
            head_map[v] = variable_name(len(head_map))

    body_set = set(body)
    body_vars = sorted({v for a in body_set for v in a.variables() if v not in head_map})
    new_head = head.substitute(head_map)
    if not body_vars:
        return new_head, tuple(sorted((a.substitute(head_map) for a in body_set),
                                      key=Atom.sort_key))

    names = [variable_name(len(head_map) + i) for i in range(len(body_vars))]
    best = None
    for perm in itertools.permutations(names):
        mapping = dict(head_map)
        mapping.update(zip(body_vars, perm))
        cand = tuple(sorted((a.substitute(mapping) for a in body_set), key=Atom.sort_key))
        key = tuple(a.sort_key() for a in cand)
        if best is None or key < best[0]:
            best = (key, cand)
    return new_head, best[1]


@dataclass(frozen=True)
class Rule:
    """A definite clause; stored canonically (see module docstring)."""

    head: Atom
    body: tuple[Atom, ...]

    def __init__(self, head: Atom, body: Iterable[Atom]):
        head, body = _canonicalise(head, body)
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "body", body)

    @property
    def size(self) -> int:
        return 1 + len(self.body)

    @property
    def is_recursive(self) -> bool:
        hp = (self.head.predicate, self.head.arity)
        return any((a.predicate, a.arity) == hp for a in self.body)

    def variables(self) -> set[str]:
        vs = set(self.head.variables())
        for a in self.body:
            vs.update(a.variables())
        return vs

    def sort_key(self):
        return (self.size, self.head.sort_key(), tuple(a.sort_key() for a in self.body))

    def __str__(self) -> str:
        return f"{self.head}:- {','.join(str(a) for a in self.body)}."


@dataclass(frozen=True)
class Program:
    """A duplicate-free set of rules, ordered by (size, text)."""

    rules: tuple[Rule, ...] = ()

    def __init__(self, rules: Iterable[Rule] = ()):
        unique = sorted(set(rules), key=Rule.sort_key)
        object.__setattr__(self, "rules", tuple(unique))

    @property
    def size(self) -> int:
        return sum(r.size for r in self.rules)

    @property
    def is_empty(self) -> bool:
        return not self.rules

    @property
    def is_recursive(self) -> bool:
        """True when any rule body consumes a predicate some rule defines.

        This is deliberately wider than per-rule recursion: it is exactly the
        condition under which coverage of a rule union may exceed the union of
        the individual coverages, which is what the combine stage relies on.
        """
        heads = {(r.head.predicate, r.head.arity) for r in self.rules}
        return any(
            (a.predicate, a.arity) in heads for r in self.rules for a in r.body
        )


EMPTY_PROGRAM = Program()


def program_size(p: Program) -> int:
    """Number of literals in the program: sum over rules of 1 + body length."""
    return p.size


def render_program(p: Program) -> str:
    """Deterministic canonical text; empty program renders as the empty string."""
    return "\n".join(str(r) for r in p.rules)


@dataclass(frozen=True)
class Bias:
    head_preds: frozenset[tuple[str, int]]
    body_preds: frozenset[tuple[str, int]]
    max_vars: int
    max_body: int
    max_clauses: int
    enable_recursion: bool = False

    def __post_init__(self):
        if not self.head_preds:
            raise InvalidBiasValueError("at least one head_pred is required")
        for name, bound in (("max_vars", self.max_vars),
                            ("max_body", self.max_body),
                            ("max_clauses", self.max_clauses)):
            if bound < 1:
                raise InvalidBiasValueError(f"{name} must be >= 1, got {bound}")

    @property
    def max_program_size(self) -> int:
        return self.max_clauses * (1 + self.max_body)


@dataclass(frozen=True)
class Task:
    bk_facts: frozenset[Atom]
    pos: tuple[Atom, ...]
    neg: tuple[Atom, ...]
    bias: Bias

    def __post_init__(self):
        if not self.pos:
            raise NoPositiveExamplesError("a task needs at least one positive example")
        overlap = set(self.pos) & set(self.neg)
        if overlap:
            raise LexicostError(
                f"examples labelled both pos and neg: {sorted(str(a) for a in overlap)}"
            )
        for a in self.bk_facts:
            if not a.is_ground:
                raise ParseError(f"background fact is not ground: {a}", 0, 0)
            if (a.predicate, a.arity) in self.bias.head_preds:
                raise BackgroundHeadPredicateError(
                    f"background fact {a} uses head predicate "
                    f"{a.predicate}/{a.arity}"
                )
        for a in itertools.chain(self.pos, self.neg):
            validate_example(a, self.bias)


def validate_example(a: Atom, bias: Bias) -> None:
    if not a.is_ground:
        raise UnknownPredicateError(f"example atom is not ground: {a}")
    if (a.predicate, a.arity) in bias.head_preds:
        return
    if any(name == a.predicate for name, _ in bias.head_preds):
        raise ArityMismatchError(
            f"example {a} uses arity {a.arity}; declared head_pred arity differs"
        )
    raise UnknownPredicateError(f"example predicate {a.predicate!r} is not a head_pred")


# ---------------------------------------------------------------------------
# Parsing.  Three small grammars share one tokenizer: ground-fact files,
# example files (pos/neg wrappers) and bias directive files.  Lines starting
# with '%' are comments; whitespace is insignificant.
# ---------------------------------------------------------------------------


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.line, self.col)

    def _advance(self, n: int) -> None:
        for ch in self.text[self.pos:self.pos + n]:
            if ch == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
        self.pos += n

    def skip_ws(self) -> None:
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch == "%":
                end = self.text.find("\n", self.pos)
                self._advance((end if end != -1 else len(self.text)) - self.pos)
            elif ch.isspace():
                self._advance(1)
            else:
                return

    @property
    def eof(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def expect(self, literal: str) -> None:
        self.skip_ws()
        if not self.text.startswith(literal, self.pos):
            raise self.error(f"expected {literal!r}")
        self._advance(len(literal))

    def try_consume(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self._advance(len(literal))
            return True
        return False

    def ident(self) -> str:
        self.skip_ws()
        m = _IDENT.match(self.text, self.pos)
        if not m:
            raise self.error("expected an identifier")
        self._advance(m.end() - m.start())
        return m.group(0)

    def integer(self) -> int:
        name = self.ident()
        if not name.isdigit():
            raise self.error(f"expected an integer, got {name!r}")
        return int(name)


def _parse_atom(sc: _Scanner) -> Atom:
    name = sc.ident()
    if name[0].isupper():
        raise sc.error(f"predicate names must start lowercase: {name!r}")
    args: list[str] = []
    if sc.try_consume("("):
        if not sc.try_consume(")"):
            while True:
                arg = sc.ident()
                if arg[0] == "_":
                    raise sc.error(f"terms must not start with '_': {arg!r}")
                args.append(arg)
                if sc.try_consume(")"):
                    break
                sc.expect(",")
    return Atom(name, tuple(args))


def _check_arity(seen: dict[str, int], a: Atom) -> None:
    prev = seen.setdefault(a.predicate, a.arity)
    if prev != a.arity:
        raise ArityMismatchError(
            f"predicate {a.predicate!r} used with arities {prev} and {a.arity}"
        )


def parse_facts(text: str) -> frozenset[Atom]:
    """Parse a background-knowledge file: one ground fact per line."""
    sc = _Scanner(text)
    seen: dict[str, int] = {}
    facts = set()
    while not sc.eof:
        a = _parse_atom(sc)
        sc.expect(".")
        if not a.is_ground:
            raise sc.error(f"background fact must be ground: {a}")
        _check_arity(seen, a)
        facts.add(a)
    return frozenset(facts)


def parse_examples(text: str) -> tuple[tuple[Atom, ...], tuple[Atom, ...]]:
    """Parse an examples file of pos(atom). / neg(atom). lines."""
    sc = _Scanner(text)
    seen: dict[str, int] = {}
    pos: list[Atom] = []
    neg: list[Atom] = []
    while not sc.eof:
        label = sc.ident()
        if label not in ("pos", "neg"):
            raise sc.error(f"expected pos(...) or neg(...), got {label!r}")
        sc.expect("(")
        a = _parse_atom(sc)
        sc.expect(")")
        sc.expect(".")
        if not a.is_ground:
            raise sc.error(f"example must be ground: {a}")
        _check_arity(seen, a)
        (pos if label == "pos" else neg).append(a)
    return tuple(pos), tuple(neg)


_BIAS_PRED_DIRECTIVES = ("head_pred", "body_pred")
_BIAS_INT_DIRECTIVES = ("max_vars", "max_body", "max_clauses")


def parse_bias(text: str) -> Bias:
    """Parse a bias file of search-space directives."""
    sc = _Scanner(text)
    head_preds: set[tuple[str, int]] = set()
    body_preds: set[tuple[str, int]] = set()
    ints = {"max_vars": 3, "max_body": 3, "max_clauses": 1}
    recursion = False
    while not sc.eof:
        name = sc.ident()
        if name in _BIAS_PRED_DIRECTIVES:
            sc.expect("(")
            pred = sc.ident()
            sc.expect(",")
            arity = sc.integer()
            sc.expect(")")
            sc.expect(".")
            (head_preds if name == "head_pred" else body_preds).add((pred, arity))
        elif name in _BIAS_INT_DIRECTIVES:
            sc.expect("(")
            value = sc.integer()
            sc.expect(")")
            sc.expect(".")
            if value < 1:
                raise InvalidBiasValueError(f"{name} must be >= 1, got {value}")
            ints[name] = value
        elif name == "enable_recursion":
            sc.expect(".")
            recursion = True
        else:
            raise UnknownBiasDirectiveError(f"unknown bias directive {name!r}")
    if not head_preds:
        raise InvalidBiasValueError("bias declares no head_pred")
    return Bias(
        head_preds=frozenset(head_preds),
        body_preds=frozenset(body_preds),
        max_vars=ints["max_vars"],
        max_body=ints["max_body"],
        max_clauses=ints["max_clauses"],
        enable_recursion=recursion,
    )


def parse_task(bk_text: str, exs_text: str, bias_text: str) -> Task:
    """Parse the three task files into a validated Task."""
    bias = parse_bias(bias_text)
    facts = parse_facts(bk_text)
    pos, neg = parse_examples(exs_text)
    if not pos:
        raise NoPositiveExamplesError("examples file contains no pos(...) line")
    return Task(bk_facts=facts, pos=pos, neg=neg, bias=bias)


def _parse_rule(sc: _Scanner) -> Rule:
    head = _parse_atom(sc)
    body: list[Atom] = []
    if sc.try_consume(":-"):
        while True:
            body.append(_parse_atom(sc))
            if not sc.try_consume(","):
                break
    sc.expect(".")
    return Rule(head, body)


def parse_rule(text: str) -> Rule:
    """Parse one rule of the canonical `head:- b1,b2.` form."""
    sc = _Scanner(text)
    rule = _parse_rule(sc)
    if not sc.eof:
        raise sc.error("trailing input after rule")
    return rule


def parse_program(text: str) -> Program:
    """Parse a newline-separated list of rules; inverse of render_program."""
    sc = _Scanner(text)
    rules = []
    while not sc.eof:
        rules.append(_parse_rule(sc))
    return Program(rules)
