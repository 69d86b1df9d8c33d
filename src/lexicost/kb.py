"""Logic-core representation: terms, atoms, rules, programs, tasks.

Everything here is immutable and hash-equal modulo variable renaming: a
Rule canonicalises itself at construction time (variables renamed A, B,
C, ... and body literals sorted), so structural equality of two Rule or
Program values coincides with equality up to renaming and literal order.
`Rule.canonical` skips that search for a head and body already canonical.
"""

from __future__ import annotations

import itertools
import re
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

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
from .record import Frozen, init_field

def variable_name(index: int) -> str:
    """Canonical variable name for position `index`: A..Z, then V26, V27, ..."""
    if index < 26:
        return chr(ord("A") + index)
    return f"V{index}"


def is_var(name: str) -> bool:
    """A term is its name: uppercase-led names are variables, the rest
    (lowercase- or digit-led) constants."""
    return name[0].isupper()


class Atom(Frozen):
    __slots__ = ("predicate", "args")

    def __init__(self, predicate: str, args: tuple[str, ...]):
        init_field(self, "predicate", predicate)
        init_field(self, "args", args)

    def __eq__(self, other):
        if other.__class__ is not Atom:
            return NotImplemented
        return self.predicate == other.predicate and self.args == other.args

    def __hash__(self) -> int:
        return hash((self.predicate, self.args))

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
        # (key, atom) pairs: distinct atoms have distinct keys, so no two
        # atoms are compared
        cand = sorted((b.sort_key(), b) for b in (a.substitute(mapping) for a in body_set))
        if best is None or cand < best:
            best = cand
    return new_head, tuple(a for _, a in best)


class Rule(Frozen):
    """A definite clause; stored canonically (see module docstring)."""

    __slots__ = ("head", "body")

    def __init__(self, head: Atom, body: Iterable[Atom]):
        head, body = _canonicalise(head, body)
        init_field(self, "head", head)
        init_field(self, "body", body)

    @classmethod
    def canonical(cls, head: Atom, body: tuple[Atom, ...]) -> "Rule":
        """The rule of a canonical head and sorted body: no renaming search."""
        rule = object.__new__(cls)
        init_field(rule, "head", head)
        init_field(rule, "body", body)
        return rule

    def __eq__(self, other):
        if other.__class__ is not Rule:
            return NotImplemented
        return self.head == other.head and self.body == other.body

    def __hash__(self) -> int:
        return hash((self.head, self.body))

    @property
    def size(self) -> int:
        return 1 + len(self.body)

    def variables(self) -> set[str]:
        vs = set(self.head.variables())
        for a in self.body:
            vs.update(a.variables())
        return vs

    def sort_key(self):
        return (self.size, self.head.sort_key(), tuple(a.sort_key() for a in self.body))

    def __str__(self) -> str:
        return f"{self.head}:- {','.join(str(a) for a in self.body)}."


class Program(Frozen):
    """A duplicate-free set of rules, ordered by (size, text)."""

    __slots__ = ("rules",)

    def __init__(self, rules: Iterable[Rule] = ()):
        unique = sorted(set(rules), key=Rule.sort_key)
        init_field(self, "rules", tuple(unique))

    def __eq__(self, other):
        if other.__class__ is not Program:
            return NotImplemented
        return self.rules == other.rules

    def __hash__(self) -> int:
        return hash(self.rules)

    @property
    def size(self) -> int:
        return sum(r.size for r in self.rules)

    @property
    def is_empty(self) -> bool:
        return not self.rules

    @property
    def is_recursive(self) -> bool:
        """`non_separable` over the program's rules."""
        return non_separable(self.rules)


def non_separable(rules: Sequence[Rule]) -> bool:
    """True when some rule's body uses a predicate that one of `rules` defines.

    This is deliberately wider than per-rule recursion: it is exactly the
    condition under which coverage of a rule union may exceed the union of
    the individual coverages, which the combine stage relies on; the
    generator lists a union only when it holds, tested over predicate masks.
    """
    heads = {(r.head.predicate, r.head.arity) for r in rules}
    return any((a.predicate, a.arity) in heads for r in rules for a in r.body)


EMPTY_PROGRAM = Program()


def render_program(p: Program) -> str:
    """Deterministic canonical text; empty program renders as the empty string."""
    return "\n".join(str(r) for r in p.rules)


class Bias(Frozen):
    # the `__dict__` holds what `kept` stores: the rule table
    __slots__ = ("head_preds", "body_preds", "max_vars", "max_body", "max_clauses",
                 "enable_recursion", "__dict__")

    def __init__(self, head_preds: frozenset[tuple[str, int]],
                 body_preds: frozenset[tuple[str, int]], max_vars: int, max_body: int,
                 max_clauses: int, enable_recursion: bool = False):
        init_field(self, "head_preds", head_preds)
        init_field(self, "body_preds", body_preds)
        init_field(self, "max_vars", max_vars)
        init_field(self, "max_body", max_body)
        init_field(self, "max_clauses", max_clauses)
        init_field(self, "enable_recursion", enable_recursion)
        if not self.head_preds:
            raise InvalidBiasValueError("at least one head_pred is required")
        for name, arity in sorted(self.head_preds):
            if arity < 1:
                raise InvalidBiasValueError(
                    f"head_pred {name} must have arity >= 1, got {arity}"
                )
        for name, bound in (("max_vars", self.max_vars),
                            ("max_body", self.max_body),
                            ("max_clauses", self.max_clauses)):
            if bound < 1:
                raise InvalidBiasValueError(f"{name} must be >= 1, got {bound}")

    @property
    def max_program_size(self) -> int:
        return self.max_clauses * (1 + self.max_body)


class Task(Frozen):
    # the `__dict__` holds what `kept` stores: the fact store, the component
    # index and the candidate walk
    __slots__ = ("bk_facts", "pos", "neg", "bias", "__dict__")

    def __init__(self, bk_facts: frozenset[Atom], pos: tuple[Atom, ...],
                 neg: tuple[Atom, ...], bias: Bias):
        init_field(self, "bk_facts", bk_facts)
        init_field(self, "pos", pos)
        init_field(self, "neg", neg)
        init_field(self, "bias", bias)
        if not self.pos:
            raise NoPositiveExamplesError("a task needs at least one positive example")
        overlap = set(self.pos) & set(self.neg)
        if overlap:
            raise LexicostError(
                f"examples labelled both pos and neg: {sorted(str(a) for a in overlap)}"
            )
        for a in self.bk_facts:
            if not a.is_ground:
                raise ParseError(f"background fact is not ground: {a}")
            if (a.predicate, a.arity) in self.bias.head_preds:
                raise BackgroundHeadPredicateError(
                    f"background fact {a} uses head predicate "
                    f"{a.predicate}/{a.arity}"
                )
        for a in itertools.chain(self.pos, self.neg):
            validate_example(a, self.bias)


_T = TypeVar("_T")


def kept(obj, name: str, make: Callable[[], _T]) -> _T:
    """`obj`'s attribute `name`, made by `make()` on the first call and kept
    for every later call in the `__dict__` of `obj` (a `Task` or a `Bias`).
    Records refuse assignment to their fields, not this; what is kept is no
    field, so equality, hashing and copies ignore it."""
    if name not in obj.__dict__:
        init_field(obj, name, make())
    return obj.__dict__[name]


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
# Parsing.  One tokenizer and one atom grammar read every file: background
# facts and bias directives are lists of `name(args).` atoms, examples wrap
# each atom in pos(...) or neg(...), and rules add `:- body`.  '%' starts a
# comment that runs to the end of its line; whitespace is insignificant.
# ---------------------------------------------------------------------------

_NAME = re.compile(r"[A-Za-z0-9_]+")
# a name, ':-', a comment (skipped) or one mark; whitespace lies between
_TOKEN = re.compile(rf"{_NAME.pattern}|:-|%[^\n]*|\S")


class _Tokens:
    """A lazy token stream: `tok` is the current token ('' past the end) and
    `at` the offset where it starts."""

    def __init__(self, text: str):
        self.text = text
        self._matches = (m for m in _TOKEN.finditer(text) if m[0][0] != "%")
        self._step()

    def _step(self) -> None:
        m = next(self._matches, None)
        self.tok, self.at = (m[0], m.start()) if m else ("", len(self.text))

    def error(self, message: str, at: int | None = None,
              kind: type[LexicostError] = ParseError) -> LexicostError:
        """A `kind` error at offset `at`, by default where the current token starts."""
        at = self.at if at is None else at
        line = self.text.count("\n", 0, at) + 1
        return kind(message, line, at - self.text.rfind("\n", 0, at))

    def take(self, mark: str) -> bool:
        if self.tok != mark:
            return False
        self._step()
        return True

    def expect(self, mark: str) -> None:
        if not self.take(mark):
            raise self.error(f"expected {mark!r}, got {self.tok or 'end of input'!r}")

    def name(self) -> str:
        name = self.tok
        if not _NAME.match(name):
            raise self.error(f"expected a name, got {name or 'end of input'!r}")
        self._step()
        return name


def _atom(ts: _Tokens) -> tuple[Atom, list[int]]:
    """`name` or `name(t1,...,tn)`, with the offsets of the name and of each term."""
    at = [ts.at]
    name = ts.name()
    if name[0].isupper():
        raise ts.error(f"predicate names must start lowercase: {name!r}", at[0])
    args: list[str] = []
    if ts.take("(") and not ts.take(")"):
        while True:
            if ts.tok.startswith("_"):
                raise ts.error(f"terms must not start with '_': {ts.tok!r}")
            at.append(ts.at)
            args.append(ts.name())
            if ts.take(")"):
                break
            ts.expect(",")
    return Atom(name, tuple(args)), at


def _ground_atoms(text: str, labelled: bool) -> Iterator[tuple[str, Atom]]:
    """(label, atom) for each `atom.` of a facts file, or each `pos(atom).` or
    `neg(atom).` of a labelled examples file.  Every atom must be ground and
    keep one arity per predicate."""
    ts = _Tokens(text)
    arity: dict[str, int] = {}
    label = ""
    while ts.tok:
        if labelled:
            label = ts.tok
            if not (ts.take("pos") or ts.take("neg")):
                raise ts.error(f"expected pos(...) or neg(...), got {label!r}")
            ts.expect("(")
        a, at = _atom(ts)
        if labelled:
            ts.expect(")")
        ts.expect(".")
        if not a.is_ground:
            what = "example" if labelled else "background fact"
            raise ts.error(f"{what} must be ground: {a}", at[0])
        prev = arity.setdefault(a.predicate, a.arity)
        if prev != a.arity:
            raise ts.error(f"predicate {a.predicate!r} used with arities {prev} "
                           f"and {a.arity}", at[0], ArityMismatchError)
        yield label, a


def parse_facts(text: str) -> frozenset[Atom]:
    """Parse a background-knowledge file of ground `pred(c1,...,cn).` facts."""
    return frozenset(a for _, a in _ground_atoms(text, False))


def parse_examples(text: str) -> tuple[tuple[Atom, ...], tuple[Atom, ...]]:
    """Parse an examples file of pos(atom). / neg(atom). lines."""
    pos: list[Atom] = []
    neg: list[Atom] = []
    for label, a in _ground_atoms(text, True):
        (pos if label == "pos" else neg).append(a)
    return tuple(pos), tuple(neg)


# number of arguments of each bias directive; the last one is an integer
_DIRECTIVE_ARITY = {"head_pred": 2, "body_pred": 2, "max_vars": 1, "max_body": 1,
                    "max_clauses": 1, "enable_recursion": 0}


def parse_bias(text: str) -> Bias:
    """Parse a bias file of search-space directives; `Bias` checks the values."""
    ts = _Tokens(text)
    preds: dict[str, set[tuple[str, int]]] = {"head_pred": set(), "body_pred": set()}
    ints = {"max_vars": 3, "max_body": 3, "max_clauses": 1}
    recursion = False
    while ts.tok:
        if _NAME.match(ts.tok) and ts.tok not in _DIRECTIVE_ARITY:
            raise ts.error(f"unknown bias directive {ts.tok!r}",
                           kind=UnknownBiasDirectiveError)
        a, at = _atom(ts)
        name, args = a.predicate, a.args
        ts.expect(".")
        if len(args) != _DIRECTIVE_ARITY[name]:
            raise ts.error(f"{name} takes {_DIRECTIVE_ARITY[name]} arguments, "
                           f"got {len(args)}", at[0])
        if args and not args[-1].isdigit():
            raise ts.error(f"expected an integer, got {args[-1]!r}", at[-1])
        if name in preds:
            preds[name].add((args[0], int(args[1])))
        elif name in ints:
            ints[name] = int(args[0])
        else:
            recursion = True
    return Bias(
        head_preds=frozenset(preds["head_pred"]),
        body_preds=frozenset(preds["body_pred"]),
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
    return Task(bk_facts=facts, pos=pos, neg=neg, bias=bias)


def _rule(ts: _Tokens) -> Rule:
    head = _atom(ts)[0]
    body: list[Atom] = []
    if ts.take(":-"):
        body.append(_atom(ts)[0])
        while ts.take(","):
            body.append(_atom(ts)[0])
    ts.expect(".")
    return Rule(head, body)


def parse_rule(text: str) -> Rule:
    """Parse one rule of the canonical `head:- b1,b2.` form."""
    ts = _Tokens(text)
    rule = _rule(ts)
    if ts.tok:
        raise ts.error("trailing input after rule")
    return rule


def parse_program(text: str) -> Program:
    """Parse a newline-separated list of rules; inverse of render_program."""
    ts = _Tokens(text)
    rules = []
    while ts.tok:
        rules.append(_rule(ts))
    return Program(rules)
