"""Lexicographic cost functions over (false positives, false negatives, size).

A CostSpec is an ordered list of components, each a 0/1-weighted sum of fp,
fn and program size; a hypothesis's cost is the tuple of component values,
compared lexicographically.  All arithmetic is exact integers.
"""

from __future__ import annotations

from .errors import LexicostError
from .evaluator import Confusion
from .record import Frozen, init_field

CostVector = tuple[int, ...]


class LinearComponent(Frozen):
    __slots__ = ("a_fp", "b_fn", "c_size")

    def __init__(self, a_fp: int, b_fn: int, c_size: int):
        init_field(self, "a_fp", a_fp)
        init_field(self, "b_fn", b_fn)
        init_field(self, "c_size", c_size)
        for coef in (self.a_fp, self.b_fn, self.c_size):
            if coef not in (0, 1):
                raise LexicostError(f"coefficients must be 0 or 1, got {coef}")
        if not (self.a_fp or self.b_fn or self.c_size):
            raise LexicostError("a component needs at least one nonzero coefficient")

    def value(self, conf: Confusion, size: int) -> int:
        return self.a_fp * conf.fp + self.b_fn * conf.fn + self.c_size * size


class CostSpec(Frozen):
    __slots__ = ("name", "components")

    def __init__(self, name: str, components: tuple[LinearComponent, ...]):
        init_field(self, "name", name)
        init_field(self, "components", components)
        if not self.components:
            raise LexicostError("a cost spec needs at least one component")

    @property
    def fp_is_primary(self) -> bool:
        """True when the leading objective is exactly the false-positive count."""
        first = self.components[0]
        return (first.a_fp, first.b_fn, first.c_size) == (1, 0, 0)

    def __str__(self) -> str:
        return self.name


def _c(a: int, b: int, c: int) -> LinearComponent:
    return LinearComponent(a, b, c)


NAMED_SPECS: dict[str, CostSpec] = {
    "error": CostSpec("error", (_c(1, 1, 0),)),
    "errorsize": CostSpec("errorsize", (_c(1, 1, 0), _c(0, 0, 1))),
    "fnfp": CostSpec("fnfp", (_c(0, 1, 0), _c(1, 0, 0))),
    "fnfpsize": CostSpec("fnfpsize", (_c(0, 1, 0), _c(1, 0, 0), _c(0, 0, 1))),
    "fpfn": CostSpec("fpfn", (_c(1, 0, 0), _c(0, 1, 0))),
    "fpfnsize": CostSpec("fpfnsize", (_c(1, 0, 0), _c(0, 1, 0), _c(0, 0, 1))),
    "mdl": CostSpec("mdl", (_c(1, 1, 1),)),
}

ALL_SPEC_NAMES = tuple(NAMED_SPECS)

_TERMS = {"fp": (1, 0, 0), "fn": (0, 1, 0), "size": (0, 0, 1)}


def parse_cost_spec(text: str) -> CostSpec:
    """Resolve a spec name, or parse `custom:fp+fn,size` component syntax.

    Commas separate lexicographic levels; `+` sums terms from {fp, fn, size}
    within a level.
    """
    text = text.strip().lower()
    if text in NAMED_SPECS:
        return NAMED_SPECS[text]
    if text.startswith("custom:"):
        body = text[len("custom:"):]
        components = []
        for level in body.split(","):
            a = b = c = 0
            for part in level.split("+"):
                part = part.strip()
                if part not in _TERMS:
                    raise LexicostError(
                        f"unknown cost term {part!r}; expected fp, fn or size"
                    )
                da, db, dc = _TERMS[part]
                a, b, c = a | da, b | db, c | dc
            components.append(LinearComponent(a, b, c))
        return CostSpec("custom", tuple(components))
    raise LexicostError(
        f"unknown cost function {text!r}; expected one of "
        f"{', '.join(ALL_SPEC_NAMES)} or custom:..."
    )


def evaluate(spec: CostSpec, conf: Confusion, size: int) -> CostVector:
    return tuple(c.value(conf, size) for c in spec.components)


def generator_size_bound(spec: CostSpec, best: CostVector | None) -> int | None:
    """Largest candidate size still worth generating given the best cost so far.

    Let j be the first component that charges for size.  Every component value
    of a hypothesis of size s is >= 0, and component j is >= s.  So once the
    best solution scores 0 on every component before j, no hypothesis larger
    than best[j] can improve on it; when j is the final component, ties cannot
    improve either, giving best[j] - 1.  Returns None when unbounded.
    """
    if best is None:
        return None
    j = next((i for i, c in enumerate(spec.components) if c.c_size), None)
    if j is None:
        return None
    if any(best[i] != 0 for i in range(j)):
        return None
    if j == len(spec.components) - 1:
        return best[j] - 1
    return best[j]
