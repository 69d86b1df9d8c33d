"""Base classes of lexicost's record types: values named by their fields.

A record class lists its fields, in order, as its `__slots__`; a `__dict__`
slot, where present, holds what `kb.kept` stores, which is not a field.  Its
constructor takes the fields positionally in that order.  Two records are
equal when they have the same type and equal fields, so a record never
equals a tuple or a record of another type.  A `Frozen` record is hashable
and refuses assignment; its constructor fills its fields with `init_field`.
A record pickles and copies through its constructor, so a copy is checked
again and carries nothing that `kept` stored.

Records that the learning loop compares or hashes in bulk (`Atom`, `Rule`,
`Program`) define their own `__eq__` and `__hash__` over the same fields,
which skip the generic field loop below.
"""

from __future__ import annotations

# sets a field of a `Frozen` record, whose own `__setattr__` refuses
init_field = object.__setattr__


class Record:
    """A mutable record: equality by type and fields, and unhashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    __hash__ = None

    def __init_subclass__(cls):
        cls._fields = tuple(n for n in cls.__slots__ if n != "__dict__")

    def _values(self) -> tuple:
        return tuple([getattr(self, n) for n in self._fields])

    def _asdict(self) -> dict:
        """The fields by name, in order."""
        return {n: getattr(self, n) for n in self._fields}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class Frozen(Record):
    """A read-only, hashable record."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")
