"""The immutable base of the package's value classes, and the type tests
their constructors share."""

from __future__ import annotations

import numbers


class Frozen:
    """Fields in `__slots__`, set once by `__init__` through
    `object.__setattr__`, then never assigned or deleted.  `repr`, `==` and
    `hash` go by the values of `_fields`; a subclass with its own `__eq__`
    is unhashable, as Python makes it."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):  # copy and pickle restore the slots here
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())


def is_integer(value) -> bool:
    """An integer of any type but bool."""
    return type(value) is int or isinstance(value, numbers.Integral) and type(value) is not bool


def is_number(value) -> bool:
    """A real number of any type but bool."""
    return type(value) is float or isinstance(value, numbers.Real) and type(value) is not bool
