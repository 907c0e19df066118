"""Immutable value classes: what a frozen dataclass gives, at a fraction of its import time.

A ``Record`` subclass names its fields in ``__slots__`` and sets each once,
by ``setfield``, in its own ``__init__``.  The base gives == and hash over
the compared fields, against the same class only, the dataclass repr over
the shown fields, and ``AttributeError`` on assignment or deletion.  A
field in ``uncompared`` is left out of == and hash, one in ``hidden`` out
of repr as well.
"""

from __future__ import annotations

from operator import attrgetter

setfield = object.__setattr__


class Record:
    __slots__ = ()

    def __init_subclass__(cls, uncompared: tuple[str, ...] = (), hidden: tuple[str, ...] = ()) -> None:
        # The __init__ parameters, in order; a "__dict__" slot only holds cached values.
        slots = [name for klass in reversed(cls.__mro__) for name in vars(klass).get("__slots__", ())]
        cls._fields = tuple(name for name in slots if name != "__dict__")
        cls._shown = tuple(name for name in cls._fields if name not in hidden)
        # The compared fields of a record, one value or a tuple of them.
        cls._key = attrgetter(*(name for name in cls._shown if name not in uncompared))

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._shown])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def replace(record: Record, **changes: object) -> Record:
    """A copy of ``record`` with ``changes``, built by its ``__init__``, so its validation runs again."""
    return record.__class__(**{name: getattr(record, name) for name in record._fields} | changes)
