"""Plain records: named fields in slots, with value equality, hashing,
repr, pickling and copying.

Every run of the tool imports the whole prover before an analysis that
often takes under a millisecond, so its records are plain `__slots__`
classes: defining one runs no code, and building one sets its slots
directly.  They are not dataclasses, so `dataclasses.replace`, `fields`
and `asdict` do not apply to them; a changed copy is built with the
constructor.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, ClassVar, Optional


class Record:
    """Base of a record class.

    A subclass's fields are its slots that do not start with '_', in the
    order of its constructor's positional parameters; its constructor sets
    every slot, fields and caches alike.  Two records are equal when they
    are of one class and their compared fields are equal, and then they
    hash alike; the compared fields are all of them unless the class
    statement names some (`compare=`).  repr shows every field by keyword,
    and pickling and copying pass the fields to the constructor in order,
    so a cache slot is filled afresh.  A record is not changed once built,
    except one whose class sets `__hash__ = None`.
    """

    __slots__ = ()
    _fields: ClassVar[tuple[str, ...]] = ()
    _values: ClassVar[Callable[[Any], tuple]]
    _key: ClassVar[Callable[[Any], tuple]]

    def __init_subclass__(cls, compare: Optional[tuple[str, ...]] = None, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        # An `attrgetter` of two or more names returns their values as a
        # tuple, in one call; every record has at least two fields.
        cls._values = attrgetter(*cls._fields)
        cls._key = cls._values if compare is None else attrgetter(*compare)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __reduce__(self):
        return type(self), self._values(self)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({shown})"
