"""Plain slotted record classes: the part of ``dataclasses`` the engine uses.

A subclass names its fields in ``_fields``, in ``__init__`` parameter
order, keeps them in ``__slots__`` and writes its own ``__init__``.  The
base compares, prints and hashes by walking ``_fields`` when called, so
defining a record class costs what defining a plain class costs: nothing
is generated per class.  The results are the ones ``@dataclass``
generates: equality only between instances of one class, the
``Name(field=value, ...)`` repr, and, for :class:`FrozenRecord` (the
``frozen=True`` classes), the hash of the field tuple; ``_replace`` does
what ``dataclasses.replace`` does.  Frozen is a promise, not enforced:
assigning a field of a hashed record is a bug.
"""

from __future__ import annotations

from typing import Any


def _values(record: Record) -> tuple:
    return tuple([getattr(record, name) for name in record._fields])


class Record:
    """Equal by fields, printed like a dataclass, and unhashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _values(self) == _values(other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _replace(self, **changes: Any) -> Record:
        """A new record of this class: ``changes``, else this one's fields."""
        values = [changes.pop(name, getattr(self, name)) for name in self._fields]
        if changes:
            raise TypeError(f"{type(self).__name__} has no field {min(changes)!r}")
        return type(self)(*values)


class FrozenRecord(Record):
    """A record that is never changed after ``__init__``: hashable by value."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(_values(self))
