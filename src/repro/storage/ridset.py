"""Packed bitmap sets of record ids (rids).

Every membership-heavy hot path in the system — multi-version checkout,
diff, commit containment checks, bipartite edge counting, LyreSplit's
storage evaluation, migration planning — reduces to set algebra over rid
sets.  Python's ``set[int]`` pays one hash probe and ~60 bytes per
element; a :class:`RidSet` instead packs membership into one arbitrary-
precision integer (bit ``r`` set ⇔ rid ``r`` present), so union,
intersection, difference, and cardinality become single big-int ops the
interpreter vectorizes 30 bits at a time — the dense columnar/bitmap
layout HTAP systems use for analytical scans over transactional data.

RidSets are immutable and hashable, like the ``frozenset`` values they
replace.  Equality is defined against any iterable-of-ints collection
(``ridset == frozenset({1, 2})`` works in both directions because
``frozenset.__eq__`` returns ``NotImplemented`` for foreign types), so
call sites and tests that compare memberships keep working unchanged.

:meth:`to_bytes` / :meth:`from_bytes` are the compact little-endian
serialization: a snapshot manifest holds each version's membership in
that form.  The WAL keeps the int-array wire encoding and converts at the
boundary (a RidSet iterates in ascending order, so ``sorted(members)``
call sites produce byte-identical output).
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

__all__ = ["RidSet", "EMPTY_RIDSET"]

# Bit offsets of the set bits of every byte value, the iteration kernel:
# walking a bitmap byte-by-byte through this table is O(bytes + popcount)
# instead of O(popcount) big-int shift/xor ops (each of which would copy
# the whole integer).
_BYTE_OFFSETS = tuple(
    tuple(bit for bit in range(8) if value & (1 << bit))
    for value in range(256)
)


def _bits_of(values: Any) -> int:
    """The backing integer of ``values`` (RidSet or iterable of ints).

    Builds through a bytearray rather than repeated ``bits |= 1 << v``:
    each big-int OR copies the whole integer, turning a 50k-element build
    quadratic, while the bytearray form is O(n + max_rid/8).
    """
    if isinstance(values, RidSet):
        return values._bits
    if not isinstance(values, (list, tuple, set, frozenset)):
        values = list(values)
    if not values:
        return 0
    top = max(values)
    if top < 0 or min(values) < 0:
        raise ValueError("rids must be non-negative")
    buf = bytearray((top >> 3) + 1)
    for value in values:
        buf[value >> 3] |= 1 << (value & 7)
    return int.from_bytes(buf, "little")


class RidSet:
    """An immutable bitmap set of non-negative record ids."""

    __slots__ = ("_bits", "_count")

    def __init__(self, values: Iterable[int] = ()):
        self._bits = _bits_of(values)
        self._count: int | None = None

    # ------------------------------------------------------------ factories

    @classmethod
    def _from_bits(cls, bits: int) -> "RidSet":
        if bits < 0:
            raise ValueError("bitmap integer must be non-negative")
        out = cls.__new__(cls)
        out._bits = bits
        out._count = None
        return out

    # ------------------------------------------------------------- protocol

    def __len__(self) -> int:
        if self._count is None:
            self._count = self._bits.bit_count()
        return self._count

    def __bool__(self) -> bool:
        return self._bits != 0

    def __contains__(self, rid: int) -> bool:
        return rid >= 0 and (self._bits >> rid) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        """Ascending iteration over the set rids."""
        bits = self._bits
        if not bits:
            return
        data = bits.to_bytes((bits.bit_length() + 7) // 8, "little")
        base = 0
        offsets = _BYTE_OFFSETS
        for byte in data:
            if byte:
                for offset in offsets[byte]:
                    yield base + offset
            base += 8

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, RidSet):
            return self._bits == other._bits
        if isinstance(other, (set, frozenset)):
            try:
                return self._bits == _bits_of(other)
            except (ValueError, TypeError):
                return False
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("RidSet", self._bits))

    def __repr__(self) -> str:
        preview = ", ".join(str(rid) for _, rid in zip(range(6), self))
        if len(self) > 6:
            preview += ", ..."
        return f"RidSet({{{preview}}}, n={len(self)})"

    # -------------------------------------------------------------- algebra

    def __or__(self, other: Any) -> "RidSet":
        return RidSet._from_bits(self._bits | _bits_of(other))

    __ror__ = __or__
    union = __or__

    def __and__(self, other: Any) -> "RidSet":
        return RidSet._from_bits(self._bits & _bits_of(other))

    __rand__ = __and__
    intersection = __and__

    def __sub__(self, other: Any) -> "RidSet":
        return RidSet._from_bits(self._bits & ~_bits_of(other))

    def __rsub__(self, other: Any) -> "RidSet":
        return RidSet._from_bits(_bits_of(other) & ~self._bits)

    difference = __sub__

    def __xor__(self, other: Any) -> "RidSet":
        return RidSet._from_bits(self._bits ^ _bits_of(other))

    __rxor__ = __xor__
    symmetric_difference = __xor__

    def isdisjoint(self, other: Any) -> bool:
        return self._bits & _bits_of(other) == 0

    def issubset(self, other: Any) -> bool:
        other_bits = _bits_of(other)
        return self._bits & other_bits == self._bits

    def issuperset(self, other: Any) -> bool:
        other_bits = _bits_of(other)
        return self._bits & other_bits == other_bits

    def intersection_count(self, other: Any) -> int:
        """``len(self & other)`` without materializing the intersection —
        the edge-weight / closest-parent kernel."""
        return (self._bits & _bits_of(other)).bit_count()

    def union_count(self, other: Any) -> int:
        """``len(self | other)`` without materializing the union."""
        return (self._bits | _bits_of(other)).bit_count()

    def difference_count(self, other: Any) -> int:
        """``len(self - other)`` without materializing the difference."""
        return (self._bits & ~_bits_of(other)).bit_count()

    @staticmethod
    def union_all(sets: Iterable[Any]) -> "RidSet":
        """Union many sets in one pass (partition |R_k| evaluation)."""
        bits = 0
        for values in sets:
            bits |= _bits_of(values)
        return RidSet._from_bits(bits)

    # ------------------------------------------------------------ inspection

    def min(self) -> int:
        if not self._bits:
            raise ValueError("min() of an empty RidSet")
        return (self._bits & -self._bits).bit_length() - 1

    def max(self) -> int:
        if not self._bits:
            raise ValueError("max() of an empty RidSet")
        return self._bits.bit_length() - 1

    def to_array(self) -> tuple[int, ...]:
        """The ascending int-array form."""
        return tuple(self)

    # --------------------------------------------------------- serialization

    def to_bytes(self) -> bytes:
        """Compact little-endian bitmap bytes (empty set -> ``b""``)."""
        bits = self._bits
        if not bits:
            return b""
        return bits.to_bytes((bits.bit_length() + 7) // 8, "little")

    @classmethod
    def from_bytes(cls, data: bytes) -> "RidSet":
        return cls._from_bits(int.from_bytes(data, "little"))

    # -------------------------------------------------------------- pickling

    def __getstate__(self) -> bytes:
        return self.to_bytes()

    def __setstate__(self, state: bytes) -> None:
        self._bits = int.from_bytes(state, "little")
        self._count = None

    def __reduce__(self):
        return (RidSet.from_bytes, (self.to_bytes(),))


EMPTY_RIDSET = RidSet()
