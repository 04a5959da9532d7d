"""Hash and ordered indexes for the embedded relational engine.

Both index kinds map a key tuple extracted from fixed row positions to the
set of heap slots holding matching rows.  :class:`HashIndex` is the default
(PostgreSQL's primary-key b-tree behaves like a hash for the equality probes
OrpheusDB issues); :class:`OrderedIndex` additionally supports ordered
iteration, which the merge-join path uses.
"""

from __future__ import annotations

import bisect
from operator import itemgetter
from typing import Any, Iterator, Sequence

Row = tuple[Any, ...]
Key = tuple[Any, ...]


class Index:
    """Common behaviour for both index kinds."""

    def __init__(
        self,
        name: str,
        columns: tuple[str, ...],
        positions: tuple[int, ...],
        unique: bool,
    ):
        self.name = name
        self.columns = columns
        self.positions = positions
        self.unique = unique

    def key_of(self, row: Row) -> Key:
        return tuple(row[position] for position in self.positions)

    # Subclass interface -----------------------------------------------------

    def insert(self, row: Row, slot: int) -> None:
        raise NotImplementedError

    def insert_many(self, rows: Sequence[Row], slots: Sequence[int]) -> None:
        """One :meth:`insert` of ``rows[i]`` at ``slots[i]`` per i, in order."""
        for row, slot in zip(rows, slots):
            self.insert(row, slot)

    def delete(self, row: Row, slot: int) -> None:
        raise NotImplementedError

    def lookup_key(self, key: Key) -> list[int]:
        raise NotImplementedError

    def lookup_many(self, keys) -> tuple[int, list[int]]:
        """Batched lookup: (keys probed, matching slots in key order).

        The generic form loops :meth:`lookup_key`; :class:`HashIndex`
        overrides it with a single-dict-lookup loop, the inner kernel of
        bitmap-driven slot fetches.
        """
        probes = 0
        slots: list[int] = []
        for key in keys:
            probes += 1
            slots.extend(self.lookup_key(key))
        return probes, slots

    def clear(self) -> None:
        raise NotImplementedError

    def entry_count(self) -> int:
        raise NotImplementedError


class HashIndex(Index):
    """Equality-probe index backed by a dict of slot lists."""

    def __init__(self, name, columns, positions, unique):
        super().__init__(name, columns, positions, unique)
        self._buckets: dict[Key, list[int]] = {}
        self._entries = 0

    def insert(self, row: Row, slot: int) -> None:
        self._buckets.setdefault(self.key_of(row), []).append(slot)
        self._entries += 1

    def insert_many(self, rows: Sequence[Row], slots: Sequence[int]) -> None:
        keys = zip(*[map(itemgetter(position), rows) for position in self.positions])
        for key, slot in zip(keys, slots):
            self._buckets.setdefault(key, []).append(slot)
        self._entries += len(rows)

    def delete(self, row: Row, slot: int) -> None:
        key = self.key_of(row)
        slots = self._buckets.get(key)
        if slots:
            try:
                slots.remove(slot)
            except ValueError:
                pass
            else:
                self._entries -= 1
            if not slots:
                del self._buckets[key]

    def lookup_key(self, key: Key) -> list[int]:
        return self._buckets.get(key, [])

    def lookup_many(self, keys) -> tuple[int, list[int]]:
        buckets = self._buckets
        probes = 0
        slots: list[int] = []
        for key in keys:
            probes += 1
            hit = buckets.get(key)
            if hit:
                slots.extend(hit)
        return probes, slots

    def clear(self) -> None:
        self._buckets.clear()
        self._entries = 0

    def entry_count(self) -> int:
        # Maintained incrementally: entry_count feeds storage_bytes(),
        # which status/bench paths poll per call.
        return self._entries


class OrderedIndex(Index):
    """Sorted-key index supporting ordered iteration."""

    def __init__(self, name, columns, positions, unique):
        super().__init__(name, columns, positions, unique)
        self._keys: list[Key] = []
        self._slots: dict[Key, list[int]] = {}
        self._entries = 0

    def insert(self, row: Row, slot: int) -> None:
        key = self.key_of(row)
        if key not in self._slots:
            bisect.insort(self._keys, key)
            self._slots[key] = []
        self._slots[key].append(slot)
        self._entries += 1

    def delete(self, row: Row, slot: int) -> None:
        key = self.key_of(row)
        slots = self._slots.get(key)
        if slots:
            try:
                slots.remove(slot)
            except ValueError:
                pass
            else:
                self._entries -= 1
            if not slots:
                del self._slots[key]
                position = bisect.bisect_left(self._keys, key)
                if position < len(self._keys) and self._keys[position] == key:
                    del self._keys[position]

    def lookup_key(self, key: Key) -> list[int]:
        return self._slots.get(key, [])

    def ordered_slots(self) -> Iterator[int]:
        """All slots in key order (the merge-join inner path)."""
        for key in self._keys:
            yield from self._slots[key]

    def clear(self) -> None:
        self._keys.clear()
        self._slots.clear()
        self._entries = 0

    def entry_count(self) -> int:
        return self._entries
