"""Version-aware reply cache for the serving layer.

Checkout results are a pure function of ``(cvd, version set, store lsn)``:
WAL replay is deterministic, so any two read-only sessions at the same lsn
hold identical state.  That makes the lsn-tagged key *correct by
construction* — a stale entry can never be served for a fresh lsn, no
matter which session populated it.  Explicit invalidation (on commit,
schema evolution, and partition migration, as reported by
:meth:`repro.persist.Store.refresh`) is therefore memory hygiene: it
evicts entries that no live session can ever hit again, rather than being
what correctness rests on.

An entry is the encoded reply line (:class:`Reply`), not rows — every
field of it is a function of the key; a checkout's is a join of record
lines (:func:`checkout_head`).  Query replies get the same treatment
with the SQL text + params in the key; since SQL may read arbitrary
durable tables, query entries are invalidated conservatively whenever
*any* change lands.
"""

from __future__ import annotations

import json
import threading
from binascii import crc32
from collections import OrderedDict
from typing import Any, Hashable, Sequence

from repro.record import Record


def encode(value: Any) -> bytes:
    return json.dumps(value).encode("utf-8")


def rows_checksum(rows: Any) -> int:
    """CRC-32 over a checkout's rows, stable across processes and runs.

    The body of a ``"rows": false`` response: the client gets integrity
    evidence (count + checksum) without the server JSON-encoding — or the
    client decoding — the payload, which would otherwise dominate a
    throughput measurement.  ``repr`` of tuples of plain values is
    deterministic (unlike ``hash``, which is salted per interpreter).
    """
    crc = 0
    for row in rows:
        crc = crc32(repr(tuple(row)).encode("utf-8"), crc)
    return crc


def checkout_response(
    columns: list, rows: list, lsn: int, include_rows: bool = True
) -> dict:
    """The wire shape of a successful checkout (row tuples encode as JSON
    arrays as they are)."""
    response: dict = {"ok": True, "columns": columns, "count": len(rows), "lsn": lsn}
    if include_rows:
        response["rows"] = rows
    else:
        response["checksum"] = rows_checksum(rows)
    return response


def checkout_head(columns: list, count: int, lsn: int) -> bytes:
    """A checkout's line up to its first row: ``encode(checkout_response(
    columns, rows, lsn))`` is this, ``b", ".join(map(encode, rows))`` and
    ``b"]}"``, byte for byte (JSON encodes a row in a list as alone)."""
    response = checkout_response(columns, [], lsn)
    response["count"] = count
    return encode(response)[:-2]


class Reply(Record):
    """A reply line: ``body``, or a checkout's head and the shared record
    lines it joins until first hit; plus its ``"rows": false`` line.
    Replies compare and hash by identity."""

    __slots__ = _fields = ("body", "records", "lean")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(
        self, body: bytes, records: tuple[bytes, ...] | None = None, lean=None
    ):
        self.body, self.records, self.lean = body, records, lean

    def __len__(self) -> int:  # its own bytes, a pointer per record line
        held = len(self.body) + len(self.lean or b"")
        return held + 8 * len(self.records or ())

    @property
    def line(self) -> bytes:
        if self.records is None:
            return self.body
        return b"".join((self.body, b", ".join(self.records), b"]}"))

    def lean_line(self) -> bytes:
        """A checkout's ``"rows": false`` line, made from its line once."""
        if self.lean is None:
            reply = decode(self.line)
            reply["checksum"] = rows_checksum(reply.pop("rows"))
            self.lean = encode(reply)
        return self.lean


def decode(line: bytes) -> dict:
    """A reply line with its rows as the engine returns them: tuples, with
    ``int[]`` values (the one list-valued column type) as tuples."""
    reply = json.loads(line)
    reply["rows"] = [
        tuple(tuple(v) if type(v) is list else v for v in row) for row in reply["rows"]
    ]
    return reply


def checkout_key(cvd: str, vids: Sequence[int] | int, last_lsn: int) -> tuple:
    """Cache key for a checkout: ``(cvd, tuple(vids), last_lsn)``.

    The vid *sequence* is the key, not a set: multi-version checkout is
    order-sensitive (the first listed version wins primary-key conflicts,
    Section 2.2), so ``[2, 3]`` and ``[3, 2]`` are different results and
    must never share an entry.
    """
    if isinstance(vids, int):
        vids = (vids,)
    return ("checkout", cvd, tuple(vids), last_lsn)


def query_key(sql: str, params: Sequence[Any], last_lsn: int) -> tuple:
    """Params key as canonical JSON: arrays hash, ``1``/``1.0``/``true`` differ."""
    return ("query", sql, json.dumps(params, sort_keys=True), last_lsn)


class CacheStats(Record):
    """Counters for one :class:`CheckoutCache`.

    Lock discipline: every mutation happens inside the owning cache's
    ``_lock`` (get/put/invalidate/clear all take it before touching the
    counters).  A bare ``to_dict`` read can therefore interleave with a
    mutation and see a torn pair (e.g. the hit counted but not yet the
    entry moved); use :meth:`CheckoutCache.stats_dict` for an atomic
    snapshot.
    """

    __slots__ = _fields = ("hits", "misses", "evictions", "invalidated")

    def __init__(self, hits=0, misses=0, evictions=0, invalidated=0):
        self.hits, self.misses = hits, misses
        self.evictions, self.invalidated = evictions, invalidated

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidated": self.invalidated,
        }

    # The observability registry's collector protocol spells it as_dict.
    as_dict = to_dict


class CheckoutCache:
    """A thread-safe LRU over lsn-tagged checkout and query replies."""

    def __init__(self, capacity: int = 256):
        #: ``capacity=0`` disables the cache entirely (every get misses,
        #: every put is dropped, and a session over it keeps no record
        #: lines) — the serving benchmarks use it to measure raw scan
        #: throughput without changing the serve path.
        self.capacity = max(0, capacity)
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats_dict(self) -> dict:
        """Atomic counter snapshot plus the live entries and their ``bytes``.

        Taken under the cache lock, so the counters are a consistent set:
        no concurrent get/put can tear hits against misses mid-read.
        """
        with self._lock:
            resident = sum(map(len, self._entries.values()))
            entries = {"entries": len(self._entries), "bytes": resident}
            return {**self.stats.to_dict(), **entries}

    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.stats.misses += 1
                return default
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def invalidate(
        self,
        cvds: set[str] | None = None,
        below_lsn: int | None = None,
        queries: bool = True,
    ) -> int:
        """Evict entries made stale by writer progress; returns the count.

        ``cvds=None`` matches every CVD.  ``below_lsn`` keeps entries
        already tagged with the new lsn (another session may have refreshed
        first and repopulated).  ``queries`` additionally drops query
        entries — SQL can read any durable table, so any applied record
        makes them suspect.
        """
        dropped = 0
        with self._lock:
            for key in list(self._entries):
                kind = key[0]
                if kind == "checkout":
                    if cvds is not None and key[1] not in cvds:
                        continue
                elif not queries:
                    continue
                if below_lsn is not None and key[-1] >= below_lsn:
                    continue
                del self._entries[key]
                dropped += 1
            self.stats.invalidated += dropped
        return dropped

    def clear(self) -> int:
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.stats.invalidated += dropped
        return dropped
