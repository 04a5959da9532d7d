"""Seeded inputs and the oracle that checks every answer.

Everything the program is fed comes from here, derived from ``--seed``
with :class:`random.Random` (stable across Python versions).  Nothing is
imported from ``repro.chaos`` / ``repro.workloads``: a later PR that
edits those cannot move this benchmark's inputs.

The oracle shares no code with the system under test.  It replays the
same commit trace into a plain ``dict[vid, dict[pk, row]]`` and answers
checkouts and the five query templates from those dicts in pure Python.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

CVD = "bench"
SCHEMA = [
    ("id", "int"),
    ("grp", "text"),
    ("val", "int"),
    ("score", "float"),
    ("tag", "text"),
]
#: Column list of a served checkout: the internal rid rides in front.
COLUMNS = ["rid"] + [name for name, _ in SCHEMA]
_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class Scale:
    """Data size.  Steady churn keeps every version at ``root_rows +
    churn`` rows, so latency is stationary while the record universe
    grows by ``churn + updates`` records per commit."""

    root_rows: int
    versions: int
    churn: int
    updates: int


FULL = Scale(root_rows=1000, versions=48, churn=50, updates=10)
QUICK = Scale(root_rows=200, versions=12, churn=10, updates=4)


@dataclass(frozen=True)
class Commit:
    """One version's edit script against its parent."""

    vid: int
    parent: int
    delete: tuple[int, int] | None  # id range the parent inserted
    updates: tuple[int, ...]  # root ids whose val is bumped
    inserts: tuple[tuple, ...]


def _row(rng: random.Random, pk: int) -> tuple:
    return (
        pk,
        f"g{pk % 8}",
        rng.randrange(1000),
        round(rng.random() * 100, 3),
        f"t{rng.randrange(50)}",
    )


class Plan:
    """The commit trace: a root table, then one :class:`Commit` per call.

    15 % of commits branch from one of the 8 versions before the tip;
    each commit deletes the rows its parent inserted, bumps ``updates``
    root rows and inserts ``churn`` new ones.

    The seed draws every value and every row that is touched.  The
    *shape* of the version graph comes from a fixed generator: partition
    layout, and with it the cost of every checkout, follows the shape, and
    runs on different seeds are meant to measure the same work.
    """

    def __init__(self, seed: int, scale: Scale):
        self.scale = scale
        self._rng = random.Random(seed * 7919 + 17)
        self._shape = random.Random(20170817)
        self.root = [_row(self._rng, pk) for pk in range(scale.root_rows)]
        self.tip = 1

    def next_commit(self) -> Commit:
        """The commit creating version ``tip + 1`` (and advancing tip)."""
        vid = self.tip + 1
        parent = self.tip
        if vid > 3 and self._shape.random() < 0.15:
            parent = self._shape.randrange(max(1, vid - 9), vid - 1)
        self.tip = vid
        return self.commit_on(vid, parent, self._rng)

    def commit_on(self, vid: int, parent: int, rng: random.Random) -> Commit:
        base, _ = self.inserted_range(vid)
        return Commit(
            vid=vid,
            parent=parent,
            delete=self.inserted_range(parent),
            updates=tuple(
                sorted(rng.sample(range(self.scale.root_rows), self.scale.updates))
            ),
            inserts=tuple(_row(rng, base + i) for i in range(self.scale.churn)),
        )

    def inserted_range(self, vid: int) -> tuple[int, int] | None:
        """The id range version ``vid`` inserted (the root inserted none)."""
        if vid == 1:
            return None
        base = 1_000_000 + vid * self.scale.churn
        return (base, base + self.scale.churn)


def commit_sql(commit: Commit, table: str) -> list[str]:
    """The staging DML of one commit, as the analyst would type it."""
    statements = []
    if commit.delete:
        low, high = commit.delete
        statements.append(f"DELETE FROM {table} WHERE id >= {low} AND id < {high}")
    ids = ", ".join(str(pk) for pk in commit.updates)
    statements.append(f"UPDATE {table} SET val = val + 1 WHERE id IN ({ids})")
    values = ", ".join(
        f"({pk}, '{grp}', {val}, {score!r}, '{tag}')"
        for pk, grp, val, score, tag in commit.inserts
    )
    statements.append(f"INSERT INTO {table} (id, grp, val, score, tag) VALUES {values}")
    return statements


# --------------------------------------------------------------------- queries

#: (kind, vid, other vid, literal) — one versioned SQL statement.
Query = tuple[str, int, int, int]
QUERY_KINDS = ("agg", "topk", "join", "window", "lineage")


def query_sql(query: Query) -> str:
    kind, vid, other, k = query
    rel = f"VERSION {vid} OF CVD {CVD}"
    if kind == "agg":
        return (
            f"SELECT grp, count(*), sum(val) FROM {rel} WHERE val > {k} "
            f"GROUP BY grp ORDER BY grp"
        )
    if kind == "topk":
        return (
            f"SELECT id, score FROM {rel} WHERE val >= {k} "
            f"ORDER BY score DESC, id LIMIT 10"
        )
    if kind == "join":
        return (
            f"SELECT count(*) FROM {rel} AS x JOIN VERSION {other} OF CVD {CVD} "
            f"AS y ON x.id = y.id WHERE x.val <> y.val AND x.val > {k}"
        )
    if kind == "window":
        return (
            f"SELECT grp, id, rn FROM (SELECT grp, id, row_number() OVER "
            f"(PARTITION BY grp ORDER BY score DESC, id) AS rn FROM {rel} "
            f"WHERE val >= {k}) AS t WHERE rn <= 3 ORDER BY grp, rn"
        )
    if kind == "lineage":
        return (
            f"SELECT count(*) FROM VERSIONS ANCESTOR OF {vid} OF CVD {CVD} "
            f"WHERE vid <> {k}"
        )
    raise ValueError(f"unknown query kind {kind!r}")


# ---------------------------------------------------------------------- oracle


class Oracle:
    """Ground truth: every committed version as ``{pk: row}``."""

    def __init__(self, root: Sequence[tuple]):
        self.versions: dict[int, dict[int, tuple]] = {1: {r[0]: r for r in root}}
        self.parent: dict[int, int | None] = {1: None}
        self.records: set[tuple] = set()
        #: CSV bytes of every distinct record ever committed.
        self.user_bytes = 0
        self._sums: dict[int, tuple[int, int]] = {}
        self._add_records(root)

    def _add_records(self, rows) -> None:
        for row in rows:
            if row not in self.records:
                self.records.add(row)
                pk, grp, val, score, tag = row
                self.user_bytes += len(f"{pk},{grp},{val},{score!r},{tag}\n")

    def fork(self) -> "Oracle":
        """An independent copy (the admin cycles commit on store copies)."""
        other = Oracle(())
        other.versions = dict(self.versions)
        other.parent = dict(self.parent)
        other.records = set(self.records)
        other.user_bytes = self.user_bytes
        return other

    def apply(self, commit: Commit) -> None:
        rows = dict(self.versions[commit.parent])
        if commit.delete:
            for pk in range(*commit.delete):
                rows.pop(pk, None)
        for pk in commit.updates:
            key, grp, val, score, tag = rows[pk]
            rows[pk] = (key, grp, val + 1, score, tag)
        for row in commit.inserts:
            rows[row[0]] = row
        self._add_records(rows[pk] for pk in commit.updates)
        self._add_records(commit.inserts)
        self.versions[commit.vid] = rows
        self.parent[commit.vid] = commit.parent

    # ------------------------------------------------------------- checkouts

    def _checkout_sum(self, vids: Sequence[int]) -> tuple[int, int]:
        """(row count, order-independent 64-bit sum of row hashes).

        The first listed version wins primary-key conflicts (paper
        Section 2.2), hence the reversed update order.
        """
        if len(vids) == 1 and vids[0] in self._sums:
            return self._sums[vids[0]]
        merged: dict[int, tuple] = {}
        for vid in reversed(vids):
            merged.update(self.versions[vid])
        result = (len(merged), sum(map(hash, merged.values())) & _MASK)
        if len(vids) == 1:
            self._sums[vids[0]] = result
        return result

    def check_checkout(
        self, response: dict, vids: Sequence[int], min_lsn: int | None = None
    ) -> bool:
        if not response.get("ok") or response.get("columns") != COLUMNS:
            return False
        if min_lsn is not None and response.get("lsn", -1) < min_lsn:
            return False  # answered from behind the fence
        rows = response.get("rows")
        if rows is None or response.get("count") != len(rows):
            return False
        got = sum(hash(tuple(row[1:])) for row in rows) & _MASK
        return (len(rows), got) == self._checkout_sum(vids)

    # --------------------------------------------------------------- queries

    def ancestors(self, vid: int) -> list[int]:
        out = []
        parent = self.parent[vid]
        while parent is not None:
            out.append(parent)
            parent = self.parent[parent]
        return out

    def evaluate(self, query: Query) -> list[list]:
        kind, vid, other, k = query
        if kind == "lineage":
            return [[sum(1 for v in self.ancestors(vid) if v != k)]]
        rows = self.versions[vid].values()
        if kind == "agg":
            groups: dict[str, list[int]] = {}
            for _pk, grp, val, _score, _tag in rows:
                if val > k:
                    cell = groups.setdefault(grp, [0, 0])
                    cell[0] += 1
                    cell[1] += val
            return [[grp, *groups[grp]] for grp in sorted(groups)]
        if kind == "topk":
            kept = [(-r[3], r[0]) for r in rows if r[2] >= k]
            return [[pk, -neg] for neg, pk in sorted(kept)[:10]]
        if kind == "join":
            right = self.versions[other]
            return [
                [
                    sum(
                        1
                        for r in rows
                        if r[2] > k and r[0] in right and right[r[0]][2] != r[2]
                    )
                ]
            ]
        if kind == "window":
            ranked: dict[str, list[tuple]] = {}
            for r in rows:
                if r[2] >= k:
                    ranked.setdefault(r[1], []).append((-r[3], r[0]))
            return [
                [grp, pk, rank]
                for grp in sorted(ranked)
                for rank, (_neg, pk) in enumerate(sorted(ranked[grp])[:3], 1)
            ]
        raise ValueError(f"unknown query kind {kind!r}")

    def check_query(
        self, response: dict, query: Query, min_lsn: int | None = None
    ) -> bool:
        if not response.get("ok"):
            return False
        if min_lsn is not None and response.get("lsn", -1) < min_lsn:
            return False
        return response.get("rows") == self.evaluate(query)
