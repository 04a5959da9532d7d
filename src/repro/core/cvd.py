"""Collaborative versioned datasets (CVDs) — paper Section 2.1.

A CVD couples:

* a *data model* instance (physical storage of records and membership),
* the Python-side :class:`~repro.core.version_graph.VersionGraph` with
  derivation edges weighted by shared-record counts (what LyreSplit reads),
* rid-membership sets per version (what the bipartite cost model reads), and
* a DB-resident metadata table (Figure 4a) holding version provenance so the
  metadata itself is SQL-queryable, as the paper's version manager provides.

Records are immutable: commit never mutates a stored record; a modified row
gets a fresh rid.  Commits compare staged rows only against the *parent*
versions (the "no cross-version diff" rule of Section 2.2), so a record
deleted and re-added later intentionally receives a new rid.
"""

from __future__ import annotations

import operator
from typing import Any, Iterable, Mapping, Sequence

from repro.core.datamodels import SplitByRlistModel, resolve_model
from repro.core.datamodels.base import DataModel, Row
from repro.core.schema_evolution import AttributeCatalog
from repro.core.version import Version
from repro.core.version_graph import VersionGraph
from repro.errors import ConstraintViolationError, VersionNotFoundError
from repro.storage.engine import Database
from repro.storage.ridset import RidSet
from repro.storage.schema import Column, TableSchema
from repro.storage.types import DataType


class CVD:
    """One collaborative versioned dataset living inside a Database."""

    def __init__(
        self,
        db: Database,
        name: str,
        data_schema: TableSchema,
        model: str | type[DataModel] = SplitByRlistModel,
    ):
        self.db = db
        self.name = name
        self.data_schema = data_schema
        model_cls = resolve_model(model) if isinstance(model, str) else model
        self.model: DataModel = model_cls(db, name, data_schema)
        self.graph = VersionGraph()
        #: rid membership per version as packed bitmaps; every membership-
        #: heavy operation (multi-version checkout, diff, commit checks,
        #: partition cost evaluation) is set algebra over these.
        self.membership: dict[int, RidSet] = {}
        self.attributes = AttributeCatalog(db, name)
        self._next_vid = 1
        self._next_rid = 1
        self.model.create_storage()
        self.attributes.create_storage()
        self._create_metadata_table()
        self._current_attribute_ids = self.attributes.register_schema(data_schema)

    # ----------------------------------------------------------- metadata

    @property
    def metadata_table(self) -> str:
        return f"{self.name}__meta"

    def _create_metadata_table(self) -> None:
        self.db.create_table(
            self.metadata_table,
            TableSchema(
                [
                    Column("vid", DataType.INTEGER),
                    Column("parents", DataType.INT_ARRAY),
                    Column("num_records", DataType.INTEGER),
                    Column("checkout_t", DataType.INTEGER),
                    Column("commit_t", DataType.INTEGER),
                    Column("msg", DataType.TEXT),
                    Column("attributes", DataType.INT_ARRAY),
                ],
                ("vid",),
            ),
        )

    def drop_storage(self) -> None:
        """Drop every table backing this CVD."""
        self.model.drop_storage()
        self.attributes.drop_storage()
        self.db.drop_table(self.metadata_table, if_exists=True)

    # ------------------------------------------------------------ counters

    def allocate_rid(self) -> int:
        rid = self._next_rid
        self._next_rid += 1
        return rid

    def _allocate_vid(self) -> int:
        vid = self._next_vid
        self._next_vid += 1
        return vid

    # ------------------------------------------------------------- queries

    @property
    def version_count(self) -> int:
        return len(self.graph)

    @property
    def record_count(self) -> int:
        """|R|: distinct records stored across all versions."""
        return self._next_rid - 1

    @property
    def bipartite_edge_count(self) -> int:
        """|E| of the version-record bipartite graph."""
        return sum(len(s) for s in self.membership.values())

    def version(self, vid: int) -> Version:
        return self.graph.version(vid)

    def member_rids(self, vid: int) -> RidSet:
        try:
            return self.membership[vid]
        except KeyError:
            raise VersionNotFoundError(
                f"CVD {self.name!r} has no version {vid}"
            ) from None

    def storage_bytes(self) -> int:
        return self.model.storage_bytes()

    # --------------------------------------------------------------- ingest

    def ingest_version(
        self,
        parents: Sequence[int],
        member_rids: Sequence[int],
        new_records: Mapping[int, Row],
        message: str = "",
        checkout_time: int | None = None,
        commit_time: int | None = None,
    ) -> int:
        """Low-level commit: membership and new payloads already resolved.

        Used by :meth:`commit_rows` and by bulk workload loaders.  All rids
        in ``new_records`` must come from :meth:`allocate_rid`; every other
        member rid must belong to at least one parent.
        """
        members = RidSet(member_rids)
        for parent in parents:
            self.member_rids(parent)  # raises if the parent is unknown
        inherited = members - RidSet(new_records)
        parent_union = RidSet.union_all(self.membership[parent] for parent in parents)
        stray = inherited - parent_union
        if stray:
            raise ConstraintViolationError(
                f"rids {sorted(stray)[:5]} are neither new nor inherited "
                f"from the parents of the committed version"
            )
        vid = self._allocate_vid()
        self.model.add_version(vid, list(member_rids), new_records, parents)
        edge_weights = {
            parent: members.intersection_count(self.membership[parent])
            for parent in parents
        }
        version = Version(
            vid=vid,
            parents=tuple(parents),
            num_records=len(members),
            checkout_time=checkout_time,
            commit_time=commit_time,
            message=message,
            attribute_ids=tuple(self._current_attribute_ids),
        )
        self.graph.add_version(version, edge_weights)
        self.membership[vid] = members
        self.db.execute(
            f"INSERT INTO {self.metadata_table} VALUES "
            f"(%s, %s, %s, %s, %s, %s, %s)",
            (
                vid,
                tuple(parents),
                len(members),
                checkout_time,
                commit_time,
                message,
                tuple(self._current_attribute_ids),
            ),
        )
        return vid

    def ingest_history(
        self,
        versions: Sequence[tuple[Sequence[int], Sequence[int]]],
        payloads: Mapping[int, Row],
    ) -> list[int]:
        """Bulk-load a whole version history (benchmark setup fast path).

        ``versions`` is a topologically ordered list of
        ``(parents, member_rids)`` whose rids were pre-allocated via
        :meth:`allocate_rid`; ``payloads`` resolves every rid to a data
        tuple.  Equivalent to calling :meth:`ingest_version` per entry but
        routes physical storage through the model's ``bulk_load`` so setup
        does not pay per-commit costs.
        """
        entries = []
        assigned_vids = []
        for parents, member_rids in versions:
            vid = self._allocate_vid()
            assigned_vids.append(vid)
            entries.append((vid, tuple(parents), list(member_rids)))
        self.model.bulk_load(entries, payloads)
        metadata_rows = []
        for vid, parents, member_rids in entries:
            members = RidSet(member_rids)
            edge_weights = {
                parent: members.intersection_count(self.membership[parent])
                for parent in parents
            }
            self.graph.add_version(
                Version(
                    vid=vid,
                    parents=parents,
                    num_records=len(members),
                    attribute_ids=tuple(self._current_attribute_ids),
                ),
                edge_weights,
            )
            self.membership[vid] = members
            metadata_rows.append(
                (
                    vid,
                    parents,
                    len(members),
                    None,
                    None,
                    "",
                    tuple(self._current_attribute_ids),
                )
            )
        self.db.table(self.metadata_table).insert_many(metadata_rows)
        return assigned_vids

    def init_version(
        self, rows: Iterable[Sequence[Any]], message: str = "initial version"
    ) -> int:
        """Create the root version from raw data rows (the ``init`` command)."""
        new_records: dict[int, Row] = {}
        for row in rows:
            coerced = self.data_schema.coerce_row(row)
            new_records[self.allocate_rid()] = coerced
        self._check_primary_key(new_records.values())
        return self.ingest_version((), list(new_records), new_records, message=message)

    # --------------------------------------------------------------- commit

    def parent_record_order(self, parents: Sequence[int]) -> dict[int, Row]:
        """rid -> payload over the given parents, first parent winning.

        The *iteration order* of the result is deterministic for a given
        database state; the write-ahead log's delta-encoded commit records
        rely on recovery reproducing exactly this order.
        """
        parent_records: dict[int, Row] = {}
        for parent in parents:
            for rid, payload in self.model.records_of(parent).items():
                parent_records.setdefault(rid, payload)
        return parent_records

    def commit_rows(
        self,
        parents: Sequence[int],
        staged_rows: Iterable[Sequence[Any]],
        message: str = "",
        checkout_time: int | None = None,
        commit_time: int | None = None,
        rows_have_rid: bool = True,
        rows_coerced: bool = False,
        resolved: dict | None = None,
    ) -> int:
        """Commit staged rows as a new version.

        ``staged_rows`` are ``(rid, *data)`` tuples when ``rows_have_rid``
        (the checkout-table path; ``rid`` may be NULL for user-inserted
        rows), or bare data tuples (the CSV path), in which case unchanged
        rows are recognized by exact value match against the parents.

        ``rows_coerced`` says the data values are already what
        ``data_schema.coerce_row`` would make of them (the caller read them
        from a table with exactly these columns), so only the NOT NULL
        constraints are checked again.

        When ``resolved`` is a dict it receives the physical resolution of
        the commit (``member_rids``, ``new_records``, ``parent_order``) so
        the caller can journal it (repro.persist).
        """
        parent_records = self.parent_record_order(parents)
        value_index: dict[Row, int] = {}
        if not rows_have_rid:
            for rid, payload in parent_records.items():
                value_index.setdefault(payload, rid)
        member_rids: list[int] = []
        new_records: dict[int, Row] = {}
        seen_members: set[int] = set()
        not_null = [
            (position, column.name)
            for position, column in enumerate(self.data_schema.columns)
            if column.not_null
        ]
        for staged in staged_rows:
            if rows_have_rid:
                rid, payload = staged[0], tuple(staged[1:])
            else:
                rid, payload = None, tuple(staged)
            if rows_coerced:
                for position, name in not_null:
                    if payload[position] is None:
                        raise ConstraintViolationError(
                            f"null value in NOT NULL column {name!r}"
                        )
            else:
                payload = self.data_schema.coerce_row(payload)
            if rows_have_rid:
                keep = rid is not None and parent_records.get(rid) == payload
            else:
                rid = value_index.get(payload)
                keep = rid is not None
            if not keep:
                rid = self.allocate_rid()
                new_records[rid] = payload
            if rid in seen_members:
                raise ConstraintViolationError(
                    f"record {rid} appears twice in the committed table"
                )
            seen_members.add(rid)
            member_rids.append(rid)
        self._check_primary_key(
            [
                new_records.get(rid) or parent_records[rid]
                for rid in member_rids
            ]
        )
        if resolved is not None:
            resolved["member_rids"] = list(member_rids)
            resolved["new_records"] = dict(new_records)
            resolved["parent_order"] = list(parent_records)
        return self.ingest_version(
            parents,
            member_rids,
            new_records,
            message=message,
            checkout_time=checkout_time,
            commit_time=commit_time,
        )

    def _check_primary_key(self, payloads: Iterable[Row]) -> None:
        """Within a single version no two records may share the PK values."""
        key_columns = self.data_schema.primary_key
        if not key_columns:
            return
        positions = self.data_schema.project_positions(key_columns)
        seen: set[tuple] = set()
        for payload in payloads:
            key = tuple(payload[p] for p in positions)
            if key in seen:
                raise ConstraintViolationError(
                    f"duplicate primary key {key!r} within one version"
                )
            seen.add(key)

    # ------------------------------------------------------------- checkout

    def checkout_rows(self, vids: Sequence[int]) -> list[Row]:
        """Rows ``(rid, *data)`` of one or more versions merged by PK
        precedence: the first version listed wins conflicts (Section 2.2).

        The merge is bitmap-driven: each version only contributes the rids
        no earlier version supplied (``members - taken``, one big-int op),
        and only those rows are fetched — one batched slot-fetch per
        version instead of materializing every version in full and probing
        a dict per row.  PK conflicts among the survivors are still
        resolved per row, since distinct rids can carry the same key.
        """
        for vid in vids:
            self.member_rids(vid)  # raises VersionNotFoundError
        if len(vids) == 1:
            return self.model.fetch_version(vids[0])
        key_columns = self.data_schema.primary_key or tuple(
            self.data_schema.column_names
        )
        positions = [
            self.data_schema.position(name) + 1 for name in key_columns
        ]  # +1 skips the rid column
        # One precompiled key extractor per statement (scalar for a single
        # PK column), matching the batch-executor's join-key kernels.
        if len(positions) == 1:
            key_of = operator.itemgetter(positions[0])
        else:
            key_of = operator.itemgetter(*positions)
        merged: list[Row] = []
        taken_keys: set = set()
        taken_rids = RidSet()
        for vid in vids:
            candidates = self.member_rids(vid) - taken_rids
            if not candidates:
                continue
            for row in self.model.fetch_rows(vid, candidates):
                key = key_of(row)
                if key in taken_keys:
                    continue
                taken_keys.add(key)
                merged.append(row)
            # A rid rejected on a key conflict stays rejected (same rid ⇒
            # same payload ⇒ same key), so the whole candidate set is
            # settled either way and never refetched.
            taken_rids |= candidates
        return merged

    def checkout_into(self, vids: Sequence[int], table_name: str) -> None:
        """Materialize versions into ``table_name`` (rid + data columns)."""
        if len(vids) == 1:
            self.model.checkout_into(vids[0], table_name)
            return
        table = self.db.create_table(
            table_name, self.model.storage_schema(), clustered_on="rid"
        )
        table.insert_many(self.checkout_rows(vids))

    # ----------------------------------------------------------------- diff

    def diff(self, vid_a: int, vid_b: int) -> tuple[list[Row], list[Row]]:
        """Records in ``vid_a`` but not ``vid_b``, and vice versa.

        The two exclusive rid sets are bitmap differences; only their rows
        are fetched (batched), so a small diff between two large versions
        never materializes either version.
        """
        members_a = self.member_rids(vid_a)
        members_b = self.member_rids(vid_b)
        only_a = members_a - members_b
        only_b = members_b - members_a
        rows_a = self.model.fetch_rows(vid_a, only_a) if only_a else []
        rows_b = self.model.fetch_rows(vid_b, only_b) if only_b else []
        return rows_a, rows_b
