"""Collaborative versioned datasets (CVDs) — paper Section 2.1.

A CVD couples:

* a *data model* instance (physical storage of records and membership),
* the Python-side :class:`~repro.core.version_graph.VersionGraph` with
  derivation edges weighted by shared-record counts (what LyreSplit reads),
* rid-membership sets per version (what the bipartite cost model reads) —
  the one copy of each version's rid set: the data model reads this dict
  and the CVD is its only writer — and
* a DB-resident metadata table (Figure 4a) holding version provenance so the
  metadata itself is SQL-queryable, as the paper's version manager provides.

Records are immutable: commit never mutates a stored record; a modified row
gets a fresh rid.  Commits compare staged rows only against the *parent*
versions (the "no cross-version diff" rule of Section 2.2), so a record
deleted and re-added later intentionally receives a new rid.

A version's membership is a set: a commit hands the data model a
:class:`~repro.storage.ridset.RidSet`, never the staged row order.  A staged
checkout table that knows its change set (:class:`~repro.storage.table.
ChangeSet`) is prepared by :meth:`CVD.prepare_changes` — set algebra over
the rows its DML touched; everything else by :meth:`CVD.prepare_rows`,
which compares every staged row with the parents.  Both, like every other
way in (init, bulk loaders, WAL replay), yield a :class:`PreparedVersion`:
checked, numbered and placed, with nothing written.
:meth:`CVD.apply_version` then stores it, so a refused version uses up no
rid and no vid.
"""

from __future__ import annotations

import operator
from typing import Any, Iterable, Mapping, Sequence

from repro.core.datamodels import SplitByRlistModel, resolve_model
from repro.core.datamodels.base import DataModel, Row, require_free
from repro.core.schema_evolution import AttributeCatalog, SchemaChangePlan
from repro.core.version import Version
from repro.core.version_graph import VersionGraph
from repro.errors import (
    ConstraintViolationError,
    SchemaEvolutionError,
    VersionNotFoundError,
)
from repro.record import Record
from repro.storage.engine import Database
from repro.storage.ridset import RidSet
from repro.storage.schema import Column, TableSchema
from repro.storage.table import Table
from repro.storage.types import DataType


class PreparedVersion(Record):
    """A version checked and numbered but not yet stored: what
    :meth:`CVD.apply_version` writes and a WAL commit record carries.

    ``drop`` is the parents' records the version does not inherit;
    ``partition`` is where a partitioned model stores it (None for the
    other models).
    """

    __slots__ = _fields = (
        "vid",
        "parents",
        "members",
        "new_records",
        "drop",
        "partition",
        "message",
        "checkout_time",
        "commit_time",
    )

    def __init__(
        self,
        vid: int,
        parents: tuple[int, ...],
        members: RidSet,
        new_records: dict[int, Row],
        drop: RidSet,
        partition: int | None,
        message: str = "",
        checkout_time: int | None = None,
        commit_time: int | None = None,
    ):
        self.vid, self.parents, self.members = vid, parents, members
        self.new_records, self.drop, self.partition = new_records, drop, partition
        self.message, self.checkout_time = message, checkout_time
        self.commit_time = commit_time


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
        #: rid membership per version as packed bitmaps; every membership-
        #: heavy operation (multi-version checkout, diff, commit checks,
        #: partition cost evaluation) is set algebra over these.
        self.membership: dict[int, RidSet] = {}
        model_cls = resolve_model(model) if isinstance(model, str) else model
        self.model: DataModel = model_cls(db, name, data_schema)
        self.model.membership = self.membership
        self.graph = VersionGraph()
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

    def edge_weights(self, members: RidSet, parents: Sequence[int]) -> dict[int, int]:
        """``w(parent, v)`` for each parent of a version with ``members``:
        the records the two share."""
        return {
            parent: members.intersection_count(self.membership[parent])
            for parent in parents
        }

    # --------------------------------------------------------------- ingest

    def prepare_version(
        self,
        parents: Sequence[int],
        member_rids: Iterable[int],
        new_records: Mapping[int, Row],
        message: str = "",
        checkout_time: int | None = None,
        commit_time: int | None = None,
    ) -> PreparedVersion:
        """Check a version and decide its vid and placement; writes nothing.

        Every rid in ``new_records`` is fresh (from :meth:`allocate_rid`,
        or the next free rids when the caller numbers them); every other
        member rid must belong to at least one parent.  The members may
        come in any order: a version is a set of records, and the model
        receives them as a :class:`RidSet`.  New records are checked
        against NOT NULL here, the same way for every data model.
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
        payloads = new_records.values()
        for position, column in enumerate(self.data_schema.columns):
            if column.not_null and any(row[position] is None for row in payloads):
                raise ConstraintViolationError(
                    f"null value in NOT NULL column {column.name!r}"
                )
        # A partitioned model's optimizer places the version (Section 4.3),
        # counting the records the version adds.
        optimizer = getattr(self.model, "optimizer", None)
        partition = None
        if optimizer is not None:
            record_count = max(self._next_rid - 1, max(new_records, default=0))
            partition = optimizer._place_version(members, parents, record_count)
        vid, drop = self._next_vid, parent_union - inherited
        require_free(
            self.db,
            self.model.version_tables(vid, partition),
            f"version {vid} of CVD {self.name!r}",
        )
        info = (message, checkout_time, commit_time)
        return PreparedVersion(
            vid, tuple(parents), members, dict(new_records), drop, partition, *info
        )

    def apply_version(self, version: PreparedVersion) -> int:
        """Store a prepared version (live commit and WAL replay alike)."""
        vid, members, parents = version.vid, version.members, version.parents
        self.model.add_version(
            vid, members, version.new_records, parents, version.partition
        )
        self._next_vid = vid + 1
        if version.new_records:
            self._next_rid = max(self._next_rid, max(version.new_records) + 1)
        # The metadata row (Figure 4a) holds the Version's fields in order.
        info = (version.checkout_time, version.commit_time, version.message)
        row = (vid, parents, len(members), *info, tuple(self._current_attribute_ids))
        self.graph.add_version(Version(*row), self.edge_weights(members, parents))
        self.membership[vid] = members
        self.db.execute(
            f"INSERT INTO {self.metadata_table} VALUES (%s, %s, %s, %s, %s, %s, %s)",
            row,
        )
        return vid

    def ingest_version(self, *args, **kwargs) -> int:
        """Low-level commit: membership and new payloads already resolved
        (bulk workload loaders); takes :meth:`prepare_version`'s arguments."""
        return self.apply_version(self.prepare_version(*args, **kwargs))

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
            vid = self._next_vid
            self._next_vid += 1
            assigned_vids.append(vid)
            entries.append((vid, tuple(parents), list(member_rids)))
        self.model.bulk_load(entries, payloads)
        metadata_rows = []
        for vid, parents, member_rids in entries:
            members = RidSet(member_rids)
            self.graph.add_version(
                Version(
                    vid=vid,
                    parents=parents,
                    num_records=len(members),
                    attribute_ids=tuple(self._current_attribute_ids),
                ),
                self.edge_weights(members, parents),
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

    def prepare_root(
        self, rows: Iterable[Sequence[Any]], message: str = "initial version"
    ) -> PreparedVersion:
        """Check raw data rows as the root version (the ``init`` command)."""
        fresh = [self.data_schema.coerce_row(row) for row in rows]
        self._check_primary_key(fresh)
        return self._number((), RidSet(), fresh, message=message)

    def init_version(
        self, rows: Iterable[Sequence[Any]], message: str = "initial version"
    ) -> int:
        """Create the root version from raw data rows."""
        return self.apply_version(self.prepare_root(rows, message))

    # --------------------------------------------------------------- commit

    def parent_record_order(self, parents: Sequence[int]) -> dict[int, Row]:
        """rid -> payload over the given parents, first parent winning.

        :meth:`prepare_rows` reads it to tell unchanged rows from changed
        ones; it fetches every parent record, so a staged table that
        knows its change set (:meth:`prepare_changes`) never calls it.
        """
        parent_records: dict[int, Row] = {}
        for parent in parents:
            for rid, payload in self.model.records_of(parent).items():
                parent_records.setdefault(rid, payload)
        return parent_records

    def commit_rows(self, parents, staged_rows, **options) -> int:
        """Commit staged rows as a new version; see :meth:`prepare_rows`."""
        return self.apply_version(self.prepare_rows(parents, staged_rows, **options))

    def prepare_rows(
        self,
        parents: Sequence[int],
        staged_rows: Iterable[Sequence[Any]],
        rows_have_rid: bool = True,
        plan: SchemaChangePlan | None = None,
        **version_info,
    ) -> PreparedVersion:
        """Prepare staged rows as a new version, comparing each with the parents.

        ``staged_rows`` are ``(rid, *data)`` tuples when ``rows_have_rid``
        (the checkout-table path; ``rid`` may be NULL for user-inserted
        rows), or bare data tuples (the CSV path), in which case unchanged
        rows are recognized by exact value match against the parents.
        With a schema-change ``plan`` the rows are in its new schema and
        the parents are compared as they read back once it is applied.
        """
        schema = self.data_schema if plan is None else plan.new_schema
        parent_records = self.parent_record_order(parents)
        if plan is not None:
            parent_records = {
                rid: plan.evolve_row(payload) for rid, payload in parent_records.items()
            }
        value_index: dict[Row, int] = {}
        if not rows_have_rid:
            for rid, payload in parent_records.items():
                value_index.setdefault(payload, rid)
        kept: set[int] = set()
        fresh: list[Row] = []
        for staged in staged_rows:
            if rows_have_rid:
                rid, payload = staged[0], staged[1:]
            else:
                rid, payload = None, staged
            payload = schema.coerce_row(payload)
            if rows_have_rid:
                keep = rid is not None and parent_records.get(rid) == payload
            else:
                rid = value_index.get(payload)
                keep = rid is not None
            if not keep:
                fresh.append(payload)
                continue
            if rid in kept:
                raise ConstraintViolationError(
                    f"record {rid} appears twice in the committed table"
                )
            kept.add(rid)
        self._check_primary_key(
            [parent_records[rid] for rid in kept] + fresh, schema=schema
        )
        return self._number(parents, RidSet(kept), fresh, **version_info)

    def prepare_changes(
        self, parents: Sequence[int], table: Table, **version_info
    ) -> PreparedVersion:
        """Prepare a staged checkout table from its :class:`ChangeSet`.

        The table holds ``(rid, *data)`` in the CVD's own columns and was
        materialized from ``parents``.  An updated row keeps its rid iff
        its payload still ``==`` the checked-out one (the same test as
        :meth:`prepare_rows`); membership is ``base - deleted - replaced |
        new``.  Only the changed rows are read; the primary key is checked
        in one uncharged pass over the staged key column.
        """
        changes = table.changes
        updated, inserted = table.changed_rows()
        replaced = []
        fresh: list[Row] = []
        for original, row in updated:
            payload = row[1:]
            if original[1:] != payload:
                replaced.append(original[0])
                fresh.append(payload)
        fresh.extend(row[1:] for row in inserted)
        self._check_primary_key(table.dump_rows(), offset=1)
        kept = changes.base_rids - RidSet(changes.deleted) - RidSet(replaced)
        return self._number(parents, kept, fresh, **version_info)

    def _number(
        self, parents: Sequence[int], kept: RidSet, fresh: list[Row], **version_info
    ) -> PreparedVersion:
        """Number the checked ``fresh`` payloads from the next free rid."""
        new_records = dict(enumerate(fresh, self._next_rid))
        return self.prepare_version(
            parents, kept | RidSet(new_records), new_records, **version_info
        )

    def _check_primary_key(
        self, rows: Iterable[Row], offset: int = 0, schema: TableSchema | None = None
    ) -> None:
        """Within a single version no two records may share the PK values.

        ``offset`` skips leading non-data columns (a staged ``rid``).
        """
        schema = schema or self.data_schema
        key_columns = schema.primary_key
        if not key_columns:
            return
        positions = [
            position + offset for position in schema.project_positions(key_columns)
        ]
        key_of = operator.itemgetter(*positions)
        keys = list(map(key_of, rows))
        if len(set(keys)) == len(keys):
            return
        seen: set = set()
        for key in keys:
            if key in seen:
                shown = key if len(positions) > 1 else (key,)
                raise ConstraintViolationError(
                    f"duplicate primary key {shown!r} within one version"
                )
            seen.add(key)

    # ----------------------------------------------------- schema evolution

    def plan_evolution(self, staged_schema: TableSchema) -> SchemaChangePlan:
        """The single-pool evolution of Section 3.3 to ``staged_schema``."""
        plan = self.attributes.reconcile(self.data_schema, staged_schema)
        alters_storage = plan.added_columns or plan.widened_columns
        if alters_storage and not hasattr(self.model, "data_table"):
            raise SchemaEvolutionError(
                f"data model {self.model.model_name!r} does not support "
                f"schema evolution"
            )
        return plan

    def apply_evolution(self, plan: SchemaChangePlan) -> None:
        self.attributes.apply_entries(plan.new_attributes)
        if plan.added_columns or plan.widened_columns:
            data_table = self.db.table(self.model.data_table)
            for column in plan.added_columns:
                data_table.alter_add_column(column)
            for name, dtype in plan.widened_columns:
                data_table.alter_column_type(name, dtype)
        self.data_schema = self.model.data_schema = plan.new_schema
        self._current_attribute_ids = plan.attribute_ids

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
        """Materialize versions into ``table_name`` (rid + data columns),
        which from then on tracks its change set for :meth:`prepare_changes`."""
        if len(vids) == 1:
            self.model.checkout_into(vids[0], table_name)
            self.db.table(table_name).track_changes(self.membership[vids[0]])
            return
        table = self.db.create_table(
            table_name, self.model.storage_schema(), clustered_on="rid"
        )
        rows = self.checkout_rows(vids)
        table.insert_many(rows)
        table.track_changes(RidSet(row[0] for row in rows))

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
