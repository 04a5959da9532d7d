"""The OrpheusDB facade: git-style commands over a relational database.

This is the middleware layer of Figure 2.  One :class:`OrpheusDB` instance
wraps one :class:`~repro.storage.engine.Database` and exposes:

* version-control commands — ``init``, ``checkout`` (tables or CSV files,
  one or many versions), ``commit``, ``diff``, ``ls``, ``drop``;
* user commands — ``create_user``, ``config`` (login), ``whoami``;
* SQL — :meth:`run` translates ``VERSION ... OF CVD ...`` constructs and
  executes the result on the backing database;
* ``optimize`` — hands the CVD to the partition optimizer (Section 4).

Timestamps are drawn from a monotonically increasing logical clock so runs
are deterministic; wall-clock time is never load-bearing in the paper's
design and this keeps tests and benchmark traces reproducible.
"""

from __future__ import annotations

import csv as _csv
import re as _re
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.core.cvd import CVD
from repro.core.access import AccessController
from repro.core.provenance import ProvenanceManager, StagedCheckout
from repro.core.translator import QueryTranslator
from repro.errors import (
    CVDNotFoundError,
    ReadOnlyError,
    SchemaEvolutionError,
    StagingError,
    VersioningError,
)
from repro.obs import trace
from repro.storage.engine import Database, Result, split_profile
from repro.storage.parser import ast_nodes as _ast
from repro.storage.parser.parser import parse_sql
from repro.storage.schema import Column, TableSchema
from repro.storage.types import DataType, parse_type_name


class OrpheusDB:
    """A session against one backing database, managing many CVDs.

    When a journal (see :class:`repro.persist.Store`) is attached via
    :meth:`attach_journal`, every *durable* operation — ``init``, ``commit``,
    ``drop``, user management, ``optimize``, and SQL DML against non-staged
    tables — emits a logical record after it succeeds.  Staging state
    (checkouts and DML on staged tables) is working-tree state: it is never
    journaled, only captured by snapshots, so a crash loses uncommitted
    checkouts but never a committed version.
    """

    # Class-level defaults so instances unpickled from releases that
    # predate the journal hooks still resolve these attributes.
    _journal = None
    _replaying = False
    _ephemeral_dirty = False
    _pending_barrier = False
    _optimizers = None
    #: Set by a read-only store open: every mutating command refuses, the
    #: read path (checkout_rows, SELECT-only run, CSV export) stays open.
    read_only = False

    def __init__(
        self, db: Database | None = None, default_model: str = "split_by_rlist"
    ):
        self.db = db or Database()
        self.default_model = default_model
        self._cvds: dict[str, CVD] = {}
        self.provenance = ProvenanceManager()
        self.access = AccessController()
        self.translator = QueryTranslator(self.cvd)
        self._clock = 0
        self._checkout_counts: dict[str, dict[int, int]] = {}
        self._journal = None
        self._replaying = False
        self._ephemeral_dirty = False
        #: Live partition optimizers by CVD name; each one owns its CVD's
        #: placement policy and online-maintenance decisions.
        self._optimizers = {}
        # A default user so single-user scripts need no ceremony.
        self.access.create_user("default")
        self.access.login("default")

    # -------------------------------------------------------------- journal

    def attach_journal(self, journal) -> None:
        """Wire a journal: any object with ``append(record: dict)``."""
        self._journal = journal

    def detach_journal(self) -> None:
        self._journal = None

    def _emit(self, record: dict) -> None:
        """Journal one logical operation (no-op without a journal)."""
        if self._journal is None or self._replaying:
            return
        if self._pending_barrier:
            # An earlier operation left in-memory effects the journal does
            # not carry; replaying this record on top of a journal-built
            # state could diverge (or brick recovery), so have the journal
            # checkpoint right after it.
            record["barrier"] = True
            self._pending_barrier = False
        record["clock"] = self._clock
        try:
            self._journal.append(record)
        except Exception:
            # The operation already applied in memory but was never
            # journaled (e.g. disk full); if the session carries on, the
            # next successful record must checkpoint rather than let
            # recovery replay it against a state missing this one.
            self._pending_barrier = True
            raise

    def _mark_ephemeral(self) -> None:
        """Record that non-journaled (staging) state changed, so a clean
        shutdown should checkpoint."""
        if self.read_only:
            return
        self._ephemeral_dirty = True

    def _check_writable(self, operation: str) -> None:
        # Replay is exempt: a read-only store *applies* the writer's
        # journaled operations to its in-memory state — that is how it
        # refreshes — it just never originates one.
        if self.read_only and not self._replaying:
            raise ReadOnlyError(
                f"cannot {operation}: this session is read-only (store "
                f"opened with mode='ro'; open in mode='rw' to write)"
            )

    # ---------------------------------------------------------------- users

    def create_user(self, username: str) -> None:
        self._check_writable("create a user")
        self.access.create_user(username)
        self._emit({"op": "create_user", "username": username})

    def config(self, username: str) -> None:
        """Log in as ``username`` (the paper's ``config`` command)."""
        self._check_writable("switch users")
        self.access.login(username)
        self._emit({"op": "config", "username": username})

    def whoami(self) -> str:
        return self.access.whoami()

    # ---------------------------------------------------------------- clock

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    # ----------------------------------------------------------------- CVDs

    def cvd(self, name: str) -> CVD:
        try:
            return self._cvds[name]
        except KeyError:
            raise CVDNotFoundError(f"no CVD named {name!r}") from None

    def ls(self) -> list[str]:
        """Names of all CVDs (the ``ls`` command)."""
        return sorted(self._cvds)

    def init(
        self,
        name: str,
        schema: TableSchema | Sequence[tuple[str, str]],
        rows: Iterable[Sequence[Any]] = (),
        model: str | None = None,
        primary_key: Sequence[str] = (),
        message: str = "initial version",
    ) -> CVD:
        """Initialize a new CVD from rows (the ``init`` command).

        ``schema`` is a TableSchema or a list of (name, type-name) pairs.
        ``primary_key`` names the (possibly composite) per-version primary
        key, which drives multi-version checkout precedence (Section 2.2).
        """
        self._check_writable("init a CVD")
        if name in self._cvds:
            raise VersioningError(f"CVD {name!r} already exists")
        if not isinstance(schema, TableSchema):
            schema = TableSchema(
                [Column(n, parse_type_name(t)) for n, t in schema],
                tuple(primary_key),
            )
        elif primary_key:
            schema = TableSchema(list(schema.columns), tuple(primary_key))
        cvd = CVD(self.db, name, schema, model or self.default_model)
        rows = list(rows)
        if rows:
            cvd.init_version(rows, message=message)
        self._cvds[name] = cvd
        self._emit(
            {
                "op": "init",
                "name": name,
                "schema": schema.to_dict(),
                "rows": [list(row) for row in rows],
                "model": model or self.default_model,
                "message": message,
            }
        )
        return cvd

    def init_from_table(
        self, name: str, table_name: str, model: str | None = None
    ) -> CVD:
        """Initialize a CVD from an existing database table."""
        table = self.db.table(table_name)
        return self.init(name, table.schema, list(table.rows()), model=model)

    def init_from_csv(
        self,
        name: str,
        path: str | Path,
        schema: TableSchema | Sequence[tuple[str, str]],
        model: str | None = None,
    ) -> CVD:
        """Initialize a CVD from a CSV file (header row required)."""
        if not isinstance(schema, TableSchema):
            schema = TableSchema([Column(n, parse_type_name(t)) for n, t in schema])
        rows = _read_csv_rows(Path(path), schema)
        return self.init(name, schema, rows, model=model)

    def drop(self, name: str) -> None:
        """Drop a CVD and all of its backing tables."""
        self._check_writable("drop a CVD")
        cvd = self.cvd(name)
        staged = self.provenance.staged_for_cvd(name)
        if staged:
            raise StagingError(
                f"CVD {name!r} has uncommitted checkouts: "
                f"{[s.name for s in staged]}"
            )
        cvd.drop_storage()
        del self._cvds[name]
        if self._optimizers:
            self._optimizers.pop(name, None)
        self._emit({"op": "drop", "name": name})

    # -------------------------------------------------------------- checkout

    def checkout_frequencies(self, cvd_name: str) -> dict[int, int]:
        """Observed checkout counts per version (feeds the weighted
        optimizer of Appendix C.2)."""
        return dict(self._checkout_counts.get(cvd_name, {}))

    def _count_checkout(self, cvd_name: str, vids: Sequence[int]) -> None:
        counts = self._checkout_counts.setdefault(cvd_name, {})
        for vid in vids:
            counts[vid] = counts.get(vid, 0) + 1
        # Checkouts are working-tree state: not journaled, snapshot-only.
        self._mark_ephemeral()

    def checkout(
        self,
        cvd_name: str,
        vids: int | Sequence[int],
        table_name: str,
    ) -> None:
        """``checkout [cvd] -v [vid...] -t [table]``: materialize versions."""
        # Staging a table mutates the database and the provenance manager —
        # a read-only session exports with checkout_rows/checkout_csv.
        self._check_writable("checkout into a staged table")
        cvd = self.cvd(cvd_name)
        vid_list = [vids] if isinstance(vids, int) else list(vids)
        self._count_checkout(cvd_name, vid_list)
        for vid in vid_list:
            cvd.member_rids(vid)  # validate before creating anything
        if self.db.has_table(table_name):
            raise StagingError(f"table {table_name!r} already exists")
        when = self._tick()
        cvd.checkout_into(vid_list, table_name)
        user = self.whoami()
        self.provenance.register(
            StagedCheckout(
                name=table_name,
                cvd_name=cvd_name,
                parent_vids=tuple(vid_list),
                owner=user,
                checkout_time=when,
            )
        )
        self.access.grant_owner(table_name, user)

    def checkout_rows(self, cvd_name: str, vids: int | Sequence[int]) -> list[tuple]:
        """The pure read-path checkout: merged rows of ``vids``, nothing else.

        No staged table, no provenance registration, no clock tick, no
        checkout counting — the session is left byte-for-byte as it was,
        which makes this safe to call concurrently from read-only serving
        sessions (the :mod:`repro.serve` hot path) and during refresh.
        Rows carry the internal rid in column 0, like
        :meth:`CVD.checkout_rows`.
        """
        cvd = self.cvd(cvd_name)
        vid_list = [vids] if isinstance(vids, int) else list(vids)
        with trace.span("checkout", cvd=cvd_name, vids=vid_list):
            return cvd.checkout_rows(vid_list)

    def checkout_csv(
        self,
        cvd_name: str,
        vids: int | Sequence[int],
        path: str | Path,
    ) -> None:
        """``checkout [cvd] -v [vid...] -f [file]``: materialize to CSV.

        In a read-only session this degrades to a plain export: the CSV is
        written (it lives outside the store) but no provenance is staged —
        there is no writer session to commit it back through.
        """
        cvd = self.cvd(cvd_name)
        vid_list = [vids] if isinstance(vids, int) else list(vids)
        if not self.read_only:
            self._count_checkout(cvd_name, vid_list)
        rows = cvd.checkout_rows(vid_list)
        path = Path(path)
        with path.open("w", newline="") as handle:
            writer = _csv.writer(handle)
            writer.writerow(cvd.data_schema.column_names)
            for row in rows:
                writer.writerow(row[1:])  # rid stays internal
        if self.read_only:
            return
        self.provenance.register(
            StagedCheckout(
                name=str(path),
                cvd_name=cvd_name,
                parent_vids=tuple(vid_list),
                owner=self.whoami(),
                checkout_time=self._tick(),
                is_file=True,
            )
        )

    # ---------------------------------------------------------------- commit

    def commit(
        self, table_name: str, message: str = "", schema: TableSchema | None = None
    ) -> int:
        """``commit -t [table] -m [msg]``: add the staged table as a version.

        If the staged table's data columns differ from the CVD schema the
        single-pool evolution of Section 3.3 is applied first.
        """
        self._check_writable("commit")
        staged = self.provenance.lookup(table_name)
        self.access.check_owner(table_name, self.whoami())
        cvd = self.cvd(staged.cvd_name)
        table = self.db.table(table_name)
        table_schema = self._staged_data_schema(table.schema)
        staged_schema = schema or table_schema
        evolved = not _same_columns(staged_schema, cvd.data_schema)
        if evolved:
            self._evolve_schema(cvd, staged_schema)
        rows = list(table.rows())
        has_rid = "rid" in table.schema
        # A checkout table without schema evolution holds (rid, *data) in
        # the CVD's own columns, every value coerced by the same
        # types.coerce on its way in: its rows commit as read.
        rows_coerced = (
            not evolved
            and has_rid
            and table.schema.position("rid") == 0
            and _same_columns(table_schema, cvd.data_schema)
        )
        if not has_rid:
            rows = [
                _conform_row(list(row), table.schema.column_names, cvd.data_schema)
                for row in rows
            ]
        elif not rows_coerced:
            rid_position = table.schema.position("rid")
            data_positions = [i for i in range(len(table.schema)) if i != rid_position]
            rows = [
                (row[rid_position],)
                + _conform_row(
                    [row[i] for i in data_positions],
                    [table.schema.columns[i].name for i in data_positions],
                    cvd.data_schema,
                )
                for row in rows
            ]
        commit_time = self._tick()
        resolved: dict = {}
        vid = cvd.commit_rows(
            staged.parent_vids,
            rows,
            message=message,
            checkout_time=staged.checkout_time,
            commit_time=commit_time,
            rows_have_rid=has_rid,
            rows_coerced=rows_coerced,
            resolved=resolved,
        )
        # Commit cleans up the staging area (Section 2.3).
        self.db.drop_table(table_name)
        self.provenance.remove(table_name)
        self.access.revoke(table_name)
        maintenance = self._evaluate_maintenance(cvd)
        self._emit_commit(
            cvd, vid, staged, resolved,
            message=message,
            commit_time=commit_time,
            schema=staged_schema if evolved else None,
            maintenance=maintenance,
        )
        self._apply_maintenance_trigger(maintenance)
        return vid

    def commit_csv(
        self,
        path: str | Path,
        message: str = "",
        schema: TableSchema | Sequence[tuple[str, str]] | None = None,
    ) -> int:
        """``commit -f [file] -s [schema] -m [msg]``: commit a CSV checkout."""
        self._check_writable("commit")
        path = Path(path)
        staged = self.provenance.lookup(str(path))
        self.access.check_owner(str(path), self.whoami())
        cvd = self.cvd(staged.cvd_name)
        if schema is not None and not isinstance(schema, TableSchema):
            schema = TableSchema([Column(n, parse_type_name(t)) for n, t in schema])
        staged_schema = schema or cvd.data_schema
        evolved = staged_schema.column_names != cvd.data_schema.column_names
        if evolved:
            self._evolve_schema(cvd, staged_schema)
        rows = _read_csv_rows(path, staged_schema)
        rows = [
            _conform_row(list(row), staged_schema.column_names, cvd.data_schema)
            for row in rows
        ]
        commit_time = self._tick()
        resolved: dict = {}
        vid = cvd.commit_rows(
            staged.parent_vids,
            rows,
            message=message,
            checkout_time=staged.checkout_time,
            commit_time=commit_time,
            rows_have_rid=False,
            resolved=resolved,
        )
        self.provenance.remove(str(path))
        self.access.revoke(str(path))
        maintenance = self._evaluate_maintenance(cvd)
        self._emit_commit(
            cvd, vid, staged, resolved,
            message=message,
            commit_time=commit_time,
            schema=staged_schema if evolved else None,
            maintenance=maintenance,
        )
        self._apply_maintenance_trigger(maintenance)
        return vid

    def _emit_commit(
        self,
        cvd: CVD,
        vid: int,
        staged: StagedCheckout,
        resolved: dict,
        message: str,
        commit_time: int,
        schema: TableSchema | None,
        maintenance=None,
    ) -> None:
        """Journal the physical resolution of a commit.

        The record carries the exact ordered membership and the new record
        payloads, so recovery re-applies it byte-identically without the
        staged table.  The journal compacts the membership against
        ``parent_order`` into an O(delta) encoding.

        For partitioned storage the record also pins the partition the
        commit landed in: placement normally comes from a live policy
        (installed by the optimizer) that recovery cannot reconstruct, so
        replay must force the acknowledged placement instead of re-deciding.
        A live optimizer's post-commit maintenance sample piggybacks on the
        same record (``maintain``) so a commit stays one fsync'd append.
        """
        partition = None
        partition_of = getattr(cvd.model, "partition_of", None)
        if partition_of is not None:
            partition = partition_of(vid)
        record = {
            "op": "commit",
            "cvd": cvd.name,
            "vid": vid,
            "parents": list(staged.parent_vids),
            "member_rids": list(resolved["member_rids"]),
            "parent_order": list(resolved["parent_order"]),
            "new_records": [
                [rid, list(payload)]
                for rid, payload in resolved["new_records"].items()
            ],
            "staged": staged.name,
            "staged_is_file": staged.is_file,
            "partition": partition,
            "schema": schema.to_dict() if schema is not None else None,
            "message": message,
            "checkout_time": staged.checkout_time,
            "commit_time": commit_time,
        }
        if maintenance is not None:
            _optimizer, sample, _best = maintenance
            record["maintain"] = [
                sample.version_count,
                sample.current_cavg,
                sample.best_cavg,
            ]
        self._emit(record)

    def _staged_data_schema(self, table_schema: TableSchema) -> TableSchema:
        columns = [c for c in table_schema.columns if c.name != "rid"]
        return TableSchema(columns)

    def _evolve_schema(self, cvd: CVD, staged_schema: TableSchema) -> None:
        plan = cvd.attributes.reconcile(cvd.data_schema, staged_schema)
        model = cvd.model
        if plan.added_columns or plan.widened_columns:
            if not hasattr(model, "data_table"):
                raise SchemaEvolutionError(
                    f"data model {model.model_name!r} does not support "
                    f"schema evolution"
                )
            data_table = self.db.table(model.data_table)
            for column in plan.added_columns:
                data_table.alter_add_column(column)
            for name, dtype in plan.widened_columns:
                data_table.alter_column_type(name, dtype)
        cvd.data_schema = plan.new_schema
        model.data_schema = plan.new_schema
        cvd._current_attribute_ids = plan.attribute_ids

    # ------------------------------------------------------------------ SQL

    def run(self, sql: str, params: Sequence[Any] = ()) -> Result:
        """Execute SQL, translating versioned constructs first.

        Mutating statements against durable tables are journaled; DML that
        touches only staged checkout tables is working-tree state and is
        captured by snapshots instead.

        A leading ``PROFILE`` keyword (``PROFILE SELECT ...``) runs the
        query instrumented and returns the per-operator report; being a
        read, it is never journaled.
        """
        profiled, sql = split_profile(sql)
        translated = self.translator.translate(sql)
        statements = parse_sql(translated, params)
        if profiled:
            with trace.span("sql.profile"):
                return self.db.execute_profiled(statements)
        if self.read_only and not self._replaying:
            mutating, _targets = _statement_targets(statements)
            if mutating:
                raise ReadOnlyError(
                    "cannot run mutating SQL: this session is read-only "
                    "(store opened with mode='ro')"
                )
        try:
            with trace.span("sql.run"):
                result = self.db.execute_statements(statements)
        except Exception:
            if self._journal is not None and not self._replaying:
                mutating, targets = _statement_targets(statements)
                staged = set(self.provenance.staged_names())
                if mutating and not (targets and all(t in staged for t in targets)):
                    # Statements apply one at a time, so a mid-script
                    # failure may have mutated *durable* state that was
                    # never journaled; flag it so the next journaled
                    # record checkpoints instead of building on divergent
                    # replay.  Staged-only scripts are exempt: staging is
                    # snapshot-only state and never replayed.
                    self._pending_barrier = True
            raise
        if self._journal is not None and not self._replaying:
            self._classify_and_journal_run(sql, translated, params, statements)
        return result

    def _classify_and_journal_run(
        self,
        sql: str,
        translated: str,
        params: Sequence[Any],
        statements: Sequence[_ast.Statement],
    ) -> None:
        mutating, targets = _statement_targets(statements)
        if not mutating:
            return
        staged = set(self.provenance.staged_names())
        if targets and all(t in staged for t in targets):
            self._mark_ephemeral()
            return
        record = {"op": "run", "sql": sql, "params": list(params)}
        if staged and _references_any(translated, staged):
            # DML writing durable tables while *reading* staged state cannot
            # be replayed from the log once staging is gone; the barrier asks
            # the journal to checkpoint immediately so the effect is captured
            # by a snapshot instead.
            record["barrier"] = True
        self._emit(record)

    # ------------------------------------------------- version-graph shortcuts

    def ancestors(self, cvd_name: str, vid: int) -> list[int]:
        """All transitive ancestors of a version (Section 2.2 shortcut)."""
        return sorted(self.cvd(cvd_name).graph.ancestors(vid))

    def descendants(self, cvd_name: str, vid: int) -> list[int]:
        """All transitive descendants of a version."""
        return sorted(self.cvd(cvd_name).graph.descendants(vid))

    def on_branch(self, cvd_name: str, vid: int) -> list[int]:
        """Versions whose edits are visible at ``vid`` (ancestors + itself)."""
        return sorted(self.cvd(cvd_name).graph.on_branch(vid))

    def is_ancestor(self, cvd_name: str, ancestor: int, descendant: int) -> bool:
        """True when ``descendant`` derives (transitively) from ``ancestor``."""
        return self.cvd(cvd_name).graph.is_ancestor(ancestor, descendant)

    def version_path(self, cvd_name: str, source: int, target: int) -> list[int]:
        """Versions on derivation paths ``source .. target`` inclusive —
        the spine a multi-version diff walks; empty when ``source`` is not
        an ancestor of ``target``."""
        return sorted(self.cvd(cvd_name).graph.path_between(source, target))

    def parents_of(self, cvd_name: str, vid: int) -> tuple[int, ...]:
        return self.cvd(cvd_name).version(vid).parents

    def children_of(self, cvd_name: str, vid: int) -> list[int]:
        return sorted(self.cvd(cvd_name).graph.children(vid))

    def last_modified(self, cvd_name: str):
        """The most recently committed version (vid, commit_time, message).

        The same information is SQL-reachable through the metadata table;
        this is the paper's convenience shortcut.
        """
        cvd = self.cvd(cvd_name)
        latest = max(
            cvd.graph.versions(),
            key=lambda v: (v.commit_time or 0, v.vid),
        )
        return latest.vid, latest.commit_time, latest.message

    def version_log(self, cvd_name: str) -> list[dict]:
        """Topologically ordered version metadata (the ``log`` command)."""
        cvd = self.cvd(cvd_name)
        out = []
        for vid in cvd.graph.topological_order():
            version = cvd.version(vid)
            out.append(
                {
                    "vid": vid,
                    "parents": version.parents,
                    "num_records": version.num_records,
                    "commit_time": version.commit_time,
                    "message": version.message,
                }
            )
        return out

    # ----------------------------------------------------------------- diff

    def diff(self, cvd_name: str, vid_a: int, vid_b: int):
        """Records in one version but not the other (the ``diff`` command)."""
        return self.cvd(cvd_name).diff(vid_a, vid_b)

    # ------------------------------------------------------------- optimize

    def optimize(
        self,
        cvd_name: str,
        storage_threshold: float = 2.0,
        tolerance: float = 1.5,
        weighted: bool = False,
        _frequencies: dict[int, int] | None = None,
        _migration_wall_seconds: float | None = None,
    ):
        """Partition a CVD with LyreSplit (the ``optimize`` command).

        ``storage_threshold`` is gamma expressed as a multiple of |R|;
        ``tolerance`` is the migration trigger mu.  With ``weighted`` the
        observed checkout frequencies drive the Appendix C.2 objective.
        Returns the :class:`~repro.partition.online.PartitionOptimizer` now
        managing the CVD; once registered it also runs the Section 4.3
        online-maintenance rule after every subsequent commit.  Re-running
        ``optimize`` on an already-partitioned CVD re-tunes the registered
        optimizer and migrates instead of rebuilding from scratch.
        """
        from repro.errors import PartitionError
        from repro.partition.online import PartitionOptimizer

        self._check_writable("optimize")
        cvd = self.cvd(cvd_name)
        frequencies = _frequencies
        if frequencies is None and weighted:
            frequencies = self.checkout_frequencies(cvd_name)
        optimizer = self.optimizer_for(cvd_name)
        knobs = None
        if optimizer is None:
            optimizer = PartitionOptimizer(
                cvd,
                storage_multiple=storage_threshold,
                tolerance=tolerance,
                frequencies=frequencies or None,
            )
            if cvd.model.model_name == "partitioned_rlist":
                # Already-partitioned storage with no live optimizer (a
                # pre-optimizer-state restore): adopt it and migrate
                # instead of rebuilding partitions that already exist.
                optimizer.adopt_model(cvd.model)
        else:
            if tolerance < 1.0:
                raise PartitionError("tolerance mu must be >= 1")
            knobs = (
                optimizer.storage_multiple,
                optimizer.tolerance,
                optimizer.frequencies,
            )
            optimizer.storage_multiple = storage_threshold
            optimizer.tolerance = tolerance
            if frequencies:
                optimizer.frequencies = frequencies
        migrations_before = len(optimizer.trace.migrations)
        try:
            optimizer.run_full_partitioning()
        except PartitionError:
            # A rejected optimize (e.g. gamma below |R|) is never journaled,
            # so it must leave no trace: no half-installed optimizer, no
            # retuned budget the next commit's maintenance would run with.
            if knobs is not None:
                (
                    optimizer.storage_multiple,
                    optimizer.tolerance,
                    optimizer.frequencies,
                ) = knobs
            raise
        self._register_optimizer(cvd_name, optimizer)
        migrated = len(optimizer.trace.migrations) > migrations_before
        if migrated and _migration_wall_seconds is not None:
            # Replay path: a re-optimize's embedded migration re-executes
            # with meaningless timing; restore the acknowledged one so the
            # recovered trace matches the live trace exactly.
            optimizer.trace.migrations[-1].wall_seconds = (
                _migration_wall_seconds
            )
        self._emit(
            {
                "op": "optimize",
                "cvd": cvd_name,
                "storage_threshold": storage_threshold,
                "tolerance": tolerance,
                # Checkout counts are not journaled, so recovery replays the
                # optimization with the frequencies resolved at call time.
                "frequencies": (
                    sorted(frequencies.items()) if frequencies else None
                ),
                # Timing of the migration a re-optimize performed (if any),
                # for exact trace restore on replay.
                "migration_wall_seconds": (
                    optimizer.trace.migrations[-1].wall_seconds
                    if migrated
                    else None
                ),
            }
        )
        return optimizer

    def optimizer_for(self, cvd_name: str):
        """The live optimizer managing ``cvd_name`` (None = fallback rule)."""
        registry = self._optimizers
        return registry.get(cvd_name) if registry else None

    def _register_optimizer(self, cvd_name: str, optimizer) -> None:
        """Track an optimizer and wire its transition journaling."""
        if self._optimizers is None:  # legacy-pickle instances lack the dict
            self._optimizers = {}
        self._optimizers[cvd_name] = optimizer
        optimizer.journal = self._emit

    def _evaluate_maintenance(self, cvd: CVD):
        """Post-commit hook, phase 1: compute the online rule's sample.

        Returns ``(optimizer, sample, best)`` when a live optimizer manages
        the CVD (the sample then piggybacks on the commit's own WAL record)
        or None.  Replay never recomputes maintenance — the live run
        journaled every transition and recovery applies those instead.
        """
        optimizer = self.optimizer_for(cvd.name)
        if optimizer is None or self._replaying:
            return None
        sample, best = optimizer.evaluate_maintenance()
        return optimizer, sample, best

    def _apply_maintenance_trigger(self, maintenance) -> None:
        """Post-commit hook, phase 2: fire the tolerance check.

        Runs after the commit record is journaled, so a triggered
        migration's ``migration_start``/``migration_finish`` records land
        behind the commit they react to and replay in the right order.
        """
        if maintenance is None:
            return
        optimizer, sample, best = maintenance
        optimizer.apply_tolerance_trigger(sample, best)

    def resume_inflight_migrations(self) -> list[str]:
        """Roll forward any journaled-but-unfinished migration.

        Called by recovery after the WAL tail replays: a crash between a
        ``migration_start`` and its ``migration_finish`` leaves the decided
        plan pending; executing it here (and journaling the finish) makes
        the acknowledged decision stick.  Returns the affected CVD names.
        """
        resumed = []
        for name, optimizer in sorted((self._optimizers or {}).items()):
            if optimizer.pending_migration is not None:
                optimizer.complete_pending_migration()
                resumed.append(name)
        return resumed


_MUTATING_STATEMENTS = (
    _ast.Insert,
    _ast.Update,
    _ast.Delete,
    _ast.CreateTable,
    _ast.DropTable,
    _ast.CreateIndex,
    _ast.DropIndex,
    _ast.AlterTableAddColumn,
    _ast.ClusterTable,
)


def _references_any(sql: str, names: set[str]) -> bool:
    """Whether the SQL text mentions any of the names as a whole word.

    A conservative token-level check (false positives only cost an extra
    checkpoint), used to spot durable DML that reads staged tables.
    """
    return any(_re.search(rf"\b{_re.escape(name)}\b", sql) for name in names)


def _statement_targets(
    statements: Sequence[_ast.Statement],
) -> tuple[bool, list[str]]:
    """(any statement mutates?, tables written by the mutating statements)."""
    mutating = False
    targets: list[str] = []
    for statement in statements:
        if isinstance(statement, _ast.Select):
            if statement.into_table:
                mutating = True
                targets.append(statement.into_table)
        elif isinstance(statement, _MUTATING_STATEMENTS):
            mutating = True
            targets.append(statement.table)
        else:  # pragma: no cover - future statement kinds: be conservative
            mutating = True
    return mutating, targets


def _same_columns(a: TableSchema, b: TableSchema) -> bool:
    """Whether two schemas hold the same (name, dtype) columns in order."""
    return [(c.name, c.dtype) for c in a.columns] == [
        (c.name, c.dtype) for c in b.columns
    ]


def _conform_row(values: list[Any], names: list[str], target: TableSchema) -> tuple:
    """Re-order/pad a staged row onto the CVD's data schema by column name."""
    by_name = dict(zip(names, values))
    return tuple(by_name.get(column.name) for column in target.columns)


def _read_csv_rows(path: Path, schema: TableSchema) -> list[tuple]:
    with path.open(newline="") as handle:
        reader = _csv.reader(handle)
        header = next(reader, None)
        if header is None:
            return []
        positions = [
            header.index(name) if name in header else None
            for name in schema.column_names
        ]
        # CSV cannot distinguish NULL from the empty string.  For TEXT the
        # empty string is a legitimate value and wins; for every other type
        # an empty cell can only mean NULL — feeding "" to types.coerce
        # would raise TypeMismatchError on the first blank INT/REAL field.
        keeps_empty = [column.dtype is DataType.TEXT for column in schema.columns]
        rows = []
        for raw in reader:
            values = []
            for position, keep_empty in zip(positions, keeps_empty):
                value = (
                    raw[position]
                    if position is not None and position < len(raw)
                    else None
                )
                if value == "" and not keep_empty:
                    value = None
                values.append(value)
            rows.append(tuple(values))
        return rows
