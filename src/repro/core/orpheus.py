"""The OrpheusDB facade: git-style commands over a relational database.

This is the middleware layer of Figure 2.  One :class:`OrpheusDB` instance
wraps one :class:`~repro.storage.engine.Database` and exposes:

* version-control commands — ``init``, ``checkout`` (tables or CSV files,
  one or many versions), ``commit``, ``diff``, ``ls``, ``drop``;
* user commands — ``create_user``, ``config`` (login), ``whoami``;
* SQL — :meth:`run` parses once and executes on the backing database,
  whose planner asks the session's translator for each versioned FROM
  item (``VERSION ... OF CVD ...`` and kin);
* ``optimize`` — hands the CVD to the partition optimizer (Section 4).

Timestamps are drawn from a monotonically increasing logical clock so runs
are deterministic; wall-clock time is never load-bearing in the paper's
design and this keeps tests and benchmark traces reproducible.
"""

from __future__ import annotations

import csv as _csv
import logging
import re as _re
import time
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.core.cvd import CVD, PreparedVersion
from repro.core.datamodels.base import require_free
from repro.core.access import AccessController
from repro.core.provenance import ProvenanceManager, StagedCheckout
from repro.core.translator import QueryTranslator
from repro.errors import (
    CatalogError,
    CVDNotFoundError,
    DuplicateObjectError,
    ReadOnlyError,
    StagingError,
    VersioningError,
)
from repro.obs import metrics, trace
from repro.storage.engine import Database, Result, split_profile
from repro.storage.parser import ast_nodes as _ast
from repro.storage.parser.parser import parse_sql
from repro.storage.ridset import RidSet
from repro.storage.schema import Column, TableSchema
from repro.storage.types import DataType, pack_block, parse_type_name

_log = logging.getLogger("repro.core.orpheus")
#: What the post-commit tolerance check (the tree-only delta search) costs,
#: once per commit of a CVD a live optimizer manages.
_MAINTENANCE_SECONDS = metrics.histogram("partition.maintenance_seconds")


class OrpheusDB:
    """A session against one backing database, managing many CVDs.

    When a journal (see :class:`repro.persist.Store`) is attached via
    :meth:`attach_journal`, every *durable* operation — ``init``, ``commit``,
    ``drop``, user management, ``optimize``, and SQL DML against non-staged
    tables — emits a logical record after it succeeds.  Staging state
    (checkouts and DML on staged tables) is working-tree state: it is never
    journaled, only captured by snapshots, so a crash loses uncommitted
    checkouts but never a committed version.

    Each durable operation is two steps.  ``_prepare_*`` checks and decides
    everything and writes nothing, so a refused operation leaves the
    session as it was; ``_apply_*`` only writes.  The public method runs
    prepare and encodes its record (:meth:`_encode`), applies, then
    journals the encoded bytes (:meth:`_emit`); WAL replay decodes the
    record and runs the same apply.
    """

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
        self.db.version_resolver = self.translator
        self._clock = 0
        self._checkout_counts: dict[str, dict[int, int]] = {}
        self._journal = None
        self._ephemeral_dirty = False
        self._pending_barrier = False
        #: Live partition optimizers by CVD name; each one places its CVD's
        #: commits and makes its online-maintenance decisions.
        self._optimizers = {}
        # A default user so single-user scripts need no ceremony.
        self.access.create_user("default")
        self.access.login("default")

    # -------------------------------------------------------------- journal

    def attach_journal(self, journal) -> None:
        """Wire a journal: any object with ``encode(record: dict) -> bytes``
        (a JSON object; it may refuse) and ``append(body: bytes, barrier:
        bool)`` (see :class:`repro.persist.Store`)."""
        self._journal = journal

    def detach_journal(self) -> None:
        self._journal = None

    def _encode(self, record: dict, clock: int | None = None):
        """``(body, barrier)`` of an operation's record, encoded in its
        prepare step (None without a journal): the journal's refusal leaves
        nothing applied.  ``clock`` is the clock the apply leaves."""
        if self._journal is None:
            return None
        if self._pending_barrier:
            # An earlier operation left in-memory effects the journal does
            # not carry; replaying this record on top of a journal-built
            # state could diverge (or brick recovery), so have the journal
            # checkpoint right after it.
            record["barrier"] = True
        record["clock"] = self._clock if clock is None else clock
        return self._journal.encode(record), record.get("barrier", False)

    def _emit(self, entry, **applied) -> None:
        """Journal an :meth:`_encode` entry once its operation has applied.

        ``applied`` holds the numbers the operation learned as it applied
        (a commit's maintenance sample, a migration's timing); they join
        the encoded JSON object and cannot fail to encode.  So only the
        journal's write or fsync can fail here.  The caller then holds an
        operation that is applied in memory but not in the log, like a
        lost ack: the next journaled operation carries ``barrier``, and its
        checkpoint makes this one durable too; a crash before that loses
        it.
        """
        if entry is None:
            return
        body, barrier = entry
        if applied:
            body = body[:-1] + b"," + self._journal.encode(applied)[1:]
        self._pending_barrier = False
        try:
            self._journal.append(body, barrier)
        except Exception:
            self._pending_barrier = True
            raise

    def _mark_ephemeral(self) -> None:
        """Record that non-journaled (staging) state changed, so a clean
        shutdown should checkpoint."""
        if self.read_only:
            return
        self._ephemeral_dirty = True

    def _check_writable(self, operation: str) -> None:
        # Only the public methods ask: a read-only store refreshes by
        # running the writer's journaled records through the apply steps.
        if self.read_only:
            raise ReadOnlyError(
                f"cannot {operation}: this session is read-only (store "
                f"opened with mode='ro'; open in mode='rw' to write)"
            )

    # ---------------------------------------------------------------- users

    def create_user(self, username: str) -> None:
        self._check_writable("create a user")
        entry = self._encode({"op": "create_user", "username": username})
        self.access.create_user(username)
        self._emit(entry)

    def config(self, username: str) -> None:
        """Log in as ``username`` (the paper's ``config`` command)."""
        self._check_writable("switch users")
        entry = self._encode({"op": "config", "username": username})
        self.access.login(username)
        self._emit(entry)

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
        ``name`` must be a lowercase bare identifier: it prefixes every
        backing table, which SQL text (the CVD's own inserts, the user's
        statements) spells unquoted.
        """
        self._check_writable("init a CVD")
        if not isinstance(schema, TableSchema):
            schema = TableSchema(
                [Column(n, parse_type_name(t)) for n, t in schema],
                tuple(primary_key),
            )
        elif primary_key:
            schema = TableSchema(list(schema.columns), tuple(primary_key))
        rows = list(rows)
        model = model or self.default_model
        root = self._prepare_init(name, schema, rows, model, message)
        entry = self._encode(
            {
                "op": "init",
                "name": name,
                "schema": schema.to_dict(),
                "rows": pack_block(
                    [] if root is None else list(root.new_records.values()),
                    schema.dtypes,
                ),
                "model": model,
                "message": message,
            }
        )
        cvd = self._apply_init(name, schema, model, root)
        self._emit(entry)
        return cvd

    def _prepare_init(
        self, name: str, schema: TableSchema, rows: list, model: str, message: str
    ) -> PreparedVersion | None:
        """Check a new CVD and its root version (None without rows).

        A twin built in a scratch database names every table the CVD and
        its root version create; none of them may exist yet.
        """
        if not _CVD_NAME.fullmatch(name):
            raise VersioningError(
                f"CVD name {name!r} must match [a-z_][a-z0-9_]* (lowercase, unquoted)"
            )
        if name in self._cvds:
            raise VersioningError(f"CVD {name!r} already exists")
        if not schema.columns:
            raise VersioningError(f"CVD {name!r} needs at least one data column")
        twin = CVD(Database(), name, schema, model)
        root = twin.prepare_root(rows, message) if rows else None
        if root is not None:
            twin.model.add_version(root.vid, RidSet(), {}, ())
        require_free(self.db, twin.db.table_names(), f"CVD {name!r}")
        return root

    def _apply_init(
        self, name: str, schema: TableSchema, model: str, root: PreparedVersion | None
    ) -> CVD:
        cvd = CVD(self.db, name, schema, model)
        if root is not None:
            cvd.apply_version(root)
        self._cvds[name] = cvd
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
        self.cvd(name)
        staged = self.provenance.staged_for_cvd(name)
        if staged:
            raise StagingError(
                f"CVD {name!r} has uncommitted checkouts: "
                f"{[s.name for s in staged]}"
            )
        entry = self._encode({"op": "drop", "name": name})
        self._apply_drop(name)
        self._emit(entry)

    def _apply_drop(self, name: str) -> None:
        self.cvd(name).drop_storage()
        del self._cvds[name]
        self._optimizers.pop(name, None)

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
        single-pool evolution of Section 3.3 is applied with it.
        """
        self._check_writable("commit")
        staged, cvd = self._staged_commit(table_name)
        table = self.db.table(table_name)
        table_schema = TableSchema([c for c in table.schema.columns if c.name != "rid"])
        staged_schema = schema or table_schema
        plan = None
        if not _same_columns(staged_schema, cvd.data_schema):
            plan = cvd.plan_evolution(staged_schema)
        info = self._version_info(staged, message)
        # A checkout table that still knows its change set and holds the
        # CVD's own columns commits from the rows its DML touched; anything
        # else is compared row by row with the parents.
        if (
            table.changes is not None
            and plan is None
            and _same_columns(table_schema, cvd.data_schema)
        ):
            version = cvd.prepare_changes(staged.parent_vids, table, **info)
        else:
            version = self._prepare_staged_rows(cvd, table, plan, staged, info)
        return self._commit(cvd, staged, version, plan)

    def _staged_commit(self, name: str) -> tuple[StagedCheckout, CVD]:
        staged = self.provenance.lookup(name)
        self.access.check_owner(name, self.whoami())
        return staged, self.cvd(staged.cvd_name)

    def _version_info(self, staged: StagedCheckout, message: str) -> dict:
        return dict(
            message=message,
            checkout_time=staged.checkout_time,
            commit_time=self._clock + 1,
        )

    def _prepare_staged_rows(
        self, cvd: CVD, table, plan, staged: StagedCheckout, info: dict
    ) -> PreparedVersion:
        """Prepare a staged table by comparing every row with the parents."""
        target = cvd.data_schema if plan is None else plan.new_schema
        names = table.schema.column_names
        has_rid = "rid" in table.schema
        rid = [names.index("rid")] if has_rid else []
        # Data columns are matched by name, so the rid column is ignored.
        rows = [
            tuple(row[i] for i in rid) + _conform_row(list(row), names, target)
            for row in table.rows()
        ]
        return cvd.prepare_rows(
            staged.parent_vids, rows, rows_have_rid=has_rid, plan=plan, **info
        )

    def commit_csv(
        self,
        path: str | Path,
        message: str = "",
        schema: TableSchema | Sequence[tuple[str, str]] | None = None,
    ) -> int:
        """``commit -f [file] -s [schema] -m [msg]``: commit a CSV checkout."""
        self._check_writable("commit")
        path = Path(path)
        staged, cvd = self._staged_commit(str(path))
        if schema is not None and not isinstance(schema, TableSchema):
            schema = TableSchema([Column(n, parse_type_name(t)) for n, t in schema])
        staged_schema = schema or cvd.data_schema
        plan = None
        if staged_schema.column_names != cvd.data_schema.column_names:
            plan = cvd.plan_evolution(staged_schema)
        target = cvd.data_schema if plan is None else plan.new_schema
        rows = [
            _conform_row(list(row), staged_schema.column_names, target)
            for row in _read_csv_rows(path, staged_schema)
        ]
        version = cvd.prepare_rows(
            staged.parent_vids,
            rows,
            rows_have_rid=False,
            plan=plan,
            **self._version_info(staged, message),
        )
        return self._commit(cvd, staged, version, plan)

    def _commit(
        self, cvd: CVD, staged: StagedCheckout, version: PreparedVersion, plan
    ) -> int:
        """Encode a prepared commit's record, apply it, then journal it.

        The record carries the version's change as a set difference:
        ``drop``, the parents' records it does not inherit, and the new
        records' payloads, numbered from ``first_rid``, each a block of
        typed columns (:func:`~repro.storage.types.pack_block`), so it
        costs O(changed records) bytes.  It also carries the partition the
        prepared version was placed in.  A live optimizer's post-commit
        maintenance sample depends on the applied version; it joins the
        same record (``maintain``), so a commit stays one fsync'd append.
        """
        schema = cvd.data_schema if plan is None else plan.new_schema
        entry = self._encode(
            {
                "op": "commit",
                "cvd": cvd.name,
                "vid": version.vid,
                "parents": list(version.parents),
                "drop": pack_block(list(zip(version.drop)), [DataType.INTEGER]),
                "first_rid": cvd._next_rid,
                "new_records": pack_block(
                    list(version.new_records.values()), schema.dtypes
                ),
                "staged": staged.name,
                "staged_is_file": staged.is_file,
                "partition": version.partition,
                "schema": None if plan is None else plan.staged_schema.to_dict(),
                "message": version.message,
                "checkout_time": version.checkout_time,
                "commit_time": version.commit_time,
            },
            clock=version.commit_time,
        )
        self._apply_commit(cvd, version, plan, staged.name, staged.is_file)
        maintenance = self._evaluate_maintenance(cvd)
        applied = {}
        if maintenance is not None:
            _optimizer, sample, _best = maintenance
            applied["maintain"] = [
                sample.version_count, sample.current_cavg, sample.best_cavg
            ]
        self._emit(entry, **applied)
        self._apply_maintenance_trigger(maintenance)
        return version.vid

    def _apply_commit(
        self,
        cvd: CVD,
        version: PreparedVersion,
        plan,
        staged_name: str,
        staged_is_file: bool,
    ) -> None:
        """Write a prepared commit: its schema change, its version, and
        the cleanup of its staging area (Section 2.3)."""
        if plan is not None:
            cvd.apply_evolution(plan)
        cvd.apply_version(version)
        self._clock = version.commit_time
        if not staged_is_file and self.db.has_table(staged_name):
            self.db.drop_table(staged_name)
        if staged_name in self.provenance.staged_names():
            self.provenance.remove(staged_name)
        self.access.revoke(staged_name)

    # ------------------------------------------------------------------ SQL

    def run(self, sql: str, params: Sequence[Any] = ()) -> Result:
        """Execute SQL; versioned FROM items are answered by the translator.

        Mutating statements against durable tables are journaled; DML that
        touches only staged checkout tables is working-tree state and is
        captured by snapshots instead.  SQL that writes a table a data
        model derives from membership (an rlist table) is refused with
        :class:`CatalogError` before anything applies.

        A leading ``PROFILE`` keyword (``PROFILE SELECT ...``) runs the
        query instrumented and returns the per-operator report; being a
        read, it is never journaled.
        """
        profiled, sql = split_profile(sql)
        statements = parse_sql(sql, params)
        if profiled:
            with trace.span("sql.profile"):
                return self.db.execute_profiled(statements)
        mutating, targets = _statement_targets(statements)
        if mutating:
            self._refuse_derived_writes(statements)
        if mutating and self.read_only:
            raise ReadOnlyError(
                "cannot run mutating SQL: this session is read-only "
                "(store opened with mode='ro')"
            )
        staged = set(self.provenance.staged_names()) if mutating else set()
        # DML that writes only staged checkout tables is working-tree state.
        durable = mutating and not (targets and set(targets) <= staged)
        entry = None
        if durable and self._journal is not None:
            record = {"op": "run", "sql": sql, "params": list(params)}
            if staged and _references_any(sql, staged):
                # DML writing durable tables while *reading* staged state
                # cannot be replayed from the log once staging is gone; the
                # barrier asks the journal to checkpoint immediately so the
                # effect is captured by a snapshot instead.
                record["barrier"] = True
            entry = self._encode(record)
        try:
            result = self._apply_run(statements)
        except Exception:
            atomic = len(statements) == 1 and isinstance(statements[0], _ATOMIC_DML)
            if durable and not atomic and self._journal is not None:
                # Statements apply one at a time, so a failed script may
                # have written durable state no record carries: the next
                # record checkpoints.  A failed lone INSERT/UPDATE/DELETE
                # wrote nothing.
                self._pending_barrier = True
            raise
        if mutating and not durable and self._journal is not None:
            self._mark_ephemeral()
        self._emit(entry)
        return result

    def _refuse_derived_writes(self, statements: Sequence[_ast.Statement]) -> None:
        """Refuse SQL that writes a table a data model derives from version
        membership: a snapshot rebuilds that table from membership, so the
        write would not outlive the next checkpoint.  Index DDL stays
        allowed, since the manifest keeps index definitions."""
        _mutating, targets = _statement_targets(
            [s for s in statements if not isinstance(s, _INDEX_DDL)]
        )
        if not targets:
            return
        for cvd in self._cvds.values():
            derived = cvd.model.derived_tables().keys() & set(targets)
            if derived:
                raise CatalogError(
                    f"table {min(derived)} is derived from the version "
                    f"membership of CVD {cvd.name}: change it by committing"
                )

    def _apply_run(self, statements: Sequence[_ast.Statement]) -> Result:
        with trace.span("sql.run"):
            return self.db.execute_statements(statements)

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
        self._check_writable("optimize")
        frequencies = self.checkout_frequencies(cvd_name) if weighted else None
        optimizer, run = self._prepare_optimize(
            cvd_name, storage_threshold, tolerance, frequencies or None
        )
        entry = self._encode(
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
            }
        )
        self._apply_optimize(cvd_name, optimizer, run)
        # Timing of the migration a re-optimize performed (if any), for
        # exact trace restore on replay.
        migrated = run.migration is not None
        seconds = optimizer.trace.migrations[-1].wall_seconds if migrated else None
        self._emit(entry, migration_wall_seconds=seconds)
        return optimizer

    def _prepare_optimize(
        self,
        cvd_name: str,
        storage_threshold: float,
        tolerance: float,
        frequencies: dict[int, int] | None,
    ):
        """``(optimizer, run)``: the CVD's optimizer (a new, unregistered one
        on the first run) and the LyreSplit run planned under the knobs."""
        from repro.partition.online import PartitionOptimizer

        optimizer = self.optimizer_for(cvd_name)
        if optimizer is None:
            optimizer = PartitionOptimizer(
                self.cvd(cvd_name),
                storage_multiple=storage_threshold,
                tolerance=tolerance,
                frequencies=frequencies,
            )
        return optimizer, optimizer.plan_full(storage_threshold, tolerance, frequencies)

    def _apply_optimize(self, cvd_name: str, optimizer, run) -> None:
        optimizer.run_full_partitioning(run)
        self._register_optimizer(cvd_name, optimizer)

    def optimizer_for(self, cvd_name: str):
        """The live optimizer managing ``cvd_name`` (None until optimized)."""
        return self._optimizers.get(cvd_name)

    def _register_optimizer(self, cvd_name: str, optimizer) -> None:
        """Track an optimizer and wire its transition journaling."""
        self._optimizers[cvd_name] = optimizer
        # A transition's apply decides its record, which holds only numbers
        # and version ids: it is encoded as it is appended.
        optimizer.journal = lambda record: self._emit(self._encode(record))

    def _evaluate_maintenance(self, cvd: CVD):
        """Post-commit hook, phase 1: compute the online rule's sample.

        Returns ``(optimizer, sample, best)`` when a live optimizer manages
        the CVD (the sample then piggybacks on the commit's own WAL record)
        or None.  Replay never recomputes maintenance — the live run
        journaled every transition and recovery applies those instead.
        """
        optimizer = self.optimizer_for(cvd.name)
        if optimizer is None:
            return None
        started = time.perf_counter()
        sample, best = optimizer.evaluate_maintenance()
        _MAINTENANCE_SECONDS.observe(time.perf_counter() - started)
        return optimizer, sample, best

    def _apply_maintenance_trigger(self, maintenance) -> None:
        """Post-commit hook, phase 2: fire the tolerance check.

        Runs after the commit record is journaled, so a triggered
        migration's ``migration`` record lands behind the commit it reacts
        to and replays in the right order.  The commit is durable by then:
        a migration refused in its prepare step (a partition table name
        taken) is logged and counted, not raised, and the next commit's
        maintenance tries again.
        """
        if maintenance is None:
            return
        optimizer, sample, best = maintenance
        try:
            optimizer.apply_tolerance_trigger(sample, best)
        except DuplicateObjectError as exc:
            _log.warning("tolerance-triggered migration refused: %s", exc)
            metrics.registry().counter("partition.migrations_refused").inc()


_CVD_NAME = _re.compile(r"[a-z_][a-z0-9_]*")

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


_INDEX_DDL = (_ast.CreateIndex, _ast.DropIndex)

#: DML that checks every row before it writes: a failed statement leaves
#: its table as it was.
_ATOMIC_DML = (_ast.Insert, _ast.Update, _ast.Delete)


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
