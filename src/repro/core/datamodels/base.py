"""Common interface for the CVD storage models compared in Section 3.

Every model stores the same logical content — which record belongs to which
version, plus the record payloads — but with a different physical layout.
The interface is deliberately narrow:

* :meth:`add_version` is the physical half of *commit*: persist a version
  given its full membership (a :class:`~repro.storage.ridset.RidSet`: a
  version is a set, so no staged row order reaches storage) and the
  payloads of records the CVD has never stored before (the *no
  cross-version diff* rule means records deleted and re-added arrive here
  as brand-new rids).
* :meth:`version_plan` is the model's Table-1 translation of *checkout*:
  an :class:`~repro.storage.parser.ast_nodes.Select` of ``rid`` followed
  by the data attributes, built in code (never text, so no attribute name
  needs quoting and nothing is parsed).  :meth:`all_versions_plan` is its
  ``(vid, <data attrs>)`` counterpart over every version.
* :meth:`checkout_into` (the physical half of *checkout*: materialize one
  version into a fresh table of the declared types) fills it with
  :meth:`fetch_version`'s rows; that runs the plan and also serves
  multi-version merging, diff and commit comparison.  The query
  translator derives ``VERSION``/``ALL VERSIONS`` from the same two plans.

Models receive the shared :class:`~repro.storage.engine.Database` and do all
their work through it, exactly like the paper's middleware drives PostgreSQL.
Version membership (each version's rlist) has one owner, the CVD: a model
reads the CVD's ``membership`` dict, bound to :attr:`DataModel.membership`,
and never keeps a copy of its own.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, ClassVar, Iterable, Mapping, Sequence

from repro.errors import DuplicateObjectError
from repro.storage.engine import Database
from repro.storage.expression import BinaryOp, ColumnRef
from repro.storage.parser import ast_nodes as ast
from repro.storage.ridset import RidSet
from repro.storage.schema import Column, TableSchema
from repro.storage.types import DataType

Row = tuple[Any, ...]


def require_free(db: Database, names: Iterable[str], needed_by: str) -> None:
    """Refuse, before anything is written, what would create a table that
    already exists: a prepare step calls this on every backing table its
    apply creates, so a clash never leaves half of them behind."""
    taken = sorted(name for name in names if db.has_table(name))
    if taken:
        raise DuplicateObjectError(
            f"{needed_by} needs tables that already exist: {taken}"
        )


def union_all(parts: Sequence[ast.Select]) -> ast.Select:
    """``parts[0] UNION ALL parts[1] ...`` as one chained Select.

    Links the given (freshly built) Selects in place.
    """
    for part, following in zip(parts, parts[1:]):
        part.union_all_with = following
    return parts[0]


class DataModel(ABC):
    """Physical storage strategy for one CVD."""

    model_name: ClassVar[str] = "abstract"
    #: False for models (delta) that cannot translate advanced version
    #: queries to SQL without reconstructing versions (Section 3.1).
    supports_sql_rewriting: ClassVar[bool] = True

    def __init__(self, db: Database, cvd_name: str, data_schema: TableSchema):
        """``data_schema`` holds the user-visible data attributes only."""
        self.db = db
        self.cvd_name = cvd_name
        self.data_schema = data_schema
        #: The owning CVD's rid set per version, bound by the CVD, which
        #: stays its only writer: a version's entry appears right after
        #: :meth:`add_version` (or :meth:`bulk_load`) returns.
        self.membership: dict[int, RidSet] = {}

    # ------------------------------------------------------------ lifecycle

    @abstractmethod
    def create_storage(self) -> None:
        """Create this model's backing tables."""

    @abstractmethod
    def drop_storage(self) -> None:
        """Drop every backing table."""

    # ------------------------------------------------------------- commit

    @abstractmethod
    def add_version(
        self,
        vid: int,
        members: RidSet,
        new_records: Mapping[int, Row],
        parent_vids: Sequence[int],
        partition: int | None = None,
    ) -> None:
        """Persist version ``vid``.

        ``members`` is the version's complete record membership;
        ``new_records`` maps the subset of rids never seen before to their
        data-attribute tuples.  ``partition`` is the placement the prepared
        version carries: where a partitioned model stores it (a fresh
        partition when the index does not exist yet).  The other models
        have one place for every version and ignore it.
        """

    def version_tables(self, vid: int, partition: int | None) -> tuple[str, ...]:
        """The tables :meth:`add_version` creates for ``vid`` placed in
        ``partition`` (none: most models write to tables they already own)."""
        return ()

    def bulk_load(
        self,
        versions: Sequence[tuple[int, tuple[int, ...], Sequence[int]]],
        payloads: Mapping[int, Row],
    ) -> None:
        """Load a whole version history at once (setup fast path).

        ``versions`` is a topologically ordered list of
        ``(vid, parents, member_rids)``; ``payloads`` resolves every rid.
        Semantically identical to calling :meth:`add_version` in order —
        the default does exactly that — but models whose per-version commit
        is deliberately expensive (combined-table, split-by-vlist) override
        it so that benchmark *setup* does not pay the commit cost the
        benchmark is trying to measure.
        """
        seen: set[int] = set()
        for vid, parents, member_rids in versions:
            new_records = {rid: payloads[rid] for rid in member_rids if rid not in seen}
            seen.update(new_records)
            self.add_version(vid, RidSet(member_rids), new_records, parents)

    # ------------------------------------------------------------- checkout

    def version_plan(self, vid: int) -> ast.Select:
        """Table 1's checkout of ``vid``: ``SELECT rid, <data attrs> ...``.

        Models that cannot express retrieval in SQL (delta) set
        :attr:`supports_sql_rewriting` to False and override
        :meth:`checkout_into`/:meth:`fetch_version` instead; the translator
        then hands the planner :meth:`fetch_version`'s rows (the
        delta-model penalty the paper calls out).
        """
        raise NotImplementedError

    def all_versions_plan(self) -> ast.Select:
        """``(vid, <data attrs>)`` with one row per version membership,
        used for cross-version aggregates."""
        raise NotImplementedError

    def checkout_into(self, vid: int, table_name: str) -> None:
        """Materialize version ``vid`` as table ``table_name`` (rid + data),
        typed as the CVD declares: a column holding only NULLs keeps its
        type, where ``SELECT … INTO`` would infer TEXT."""
        table = self.db.create_table(table_name, self.storage_schema())
        table.insert_many(self.fetch_version(vid))

    def fetch_version(self, vid: int) -> list[Row]:
        """Rows of version ``vid`` as ``(rid, *data)`` tuples."""
        return self.db.execute_statements([self.version_plan(vid)]).rows

    def records_of(self, vid: int) -> dict[int, Row]:
        """Mapping rid -> data-attribute tuple for one version."""
        return {row[0]: tuple(row[1:]) for row in self.fetch_version(vid)}

    def fetch_rows(self, vid: int, rids: Iterable[int]) -> list[Row]:
        """Rows of version ``vid`` restricted to ``rids``, ascending by rid.

        ``rids`` must be a subset of the version's membership (the caller
        — multi-version checkout and diff — derives it from rid-set
        algebra, so this holds by construction).  The generic form filters
        :meth:`fetch_version`; models with a rid-keyed data table override
        it with one batched index probe, which is what turns checkout and
        diff into set-algebra plus a single slot fetch.
        """
        from repro.storage.arrays import to_ridset

        wanted = to_ridset(rids)
        rows = [row for row in self.fetch_version(vid) if row[0] in wanted]
        rows.sort(key=lambda row: row[0])
        return rows

    def _fetch_rows_from_table(
        self, table_name: str, rids: Iterable[int], data_width: int | None = None
    ) -> list[Row]:
        """Batched rid-index probe against one ``(rid, *data)`` table.

        ``data_width`` trims trailing non-data columns (the combined
        model's ``vlist``) from the fetched rows.
        """
        table = self.db.table(table_name)
        ordered = rids if isinstance(rids, RidSet) else sorted(rids)
        rows = table.probe_many(table.index_on(["rid"]), ((rid,) for rid in ordered))
        if data_width is not None and data_width + 1 < len(table.schema):
            # Trim trailing non-data columns in one pass; when the table is
            # already rid+data wide there is nothing to cut and the fetched
            # rows pass through without an intermediate copy.
            rows = [row[: data_width + 1] for row in rows]
        return rows

    # ---------------------------------------------------------- persistence

    def extra_state(self) -> dict:
        """JSON-able Python-side state beyond the backing tables and the
        CVD's membership.

        Only the partitioned model keeps any (its version→partition
        assignment and optimizer); every other model returns ``{}``.
        """
        return {}

    def restore_extra_state(self, state: dict, cvd) -> None:
        """Inverse of :meth:`extra_state`, called once the owning CVD —
        backing tables, membership, graph and counters — is complete."""

    def derived_tables(self) -> dict[str, Iterable[Row]]:
        """The backing tables whose rows are a function of membership,
        each mapped to those rows in live slot order, produced lazily.

        A snapshot writes no segment for them: restore recreates each one
        empty and refills it from here once :meth:`restore_extra_state`
        has run.  Models whose every table holds payloads return ``{}``.
        """
        return {}

    # ---------------------------------------------------------- inspection

    @abstractmethod
    def storage_bytes(self) -> int:
        """Total bytes of all backing tables (indexes included)."""

    # -------------------------------------------------------------- helpers

    def storage_schema(self) -> TableSchema:
        """``rid`` + data attributes; the layout of data tables and checkouts."""
        return TableSchema(
            [Column("rid", DataType.INTEGER)] + list(self.data_schema.columns),
        )

    @property
    def data_column_names(self) -> list[str]:
        return self.data_schema.column_names

    # ------------------------------------------------------ Table-1 plans

    def _items(self, qualifier: str = "") -> list[ast.SelectItem]:
        """Select items for the data attributes, optionally qualified."""
        prefix = f"{qualifier}." if qualifier else ""
        return [
            ast.SelectItem(ColumnRef(prefix + name)) for name in self.data_column_names
        ]

    def _rid_join(self, data_table: str, rids: ast.Select) -> ast.Select:
        """``SELECT d.rid, d.<attrs> FROM data AS d, (<rids>) AS tmp
        WHERE d.rid = tmp.rid_tmp``: one version's records, where
        ``rids`` yields the version's rids as ``rid_tmp``."""
        return ast.Select(
            items=[ast.SelectItem(ColumnRef("d.rid")), *self._items("d")],
            from_items=[ast.TableRef(data_table, "d"), ast.SubqueryRef(rids, "tmp")],
            where=BinaryOp("=", ColumnRef("d.rid"), ColumnRef("tmp.rid_tmp")),
        )

    def _member_join(self, data_table: str, members: ast.Select) -> ast.Select:
        """``SELECT m.vid AS vid, d.<attrs> FROM (<members>) AS m, data AS d
        WHERE d.rid = m.rid_tmp``: every version's records, where
        ``members`` yields ``(vid, rid_tmp)`` membership pairs."""
        return ast.Select(
            items=[ast.SelectItem(ColumnRef("m.vid"), "vid"), *self._items("d")],
            from_items=[ast.SubqueryRef(members, "m"), ast.TableRef(data_table, "d")],
            where=BinaryOp("=", ColumnRef("d.rid"), ColumnRef("m.rid_tmp")),
        )
