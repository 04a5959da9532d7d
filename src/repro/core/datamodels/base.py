"""Common interface for the CVD storage models compared in Section 3.

Every model stores the same logical content — which record belongs to which
version, plus the record payloads — but with a different physical layout.
The interface is deliberately narrow:

* :meth:`add_version` is the physical half of *commit*: persist a version
  given its full membership and the payloads of records the CVD has never
  stored before (the *no cross-version diff* rule means records deleted and
  re-added arrive here as brand-new rids).
* :meth:`checkout_into` is the physical half of *checkout*: materialize one
  version into a fresh table whose first column is ``rid`` followed by the
  data attributes, normally via a single translated SQL statement (Table 1).
* :meth:`fetch_version` returns the same rows to the middleware, used for
  multi-version merging, diff, and commit comparison.

Models receive the shared :class:`~repro.storage.engine.Database` and do all
their work through it, exactly like the paper's middleware drives PostgreSQL.
Version membership (each version's rlist) has one owner, the CVD: a model
reads the CVD's ``membership`` dict, bound to :attr:`DataModel.membership`,
and never keeps a copy of its own.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, ClassVar, Iterable, Mapping, Sequence

from repro.storage.engine import Database
from repro.storage.ridset import RidSet
from repro.storage.schema import Column, TableSchema
from repro.storage.types import DataType

Row = tuple[Any, ...]


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
        member_rids: Sequence[int],
        new_records: Mapping[int, Row],
        parent_vids: Sequence[int],
    ) -> None:
        """Persist version ``vid``.

        ``member_rids`` is the version's complete record membership;
        ``new_records`` maps the subset of rids never seen before to their
        data-attribute tuples.
        """

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
            self.add_version(vid, list(member_rids), new_records, parents)

    # ------------------------------------------------------------- checkout

    @abstractmethod
    def checkout_into(self, vid: int, table_name: str) -> None:
        """Materialize version ``vid`` as table ``table_name`` (rid + data)."""

    @abstractmethod
    def fetch_version(self, vid: int) -> list[Row]:
        """Rows of version ``vid`` as ``(rid, *data)`` tuples."""

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
        index = table.index_on(["rid"])
        ordered = rids if isinstance(rids, RidSet) else sorted(rids)
        if index is None:  # pragma: no cover - all rid tables are indexed
            wanted = RidSet(ordered)
            rows = sorted(
                (row for _slot, row in table.find_where(lambda r: r[0] in wanted)),
                key=lambda row: row[0],
            )
        else:
            rows = table.probe_many(index, ((rid,) for rid in ordered))
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

    # ---------------------------------------------------------- inspection

    @abstractmethod
    def storage_bytes(self) -> int:
        """Total bytes of all backing tables (indexes included)."""

    def version_subquery_sql(self, vid: int) -> str:
        """The model's Table-1 translation of ``VERSION vid OF CVD c``: a
        parenthesized derived table producing ``vid``'s data attributes.

        The query translator parses it into the plan of the user's
        statement.  Models that cannot express retrieval in SQL (delta)
        set :attr:`supports_sql_rewriting` to False instead; the translator
        then hands the planner :meth:`fetch_version`'s rows (the
        delta-model penalty the paper calls out).
        """
        raise NotImplementedError

    def all_versions_subquery_sql(self) -> str:
        """SQL producing ``(vid, <data attrs>)`` with one row per version
        membership, used for cross-version aggregates."""
        raise NotImplementedError

    # -------------------------------------------------------------- helpers

    def storage_schema(self) -> TableSchema:
        """``rid`` + data attributes; the layout of data tables and checkouts."""
        return TableSchema(
            [Column("rid", DataType.INTEGER)] + list(self.data_schema.columns),
        )

    @property
    def data_column_names(self) -> list[str]:
        return self.data_schema.column_names

    def _data_columns_sql(self, qualifier: str = "") -> str:
        prefix = f"{qualifier}." if qualifier else ""
        return ", ".join(f"{prefix}{name}" for name in self.data_column_names)
