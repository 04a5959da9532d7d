"""Approach 3: split-by-rlist — the model OrpheusDB adopts (Figure 1c.ii).

The versioning table is keyed by ``vid`` and stores each version's record
ids as one array.  Commit appends exactly one versioning-table row (no array
rewrites), and checkout probes that row by primary key, unnests the rlist,
and hash-joins it against the data table — the plan Section 3.2 analyses.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.core.datamodels.base import DataModel, Row
from repro.storage import arrays
from repro.storage.schema import Column, TableSchema
from repro.storage.types import DataType


class SplitByRlistModel(DataModel):
    model_name = "split_by_rlist"

    @property
    def data_table(self) -> str:
        return f"{self.cvd_name}__data"

    @property
    def versioning_table(self) -> str:
        return f"{self.cvd_name}__versions"

    def create_storage(self) -> None:
        self.db.create_table(
            self.data_table,
            TableSchema(
                [Column("rid", DataType.INTEGER)]
                + list(self.data_schema.columns),
                ("rid",),
            ),
            clustered_on="rid",
        )
        self.db.create_table(
            self.versioning_table,
            TableSchema(
                [
                    Column("vid", DataType.INTEGER),
                    Column("rlist", DataType.INT_ARRAY),
                ],
                ("vid",),
            ),
        )

    def drop_storage(self) -> None:
        self.db.drop_table(self.data_table, if_exists=True)
        self.db.drop_table(self.versioning_table, if_exists=True)

    def add_version(
        self,
        vid: int,
        member_rids: Sequence[int],
        new_records: Mapping[int, Row],
        parent_vids: Sequence[int],
    ) -> None:
        self.db.table(self.data_table).insert_many(
            (rid,) + tuple(row) for rid, row in new_records.items()
        )
        # The whole commit is one INSERT (Table 1's third column).
        self.db.execute(
            f"INSERT INTO {self.versioning_table} VALUES (%s, %s)",
            (vid, arrays.make_array(member_rids)),
        )

    def bulk_load(self, versions, payloads) -> None:
        seen: set[int] = set()
        data_rows = []
        versioning_rows = []
        for vid, _parents, member_rids in versions:
            for rid in member_rids:
                if rid not in seen:
                    seen.add(rid)
                    data_rows.append((rid,) + tuple(payloads[rid]))
            versioning_rows.append((vid, arrays.make_array(member_rids)))
        self.db.table(self.data_table).insert_many(data_rows)
        self.db.table(self.versioning_table).insert_many(versioning_rows)

    def checkout_into(self, vid: int, table_name: str) -> None:
        self.db.execute(self._checkout_sql(vid, into=table_name))

    def fetch_version(self, vid: int) -> list[Row]:
        return self.db.query(self._checkout_sql(vid, into=None))

    def _checkout_sql(self, vid: int, into: str | None) -> str:
        into_clause = f" INTO {into}" if into else ""
        return (
            f"SELECT d.rid, {self._data_columns_sql('d')}{into_clause} "
            f"FROM {self.data_table} AS d, "
            f"(SELECT unnest(rlist) AS rid_tmp FROM {self.versioning_table} "
            f" WHERE vid = {int(vid)}) AS tmp "
            f"WHERE d.rid = tmp.rid_tmp"
        )

    def fetch_rows(self, vid: int, rids: Iterable[int]) -> list[Row]:
        return self._fetch_rows_from_table(self.data_table, rids)

    def storage_bytes(self) -> int:
        return self.db.table(self.data_table).storage_bytes() + self.db.table(
            self.versioning_table
        ).storage_bytes()

    def version_subquery_sql(self, vid: int) -> str:
        return (
            f"(SELECT {self._data_columns_sql('d')} "
            f"FROM {self.data_table} AS d, "
            f"(SELECT unnest(rlist) AS rid_tmp FROM {self.versioning_table} "
            f" WHERE vid = {int(vid)}) AS tmp "
            f"WHERE d.rid = tmp.rid_tmp)"
        )

    def all_versions_subquery_sql(self) -> str:
        return (
            f"(SELECT m.vid AS vid, {self._data_columns_sql('d')} "
            f"FROM (SELECT vid, unnest(rlist) AS rid_tmp "
            f"      FROM {self.versioning_table}) AS m, "
            f"{self.data_table} AS d WHERE d.rid = m.rid_tmp)"
        )
