"""Approach 2: split-by-vlist (paper Figure 1c.i).

The data table stores each distinct record once (keyed by ``rid``); the
versioning table maps each ``rid`` to the array of versions containing it.
Commit still pays the array-append cost on the versioning table, but the
wide data rows are no longer rewritten; checkout pays a join.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.core.datamodels.base import DataModel, Row
from repro.core.datamodels.combined import vlist_holds
from repro.storage.expression import ColumnRef, FuncCall
from repro.storage.parser import ast_nodes as ast
from repro.storage.ridset import RidSet
from repro.storage.schema import Column, TableSchema
from repro.storage.types import DataType


class SplitByVlistModel(DataModel):
    model_name = "split_by_vlist"

    @property
    def data_table(self) -> str:
        return f"{self.cvd_name}__data"

    @property
    def versioning_table(self) -> str:
        return f"{self.cvd_name}__vindex"

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
                    Column("rid", DataType.INTEGER),
                    Column("vlist", DataType.INT_ARRAY),
                ],
                ("rid",),
            ),
        )

    def drop_storage(self) -> None:
        self.db.drop_table(self.data_table, if_exists=True)
        self.db.drop_table(self.versioning_table, if_exists=True)

    def add_version(
        self,
        vid: int,
        members: RidSet,
        new_records: Mapping[int, Row],
        parent_vids: Sequence[int],
        partition: int | None = None,
    ) -> None:
        self.db.table(self.data_table).insert_many(
            (rid,) + tuple(row) for rid, row in new_records.items()
        )
        self.db.table(self.versioning_table).insert_many(
            (rid, (vid,)) for rid in new_records
        )
        existing = members - RidSet(new_records)
        if existing:
            staging = f"{self.versioning_table}__commit_rids"
            self.db.drop_table(staging, if_exists=True)
            stage = self.db.create_table(
                staging, TableSchema([Column("rid", DataType.INTEGER)])
            )
            stage.insert_many((rid,) for rid in existing)
            self.db.execute(
                f"UPDATE {self.versioning_table} SET vlist = vlist || %s "
                f"WHERE rid IN (SELECT rid FROM {staging})",
                (vid,),
            )
            self.db.drop_table(staging)

    def bulk_load(self, versions, payloads) -> None:
        """Populate the data table once and each rid's full vlist once."""
        vlists: dict[int, list[int]] = {}
        for vid, _parents, member_rids in versions:
            for rid in member_rids:
                vlists.setdefault(rid, []).append(vid)
        self.db.table(self.data_table).insert_many(
            (rid,) + tuple(payloads[rid]) for rid in vlists
        )
        self.db.table(self.versioning_table).insert_many(
            (rid, tuple(vids)) for rid, vids in vlists.items()
        )

    def fetch_rows(self, vid: int, rids: Iterable[int]) -> list[Row]:
        return self._fetch_rows_from_table(self.data_table, rids)

    def storage_bytes(self) -> int:
        return self.db.table(self.data_table).storage_bytes() + self.db.table(
            self.versioning_table
        ).storage_bytes()

    def version_plan(self, vid: int) -> ast.Select:
        # Table 1's split-by-vlist translation: select the rids of the
        # version from the versioning table, then join with the data table.
        rids = ast.Select(
            items=[ast.SelectItem(ColumnRef("rid"), "rid_tmp")],
            from_items=[ast.TableRef(self.versioning_table)],
            where=vlist_holds(vid),
        )
        return self._rid_join(self.data_table, rids)

    def all_versions_plan(self) -> ast.Select:
        members = ast.Select(
            items=[
                ast.SelectItem(ColumnRef("rid"), "rid_tmp"),
                ast.SelectItem(FuncCall("unnest", (ColumnRef("vlist"),)), "vid"),
            ],
            from_items=[ast.TableRef(self.versioning_table)],
        )
        return self._member_join(self.data_table, members)
