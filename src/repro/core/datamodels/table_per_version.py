"""Approach 5: a-table-per-version — the storage strawman (Section 3.1).

Every version is its own table.  Checkout is a plain table copy (the lower
bound on checkout time the partition optimizer aims for), but storage blows
up by the average number of versions each record lives in (~10x in the
paper's Figure 3a) and commit must write every record of the new version.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.datamodels.base import DataModel, Row, union_all
from repro.storage.expression import ColumnRef, Literal
from repro.storage.parser import ast_nodes as ast
from repro.storage.ridset import RidSet


class TablePerVersionModel(DataModel):
    model_name = "table_per_version"

    def _table_for(self, vid: int) -> str:
        return f"{self.cvd_name}__v{vid}"

    def create_storage(self) -> None:
        """Nothing up front: each commit creates its version's table."""

    def version_tables(self, vid: int, partition: int | None) -> tuple[str, ...]:
        return (self._table_for(vid),)

    def drop_storage(self) -> None:
        for vid in self.membership:
            self.db.drop_table(self._table_for(vid), if_exists=True)

    def add_version(
        self,
        vid: int,
        members: RidSet,
        new_records: Mapping[int, Row],
        parent_vids: Sequence[int],
        partition: int | None = None,
    ) -> None:
        # Inherited payloads come from the parents' tables; precedence is
        # first-parent-wins, matching the middleware's merge rule.  The
        # wanted set is a bitmap, resolved in one pass per parent table.
        inherited: dict[int, Row] = {}
        wanted = members - RidSet(new_records)
        for parent in parent_vids:
            if not wanted:
                break
            hits: list[int] = []
            for row in self.fetch_version(parent):
                if row[0] in wanted:
                    inherited[row[0]] = tuple(row[1:])
                    hits.append(row[0])
            if hits:
                wanted -= RidSet(hits)
        if wanted:
            missing = sorted(wanted)[:5]
            raise LookupError(
                f"records {missing} of version {vid} not found in parents"
            )
        table = self.db.create_table(
            self._table_for(vid), self.storage_schema(), clustered_on="rid"
        )
        payload = dict(inherited)
        payload.update({rid: tuple(row) for rid, row in new_records.items()})
        table.insert_many((rid,) + payload[rid] for rid in members)

    def bulk_load(self, versions, payloads) -> None:
        """Create each version's table straight from the payload map."""
        for vid, _parents, member_rids in versions:
            table = self.db.create_table(
                self._table_for(vid), self.storage_schema(), clustered_on="rid"
            )
            table.insert_many((rid,) + tuple(payloads[rid]) for rid in member_rids)

    def storage_bytes(self) -> int:
        return sum(
            self.db.table(self._table_for(vid)).storage_bytes()
            for vid in self.membership
        )

    def version_plan(self, vid: int) -> ast.Select:
        """``SELECT rid, <attrs> FROM T_vid``: a plain table copy."""
        return ast.Select(
            items=[ast.SelectItem(ColumnRef("rid")), *self._items()],
            from_items=[ast.TableRef(self._table_for(vid))],
        )

    def all_versions_plan(self) -> ast.Select:
        """``SELECT <vid> AS vid, <attrs> FROM T_vid UNION ALL ...``."""
        if not self.membership:
            # No version table exists yet: an empty relation of that shape.
            nulls = [
                ast.SelectItem(Literal(None), name) for name in self.data_column_names
            ]
            vid = ast.SelectItem(Literal(0), "vid")
            return ast.Select([vid, *nulls], where=Literal(False))
        return union_all(
            [
                ast.Select(
                    items=[ast.SelectItem(Literal(vid), "vid"), *self._items()],
                    from_items=[ast.TableRef(self._table_for(vid))],
                )
                for vid in self.membership
            ]
        )
