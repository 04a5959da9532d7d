"""Approach 4: the delta-based model (Section 3.1).

Each version is stored as a table of modifications from one *base* version:
inserted records carry their payload, deleted records carry a tombstone.
A precedent metadata table records each version's base.  When a version has
several parents, the base is the parent sharing the most records (the paper
opts for single-base reconstruction rather than multi-path merging).

Checkout walks the base chain from the version to the root, keeping the
first occurrence of each rid: a tombstone first-seen excludes the record, an
insert first-seen includes it.  The model cannot rewrite advanced version
queries into single SQL statements — ``supports_sql_rewriting`` is False, so
the query translator reconstructs each version a query names, outside the
database, and hands the rows to the planner: the disadvantage the paper
highlights.
"""

from __future__ import annotations

from collections import ChainMap
from typing import Mapping, Sequence

from repro.core.datamodels.base import DataModel, Row
from repro.storage.ridset import RidSet
from repro.storage.schema import Column, TableSchema
from repro.storage.types import DataType


class DeltaModel(DataModel):
    model_name = "delta"
    supports_sql_rewriting = False

    @property
    def precedent_table(self) -> str:
        return f"{self.cvd_name}__precedent"

    def _delta_table(self, vid: int) -> str:
        return f"{self.cvd_name}__delta_{vid}"

    def version_tables(self, vid: int, partition: int | None) -> tuple[str, ...]:
        return (self._delta_table(vid),)

    def _delta_schema(self) -> TableSchema:
        # Data columns drop NOT NULL: a tombstone row is all-NULL by
        # design, and commit_rows has already checked every real row.
        return TableSchema(
            [Column("rid", DataType.INTEGER)]
            + [Column(c.name, c.dtype) for c in self.data_schema.columns]
            + [Column("tombstone", DataType.BOOLEAN)],
        )

    def create_storage(self) -> None:
        self.db.create_table(
            self.precedent_table,
            TableSchema(
                [
                    Column("vid", DataType.INTEGER),
                    Column("base", DataType.INTEGER),
                ],
                ("vid",),
            ),
        )

    def drop_storage(self) -> None:
        for vid in self.membership:
            self.db.drop_table(self._delta_table(vid), if_exists=True)
        self.db.drop_table(self.precedent_table, if_exists=True)

    # -------------------------------------------------------------- commit

    def add_version(
        self,
        vid: int,
        members: RidSet,
        new_records: Mapping[int, Row],
        parent_vids: Sequence[int],
        partition: int | None = None,
    ) -> None:
        base, base_members = self._pick_base(members, parent_vids, self.membership)
        inserted = members - base_members
        deleted = base_members - members
        rows: list[tuple] = []
        width = len(self.data_schema)
        missing = inserted - RidSet(new_records)
        recovered = self._recover_payloads(set(missing), parent_vids)
        for rid in inserted:  # RidSet iteration is ascending
            if rid in new_records:
                payload = tuple(new_records[rid])
            else:
                payload = recovered[rid]
            rows.append((rid,) + payload + (False,))
        for rid in deleted:
            rows.append((rid,) + (None,) * width + (True,))
        table = self.db.create_table(self._delta_table(vid), self._delta_schema())
        table.insert_many(rows)
        self.db.execute(
            f"INSERT INTO {self.precedent_table} VALUES (%s, %s)",
            (vid, base),
        )

    @staticmethod
    def _pick_base(
        members: RidSet,
        parent_vids: Sequence[int],
        membership: Mapping[int, RidSet],
    ) -> tuple[int | None, RidSet]:
        """(base vid, its members): the parent sharing the most records,
        or (None, empty) for a root."""
        best, best_members, best_common = None, RidSet(), -1
        for parent in parent_vids:
            common = members.intersection_count(membership[parent])
            if common > best_common:
                best, best_members, best_common = parent, membership[parent], common
        return best, best_members

    def _recover_payloads(
        self, rids: set[int], parent_vids: Sequence[int]
    ) -> dict[int, Row]:
        """Payloads of inherited records the base lacks (merge case)."""
        out: dict[int, Row] = {}
        wanted = set(rids)
        for parent in parent_vids:
            if not wanted:
                break
            for rid, payload in self.records_of(parent).items():
                if rid in wanted:
                    out[rid] = payload
                    wanted.discard(rid)
        if wanted:
            raise LookupError(f"records {sorted(wanted)[:5]} not found in any parent")
        return out

    def bulk_load(self, versions, payloads) -> None:
        """Build every delta table straight from the payload map (the
        default path would reconstruct parent chains per merge)."""
        width = len(self.data_schema)
        precedent_rows = []
        # The CVD records the batch's membership only after this returns,
        # so bases inside the batch resolve through a local overlay.
        batch: dict[int, RidSet] = {}
        known = ChainMap(batch, self.membership)
        for vid, parents, member_rids in versions:
            members = RidSet(member_rids)
            base, base_members = self._pick_base(members, parents, known)
            rows: list[tuple] = []
            for rid in members - base_members:
                rows.append((rid,) + tuple(payloads[rid]) + (False,))
            for rid in base_members - members:
                rows.append((rid,) + (None,) * width + (True,))
            table = self.db.create_table(self._delta_table(vid), self._delta_schema())
            table.insert_many(rows)
            precedent_rows.append((vid, base))
            batch[vid] = members
        self.db.table(self.precedent_table).insert_many(precedent_rows)

    # ------------------------------------------------------------ checkout

    def _chain_of(self, vid: int) -> list[int]:
        """vid, base(vid), base(base(vid)), ... back to the root."""
        chain = []
        current: int | None = vid
        while current is not None:
            chain.append(current)
            result = self.db.execute(
                f"SELECT base FROM {self.precedent_table} WHERE vid = %s",
                (current,),
            )
            if not result.rows:
                raise LookupError(f"version {current} has no precedent entry")
            current = result.scalar()
        return chain

    def _reconstruct(self, vid: int) -> list[Row]:
        seen: set[int] = set()
        out: list[Row] = []
        for chain_vid in self._chain_of(vid):
            for row in self.db.query(f"SELECT * FROM {self._delta_table(chain_vid)}"):
                rid, tombstone = row[0], row[-1]
                if rid in seen:
                    continue
                seen.add(rid)
                if not tombstone:
                    out.append(row[:-1])
        return out

    def checkout_into(self, vid: int, table_name: str) -> None:
        rows = self._reconstruct(vid)
        table = self.db.create_table(
            table_name, self.storage_schema(), clustered_on="rid"
        )
        table.insert_many(rows)

    def fetch_version(self, vid: int) -> list[Row]:
        return self._reconstruct(vid)

    def storage_bytes(self) -> int:
        total = self.db.table(self.precedent_table).storage_bytes()
        for vid in self.membership:
            total += self.db.table(self._delta_table(vid)).storage_bytes()
        return total
