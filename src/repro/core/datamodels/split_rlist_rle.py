"""Split-by-rlist with range-encoded versioning arrays.

The compression extension Section 3.2 points at: rlists store
``(start, length)`` runs instead of every rid, cutting the versioning
table's array cells dramatically on sequential-rid workloads, while
checkout stays a single SQL statement via the engine's ``unnest_ranges``
set-returning function.  Commit cost is unchanged (still one INSERT).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.compression import encode_ranges
from repro.core.datamodels.split_rlist import SplitByRlistModel
from repro.core.datamodels.base import Row
from repro.storage.ridset import RidSet


class SplitByRlistRangeModel(SplitByRlistModel):
    model_name = "split_by_rlist_rle"
    unnest = "unnest_ranges"

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
        self.db.execute(
            f"INSERT INTO {self.versioning_table} VALUES (%s, %s)",
            (vid, encode_ranges(members)),
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
            versioning_rows.append((vid, encode_ranges(member_rids)))
        self.db.table(self.data_table).insert_many(data_rows)
        self.db.table(self.versioning_table).insert_many(versioning_rows)
