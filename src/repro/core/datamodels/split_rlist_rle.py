"""Split-by-rlist with range-encoded versioning arrays.

The compression extension Section 3.2 points at: rlists store
``(start, length)`` runs instead of every rid, cutting the versioning
table's array cells dramatically on sequential-rid workloads, while
checkout stays a single SQL statement via the engine's ``unnest_ranges``
set-returning function.  Commit cost is unchanged (still one INSERT).
"""

from __future__ import annotations

from repro.core.compression import encode_ranges
from repro.core.datamodels.split_rlist import SplitByRlistModel
from repro.core.datamodels.base import Row
from repro.storage.ridset import RidSet


class SplitByRlistRangeModel(SplitByRlistModel):
    model_name = "split_by_rlist_rle"
    unnest = "unnest_ranges"

    def rlist_row(self, vid: int, members: RidSet) -> Row:
        return (vid, encode_ranges(members))
