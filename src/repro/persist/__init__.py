"""repro.persist — the durable store behind the OrpheusDB middleware.

OrpheusDB is a *bolt-on* versioning layer: the paper keeps CVDs durable by
living inside a DBMS.  This package gives the reproduction's embedded,
in-memory engine the same property with a classic two-part design:

* :mod:`repro.persist.wal` — a write-ahead log of logical operations
  (``init``, ``commit``, ``drop``, user management, durable SQL DML,
  ``optimize``, and the partition optimizer's transitions — ``maintain``
  samples and ``migration``) appended with CRC framing and ``fsync``
  after the operation has applied, before it is acknowledged; each record
  is encoded before its operation applies.  A commit record is a set
  difference against its parents — the rids it drops plus its new records,
  as blocks of the snapshot's typed-column codec — so it costs O(changed
  records) whatever the DML did.
* :mod:`repro.persist.snapshot` — a checkpoint format serializing the full
  engine catalog (one segment file, a block of typed columns per table;
  the rlist tables, derived from membership, are rebuilt at open) plus
  the middleware state (versions and their membership, written once; provenance, access
  control, attribute catalogs, the partitioned model's assignment and the
  optimizer's decision state)
  via temp-file + atomic rename; the manifest carries a format number
  and the reader refuses any format but the current one.
* :mod:`repro.persist.store` — :class:`Store`, which ties the two together:
  ``Store.open`` loads the latest valid snapshot and replays the WAL tail;
  a checkpoint policy empties the log after enough appends.

Durability contract: journaled operations survive any crash after the
command that acknowledged them returns.  Most ops are durable the moment
their WAL append returns; DML that writes durable tables while *reading*
staged state carries a barrier flag that triggers an immediate checkpoint,
since its effect cannot be replayed once staging is gone.  Staging state
itself (uncommitted checkouts and edits to staged tables) is working-tree
state — captured by checkpoints, lost by crashes — mirroring how git never
versions your working tree.
"""

from repro.persist.snapshot import load_snapshot, write_snapshot
from repro.persist.store import RefreshResult, Store
from repro.persist.wal import WalRecord, WriteAheadLog

__all__ = [
    "Store",
    "RefreshResult",
    "WriteAheadLog",
    "WalRecord",
    "write_snapshot",
    "load_snapshot",
]
