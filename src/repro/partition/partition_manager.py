"""Physical partitioned storage: split-by-rlist sharded by partition.

Applying a :class:`~repro.partition.bipartite.Partitioning` turns a CVD's
single (data table, versioning table) pair into one pair per partition —
the hybrid of split-by-rlist and a-table-per-version that Section 3.2
motivates.  Checkout of a version touches exactly its partition's tables
(the paper constrains every version to one partition for this reason), so
checkout cost drops from |R| to |R_k|.

:class:`PartitionedRlistModel` implements the
:class:`~repro.core.datamodels.base.DataModel` interface, so an optimizer
can swap it in for a CVD's plain split-by-rlist model and the rest of the
middleware (checkout/commit/translation) keeps working unchanged.  A new
version lands in the partition its prepared commit names, which the
optimizer decided by the online-maintenance rule of Section 4.3.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.core.datamodels.base import DataModel, Row, union_all
from repro.core.datamodels.split_rlist import rlist_scan
from repro.errors import PartitionError, VersionNotFoundError
from repro.record import Record
from repro.storage import arrays
from repro.storage.parser import ast_nodes as ast
from repro.storage.ridset import RidSet
from repro.storage.schema import Column, TableSchema
from repro.storage.types import DataType


class PartitionState(Record):
    """Bookkeeping for one physical partition.

    ``rids`` is a packed bitmap, so the optimizer's per-commit storage
    and Cavg reads are popcounts and the migration planner's insert/
    delete costs are bitmap differences.
    """

    __slots__ = _fields = ("index", "vids", "rids")

    def __init__(self, index: int, vids: set[int] | None = None, rids=None):
        self.index = index
        self.vids = set() if vids is None else vids
        self.rids: RidSet = RidSet() if rids is None else rids

    @property
    def num_versions(self) -> int:
        return len(self.vids)

    @property
    def num_records(self) -> int:
        return len(self.rids)


def partition_tables(cvd_name: str, start: int, count: int) -> list[str]:
    """The data and versioning tables of partitions ``start`` onwards."""
    return [
        f"{cvd_name}__p{index}_{kind}"
        for index in range(start, start + count)
        for kind in ("data", "versions")
    ]


class PartitionedRlistModel(DataModel):
    model_name = "partitioned_rlist"

    def __init__(self, db, cvd_name, data_schema):
        super().__init__(db, cvd_name, data_schema)
        self._partitions: dict[int, PartitionState] = {}
        self._assignment: dict[int, int] = {}  # vid -> partition index
        self._next_partition = 0
        #: The PartitionOptimizer managing this model: it places each
        #: prepared version, and its decision state rides this model's
        #: extra_state so snapshots restore it.
        self.optimizer = None

    # ------------------------------------------------------------- naming

    def _data_table(self, index: int) -> str:
        return f"{self.cvd_name}__p{index}_data"

    def _versioning_table(self, index: int) -> str:
        return f"{self.cvd_name}__p{index}_versions"

    def new_partition_tables(self, count: int) -> list[str]:
        """The tables the next ``count`` partitions this model opens create."""
        return partition_tables(self.cvd_name, self._next_partition, count)

    def version_tables(self, vid: int, partition: int | None) -> tuple[str, ...]:
        if partition in self._partitions:
            return ()
        return tuple(self.new_partition_tables(1))

    # ---------------------------------------------------------- lifecycle

    def create_storage(self) -> None:
        self._partitions = {}
        self._assignment = {}
        self._next_partition = 0

    def drop_storage(self) -> None:
        for index in list(self._partitions):
            self._drop_partition(index)
        self.create_storage()

    def _create_partition(self) -> PartitionState:
        index = self._next_partition
        self._next_partition += 1
        self.db.create_table(
            self._data_table(index),
            TableSchema(
                [Column("rid", DataType.INTEGER)]
                + list(self.data_schema.columns),
                ("rid",),
            ),
            clustered_on="rid",
        )
        self.db.create_table(
            self._versioning_table(index),
            TableSchema(
                [
                    Column("vid", DataType.INTEGER),
                    Column("rlist", DataType.INT_ARRAY),
                ],
                ("vid",),
            ),
        )
        state = PartitionState(index)
        self._partitions[index] = state
        return state

    def _drop_partition(self, index: int) -> None:
        self.db.drop_table(self._data_table(index), if_exists=True)
        self.db.drop_table(self._versioning_table(index), if_exists=True)
        del self._partitions[index]

    # --------------------------------------------------------- persistence

    def extra_state(self) -> dict:
        """Assignment, partition counter and optimizer; each partition's
        versions and records are derived from these plus membership."""
        return {
            "assignment": sorted(self._assignment.items()),
            "next_partition": self._next_partition,
            "optimizer": self.optimizer.to_state(),
        }

    def restore_extra_state(self, state: dict, cvd) -> None:
        from repro.partition.online import PartitionOptimizer

        self._assignment = {vid: index for vid, index in state["assignment"]}
        self._next_partition = state["next_partition"]
        groups = self._groups()
        # Ascending index, the order live partitions are created in:
        # _fetch_payloads probes partitions in this dict's order.
        self._partitions = {
            index: PartitionState(
                index,
                groups[index],
                RidSet.union_all(self.membership[vid] for vid in groups[index]),
            )
            for index in sorted(groups)
        }
        # Resumes the optimizer that places this model's versions.
        PartitionOptimizer.from_state(cvd, state["optimizer"])

    def derived_tables(self) -> dict[str, Iterable[Row]]:
        return {
            self._versioning_table(index): self._rlist_rows(state.vids)
            for index, state in self._partitions.items()
        }

    def rlist_row(self, vid: int, members: RidSet) -> Row:
        """Version ``vid``'s row in its partition's versioning table.

        Commit, migration and snapshot restore all build it here."""
        return (vid, members.to_array())

    def _rlist_rows(self, vids: Iterable[int]) -> Iterator[Row]:
        # Ascending vid is the slot order: commits append in vid order,
        # migration inserts each group sorted.
        for vid in sorted(vids):
            yield self.rlist_row(vid, self.membership[vid])

    # ----------------------------------------------------------- structure

    def partition_states(self) -> list[PartitionState]:
        return [self._partitions[i] for i in sorted(self._partitions)]

    def partition_of(self, vid: int) -> int:
        try:
            return self._assignment[vid]
        except KeyError:
            raise VersionNotFoundError(
                f"version {vid} is not in any partition"
            ) from None

    def _groups(self) -> dict[int, set[int]]:
        """Partition index -> the vids assigned to it."""
        groups: dict[int, set[int]] = {}
        for vid, index in self._assignment.items():
            groups.setdefault(index, set()).add(vid)
        return groups

    @property
    def storage_cost_records(self) -> int:
        """S = sum over partitions of |R_k| (Equation 4.1)."""
        return sum(p.num_records for p in self._partitions.values())

    @property
    def checkout_cost_avg(self) -> float:
        """Cavg from the live partition states (Equation 4.2)."""
        if not self._assignment:
            return 0.0
        total = sum(p.num_versions * p.num_records for p in self._partitions.values())
        return total / len(self._assignment)

    # -------------------------------------------------------------- commit

    def add_version(
        self,
        vid: int,
        members: RidSet,
        new_records: Mapping[int, Row],
        parent_vids: Sequence[int],
        partition: int | None = None,
    ) -> None:
        state = self._partitions.get(partition) or self._create_partition()
        missing = members - state.rids - RidSet(new_records)
        copied = self._fetch_payloads(missing) if missing else {}
        data_table = self.db.table(self._data_table(state.index))
        inserts = dict(copied)
        inserts.update(new_records)
        data_table.insert_many(
            (rid,) + tuple(row)
            for rid, row in inserts.items()
            if rid not in state.rids
        )
        self.db.execute(
            f"INSERT INTO {self._versioning_table(state.index)} "
            f"VALUES (%s, %s)",
            self.rlist_row(vid, members),
        )
        state.vids.add(vid)
        state.rids |= members
        self._assignment[vid] = state.index

    def _fetch_payloads(self, rids: Iterable[int]) -> dict[int, Row]:
        """Resolve payloads of records living in other partitions.

        Bitmap intersection picks each partition's hits; the rows come
        back through one batched rid-index probe per partition.
        """
        wanted = arrays.to_ridset(rids)
        out: dict[int, Row] = {}
        for state in self._partitions.values():
            if not wanted:
                break
            hits = wanted & state.rids
            if not hits:
                continue
            table = self.db.table(self._data_table(state.index))
            index = table.index_on(["rid"])
            for row in table.probe_many(index, ((rid,) for rid in hits)):
                out[row[0]] = tuple(row[1:])
            wanted -= hits
        if wanted:
            raise PartitionError(
                f"records {sorted(wanted)[:5]} not found in any partition"
            )
        return out

    # ------------------------------------------------------------ checkout

    def fetch_rows(self, vid: int, rids) -> list[Row]:
        return self._fetch_rows_from_table(
            self._data_table(self.partition_of(vid)), rids
        )

    def storage_bytes(self) -> int:
        total = 0
        for index in self._partitions:
            total += self.db.table(self._data_table(index)).storage_bytes()
            total += self.db.table(self._versioning_table(index)).storage_bytes()
        return total

    def version_plan(self, vid: int) -> ast.Select:
        index = self.partition_of(vid)
        return self._rid_join(
            self._data_table(index), rlist_scan(self._versioning_table(index), vid)
        )

    def all_versions_plan(self) -> ast.Select:
        return union_all(
            [
                self._member_join(
                    self._data_table(index), rlist_scan(self._versioning_table(index))
                )
                for index in sorted(self._partitions)
            ]
        )

    # ----------------------------------------------------------- migration

    def replace_partitions(
        self,
        new_groups: Sequence[frozenset[int]],
        reuse: Mapping[int, int],
        payloads: Callable[[Iterable[int]], dict[int, Row]],
    ) -> tuple[int, int]:
        """Reorganize physical partitions to ``new_groups``.

        ``reuse[i] = j`` reuses old partition ``j`` (applying record inserts
        and deletes) as new group ``i``; unmapped groups are built from
        scratch, so with no ``reuse`` on an empty model this is the first
        build (``payloads`` then reads the old model's data table).  Returns
        (records_inserted, records_deleted) — the migration cost the
        Fig. 14/15 benchmarks track.
        """
        inserted = deleted = 0
        old_states = dict(self._partitions)
        new_assignment: dict[int, int] = {}
        surviving: set[int] = set()
        # Resolve every payload up front: later groups may need records that
        # the in-place edits below would otherwise have deleted already.
        # Group record sets and the overall needed set are pure bitmap
        # algebra over the per-version memberships.
        group_rid_sets: list[RidSet] = []
        needed = RidSet()
        for i, group in enumerate(new_groups):
            group_rids = RidSet.union_all(self.membership[vid] for vid in group)
            group_rid_sets.append(group_rids)
            old_index = reuse.get(i)
            if old_index is not None:
                needed |= group_rids - old_states[old_index].rids
            else:
                needed |= group_rids
        all_rows = payloads(sorted(needed)) if needed else {}
        if len(all_rows) < len(needed):
            missing = sorted(needed - RidSet(all_rows))
            raise PartitionError(f"records {missing[:5]} missing from data table")
        for i, group in enumerate(new_groups):
            group_rids = group_rid_sets[i]
            old_index = reuse.get(i)
            if old_index is not None:
                state = old_states[old_index]
                surviving.add(old_index)
                to_insert = group_rids - state.rids
                to_delete = state.rids - group_rids
                data_table = self.db.table(self._data_table(old_index))
                if to_insert:
                    data_table.insert_many(
                        (rid,) + tuple(all_rows[rid]) for rid in to_insert
                    )
                    inserted += len(to_insert)
                if to_delete:
                    rid_index = data_table.index_on(["rid"])
                    _probes, slots = rid_index.lookup_many((rid,) for rid in to_delete)
                    data_table.delete_slots(slots)
                    deleted += len(to_delete)
                versioning = self.db.table(self._versioning_table(old_index))
                versioning.truncate()
                state.vids = set(group)
                state.rids = group_rids
                target_index = old_index
            else:
                state = self._create_partition()
                self.db.table(self._data_table(state.index)).insert_many(
                    (rid,) + tuple(all_rows[rid]) for rid in group_rids
                )
                inserted += len(group_rids)
                state.vids = set(group)
                state.rids = group_rids
                target_index = state.index
            self.db.table(self._versioning_table(target_index)).insert_many(
                self._rlist_rows(group)
            )
            new_assignment.update(dict.fromkeys(sorted(group), target_index))
        for old_index in list(old_states):
            if old_index not in surviving and old_index in self._partitions:
                self._drop_partition(old_index)
        self._assignment = new_assignment
        return inserted, deleted
