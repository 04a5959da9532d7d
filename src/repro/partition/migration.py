"""Migration planning: old partitioning -> new partitioning (Section 4.3).

When the migration engine fires, OrpheusDB matches every new partition to
its *closest* existing partition — the one minimizing the modification cost
``|R'_i \\ R_j| + |R_j \\ R'_i|`` (records to insert plus records to
delete).  Pairs are taken greedily by ascending cost, each old partition
reused at most once; if even the best pairing costs more than building the
new partition from scratch (``|R'_i|``), scratch wins.  The *naive*
baseline rebuilds everything.

Costs are computed on rid sets derived from version membership, i.e. from
the version graph rather than by probing physical tables, mirroring the
paper's two-step description.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.partition.bipartite import Partitioning
from repro.record import Record
from repro.storage.ridset import RidSet


class MigrationPlan(Record):
    """What the migration engine will do.

    ``reuse[i] = j`` means new partition i is produced by editing old
    partition j; new partitions absent from ``reuse`` are built fresh.
    ``modifications`` counts records inserted + deleted across all new
    partitions (scratch builds count their full size).
    """

    __slots__ = _fields = ("new_groups", "reuse", "modifications")

    def __init__(
        self,
        new_groups: tuple[frozenset[int], ...],
        reuse: dict[int, int] | None = None,
        modifications: int = 0,
    ):
        self.new_groups, self.modifications = new_groups, modifications
        self.reuse = {} if reuse is None else reuse

    @property
    def num_scratch(self) -> int:
        return len(self.new_groups) - len(self.reuse)

    def resolve_reuse(self, partition_indexes: Sequence[int]) -> dict[int, int]:
        """Map the plan's positional ``reuse`` onto physical partition ids.

        The planner numbers old partitions by their position in the rid-set
        list it was handed; journaling and replay need the *actual* partition
        indexes, which stay meaningful across a crash/restore boundary.
        """
        return {i: partition_indexes[j] for i, j in self.reuse.items()}


def _group_rids(group: frozenset[int], members: Mapping[int, Iterable[int]]) -> RidSet:
    return RidSet.union_all(members[vid] for vid in group)


def plan_intelligent(
    old_rid_sets: Sequence[Iterable[int]],
    new_partitioning: Partitioning,
    members: Mapping[int, Iterable[int]],
) -> MigrationPlan:
    """Greedy closest-partition matching (the paper's ``intell`` scheme).

    The all-pairs modification costs are symmetric-difference popcounts
    over partition bitmaps — the O(partitions²) planning step never
    materializes a rid set.
    """
    new_groups = new_partitioning.groups
    new_rid_sets = [_group_rids(group, members) for group in new_groups]
    from repro.storage.arrays import to_ridset

    old_bitmaps = [to_ridset(rids) for rids in old_rid_sets]
    pairs: list[tuple[int, int, int]] = []  # (cost, new_i, old_j)
    for i, new_rids in enumerate(new_rid_sets):
        for j, old_rids in enumerate(old_bitmaps):
            cost = len(new_rids ^ old_rids)
            pairs.append((cost, i, j))
    pairs.sort()
    reuse: dict[int, int] = {}
    used_old: set[int] = set()
    total = 0
    for cost, i, j in pairs:
        if i in reuse or j in used_old:
            continue
        if cost > len(new_rid_sets[i]):
            continue  # cheaper to build from scratch
        reuse[i] = j
        used_old.add(j)
        total += cost
    for i, new_rids in enumerate(new_rid_sets):
        if i not in reuse:
            total += len(new_rids)
    return MigrationPlan(new_groups=new_groups, reuse=reuse, modifications=total)


def plan_naive(
    new_partitioning: Partitioning,
    members: Mapping[int, Iterable[int]],
) -> MigrationPlan:
    """Drop everything and rebuild each new partition from scratch."""
    new_groups = new_partitioning.groups
    total = sum(len(_group_rids(group, members)) for group in new_groups)
    return MigrationPlan(new_groups=new_groups, reuse={}, modifications=total)
