"""The version-record bipartite graph and the partitioning cost model.

Section 4.1 formalizes partitioning on ``G = (V, R, E)``: versions on one
side, records on the other, an edge when a record belongs to a version.
A partitioning assigns every *version* to exactly one partition; records
are duplicated wherever needed.  Costs:

* storage  ``S = sum_k |R_k|``                         (Equation 4.1)
* checkout ``Cavg = sum_k |V_k| * |R_k| / n``          (Equation 4.2)

Extremes (Observations 1 and 2): one-partition-per-version minimizes
``Cavg = |E|/|V|``; a single partition minimizes ``S = |R|``.

Every cost, Appendix C.2's weighted ``Cw`` included, is a fold over one
list, ``|R_k|`` per group (:meth:`BipartiteGraph.group_sizes`).
"""

from __future__ import annotations

from operator import mul
from typing import Iterable, Mapping

from repro.errors import PartitionError
from repro.record import FrozenRecord
from repro.storage.ridset import RidSet


class Partitioning(FrozenRecord):
    """An assignment of versions to partitions (frozenset of vids each)."""

    __slots__ = _fields = ("groups",)

    def __init__(self, groups: tuple[frozenset[int], ...]):
        self.groups = groups

    @staticmethod
    def from_groups(groups: Iterable[Iterable[int]]) -> "Partitioning":
        frozen = tuple(frozenset(group) for group in groups if group)
        seen: set[int] = set()
        for group in frozen:
            overlap = seen & group
            if overlap:
                raise PartitionError(
                    f"versions {sorted(overlap)[:5]} assigned to multiple "
                    f"partitions"
                )
            seen |= group
        return Partitioning(frozen)

    @staticmethod
    def single(version_ids: Iterable[int]) -> "Partitioning":
        return Partitioning((frozenset(version_ids),))

    @staticmethod
    def per_version(version_ids: Iterable[int]) -> "Partitioning":
        return Partitioning(tuple(frozenset((v,)) for v in version_ids))

    def __len__(self) -> int:
        return len(self.groups)

    def assignment(self) -> dict[int, int]:
        """vid -> partition index."""
        out: dict[int, int] = {}
        for index, group in enumerate(self.groups):
            for vid in group:
                out[vid] = index
        return out

    def version_ids(self) -> set[int]:
        out: set[int] = set()
        for group in self.groups:
            out |= group
        return out


def average_checkout(
    partitioning: Partitioning,
    sizes: list[int],
    frequencies: Mapping[int, float] | None = None,
) -> float:
    """``Cavg = sum_k |V_k|*|R_k| / n`` from ``sizes`` (``|R_k|`` per group);
    with ``frequencies`` (vid -> f_i, default 1) each group weighs the sum
    of its versions' f_i instead of ``|V_k|``, which is Appendix C.2's
    ``Cw = sum_i f_i*C_i / sum_i f_i``."""
    groups = partitioning.groups
    if frequencies:
        weights = [sum(frequencies.get(vid, 1) for vid in group) for group in groups]
    else:
        weights = list(map(len, groups))
    return sum(map(mul, weights, sizes)) / sum(weights)


class BipartiteGraph:
    """Version-record membership with the Section 4.1 cost model.

    Membership is held as packed :class:`RidSet` bitmaps, so every cost
    evaluation — ``|R_k|`` per candidate partition, ``S``, ``Cavg`` — is a
    chain of big-int unions and popcounts rather than hash-set unions.
    This is what keeps re-evaluating LyreSplit candidates cheap during the
    delta binary search.
    """

    def __init__(self, membership: Mapping[int, Iterable[int]]):
        if not membership:
            raise PartitionError("bipartite graph needs at least one version")
        from repro.storage.arrays import to_ridset

        self._membership = {vid: to_ridset(rids) for vid, rids in membership.items()}
        self._all_records: RidSet = RidSet.union_all(self._membership.values())

    @classmethod
    def from_cvd(cls, cvd) -> "BipartiteGraph":
        return cls(cvd.membership)

    # ------------------------------------------------------------ structure

    @property
    def num_versions(self) -> int:
        return len(self._membership)

    @property
    def num_records(self) -> int:
        """|R|: distinct records across all versions."""
        return len(self._all_records)

    @property
    def num_edges(self) -> int:
        """|E|: total membership pairs."""
        return sum(len(rids) for rids in self._membership.values())

    def version_ids(self) -> list[int]:
        return list(self._membership)

    def records_of(self, vid: int) -> RidSet:
        try:
            return self._membership[vid]
        except KeyError:
            raise PartitionError(f"unknown version {vid}") from None

    def partition_records(self, group: Iterable[int]) -> RidSet:
        """Union of record sets of the versions in one partition."""
        return RidSet.union_all(self.records_of(vid) for vid in group)

    def group_sizes(self, partitioning: Partitioning) -> list[int]:
        """``|R_k|`` per group, in group order: one cover check and one
        union + popcount per group.  Every cost below is a fold over it."""
        self._validate_cover(partitioning)
        return [len(self.partition_records(group)) for group in partitioning.groups]

    # ----------------------------------------------------------------- cost

    def storage_cost(self, partitioning: Partitioning) -> int:
        """``S = sum_k |R_k|`` in records."""
        return sum(self.group_sizes(partitioning))

    def checkout_cost(self, partitioning: Partitioning) -> float:
        """``Cavg = sum_k |V_k|*|R_k| / n`` in records."""
        return average_checkout(partitioning, self.group_sizes(partitioning))

    def weighted_checkout_cost(
        self, partitioning: Partitioning, frequencies: Mapping[int, float]
    ) -> float:
        """``Cw = sum_i f_i*C_i / sum_i f_i`` (Appendix C.2)."""
        sizes = self.group_sizes(partitioning)
        return average_checkout(partitioning, sizes, frequencies)

    # -------------------------------------------------------------- bounds

    @property
    def min_checkout_cost(self) -> float:
        """Observation 1: ``|E|/|V|`` with one partition per version."""
        return self.num_edges / self.num_versions

    @property
    def min_storage_cost(self) -> int:
        """Observation 2: ``|R|`` with a single partition."""
        return self.num_records

    def _validate_cover(self, partitioning: Partitioning) -> None:
        covered = partitioning.version_ids()
        missing = set(self._membership) - covered
        if missing:
            raise PartitionError(f"partitioning misses versions {sorted(missing)[:5]}")
        extra = covered - set(self._membership)
        if extra:
            raise PartitionError(
                f"partitioning references unknown versions {sorted(extra)[:5]}"
            )
