"""The version-record bipartite graph and the partitioning cost model.

Section 4.1 formalizes partitioning on ``G = (V, R, E)``: versions on one
side, records on the other, an edge when a record belongs to a version.
A partitioning assigns every *version* to exactly one partition; records
are duplicated wherever needed.  Costs:

* storage  ``S = sum_k |R_k|``                         (Equation 4.1)
* checkout ``Cavg = sum_k |V_k| * |R_k| / n``          (Equation 4.2)

Extremes (Observations 1 and 2): one-partition-per-version minimizes
``Cavg = |E|/|V|``; a single partition minimizes ``S = |R|``.
"""

from __future__ import annotations

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

    def partition_record_count(self, group: Iterable[int]) -> int:
        """``|R_k|`` as one union + popcount (no materialization)."""
        return len(self.partition_records(group))

    # ----------------------------------------------------------------- cost

    def storage_cost(self, partitioning: Partitioning) -> int:
        """``S = sum_k |R_k|`` in records."""
        self._validate_cover(partitioning)
        return sum(self.partition_record_count(group) for group in partitioning.groups)

    def checkout_cost(self, partitioning: Partitioning) -> float:
        """``Cavg = sum_k |V_k|*|R_k| / n`` in records."""
        self._validate_cover(partitioning)
        total = sum(
            len(group) * self.partition_record_count(group)
            for group in partitioning.groups
        )
        return total / self.num_versions

    def checkout_cost_of(self, vid: int, partitioning: Partitioning) -> int:
        """``C_i = |R_k|`` where vid lives in partition k."""
        for group in partitioning.groups:
            if vid in group:
                return self.partition_record_count(group)
        raise PartitionError(f"version {vid} is not in the partitioning")

    def weighted_checkout_cost(
        self, partitioning: Partitioning, frequencies: Mapping[int, float]
    ) -> float:
        """``Cw = sum_i f_i*C_i / sum_i f_i`` (Appendix C.2)."""
        self._validate_cover(partitioning)
        sizes = {
            index: self.partition_record_count(group)
            for index, group in enumerate(partitioning.groups)
        }
        assignment = partitioning.assignment()
        numerator = sum(
            frequencies.get(vid, 1.0) * sizes[assignment[vid]]
            for vid in self._membership
        )
        denominator = sum(frequencies.get(vid, 1.0) for vid in self._membership)
        return numerator / denominator

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
