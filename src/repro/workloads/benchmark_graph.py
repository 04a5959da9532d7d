"""Shared machinery for the versioning-benchmark generators (Section 5.1).

The paper evaluates on the Decibel versioning benchmark (Maddox et al.),
whose generator we reimplement from its published description.  A generated
workload is a topologically ordered list of versions, each with parents,
full rid membership, and the rids it introduced; payloads are a
deterministic function of the rid so datasets are reproducible and cheap.

Versions evolve by three operations, all of which create *fresh* rids for
changed content (matching OrpheusDB's immutable records and no-cross-
version-diff rule):

* insert  — brand-new records;
* update  — replace an inherited record with a fresh rid;
* delete  — drop an inherited record.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.errors import WorkloadError


@dataclass(frozen=True)
class GeneratedVersion:
    """One version of a generated workload (generator rid space)."""

    vid: int
    parents: tuple[int, ...]
    members: frozenset[int]
    new_rids: tuple[int, ...]


@dataclass
class VersionedWorkload:
    """A complete generated dataset: version DAG plus record membership."""

    name: str
    versions: list[GeneratedVersion]
    num_attributes: int
    num_branches: int
    inserts_per_version: int

    def __post_init__(self) -> None:
        self._by_vid = {v.vid: v for v in self.versions}

    def version(self, vid: int) -> GeneratedVersion:
        return self._by_vid[vid]

    # ---------------------------------------------------------- statistics

    @property
    def num_versions(self) -> int:
        return len(self.versions)

    @property
    def num_records(self) -> int:
        """|R|: distinct records across all versions."""
        out: set[int] = set()
        for version in self.versions:
            out |= version.members
        return len(out)

    @property
    def num_edges(self) -> int:
        """|E| of the version-record bipartite graph."""
        return sum(len(v.members) for v in self.versions)

    @property
    def has_merges(self) -> bool:
        return any(len(v.parents) > 1 for v in self.versions)

    def membership(self) -> dict[int, frozenset[int]]:
        return {v.vid: v.members for v in self.versions}

    def payload(self, rid: int) -> tuple[int, ...]:
        """Deterministic record payload: ``num_attributes`` small integers.

        The paper's benchmark records are 100 4-byte integer attributes; the
        attribute count here is a knob so scaled runs stay fast.
        """
        return tuple(
            ((rid + 1) * 2654435761 + j * 40503) % 10000
            for j in range(self.num_attributes)
        )


class WorkloadBuilder:
    """Incrementally builds a :class:`VersionedWorkload`.

    The SCI and CUR generators drive this with their own branching and
    merging policies; the builder owns rid/vid allocation and the
    insert/update/delete mechanics.
    """

    def __init__(self, name: str, num_attributes: int, seed: int):
        self.name = name
        self.num_attributes = num_attributes
        self.rng = random.Random(seed)
        #: Vids are allocated 1, 2, ...: version ``vid`` is entry vid - 1.
        self._versions: list[GeneratedVersion] = []
        # Each rid is one immutable *version of* a logical record; updates
        # produce a new rid with the same logical key.  Merges use the keys
        # for primary-key conflict resolution, like the system itself.
        self._logical_key: dict[int, int] = {}
        self._next_key = 1
        self._next_rid = 1
        self._next_vid = 1

    # ------------------------------------------------------------ plumbing

    def _fresh_rids(self, count: int, keys: Sequence[int] = ()) -> tuple[int, ...]:
        """Allocate rids; ``keys`` reuses logical keys (updates), the rest
        get brand-new logical keys (inserts)."""
        rids = tuple(range(self._next_rid, self._next_rid + count))
        self._next_rid += count
        for position, rid in enumerate(rids):
            if position < len(keys):
                self._logical_key[rid] = keys[position]
            else:
                self._logical_key[rid] = self._next_key
                self._next_key += 1
        return rids

    def _push(
        self,
        parents: tuple[int, ...],
        members: frozenset[int],
        new_rids: tuple[int, ...],
    ) -> int:
        vid = self._next_vid
        self._next_vid += 1
        version = GeneratedVersion(vid, parents, members, new_rids)
        self._versions.append(version)
        return vid

    @property
    def version_ids(self) -> list[int]:
        return [v.vid for v in self._versions]

    def members(self, vid: int) -> frozenset[int]:
        return self._versions[vid - 1].members

    # ----------------------------------------------------------- operations

    def root(self, num_records: int) -> int:
        """Create the root version with ``num_records`` fresh records."""
        if self._versions:
            raise WorkloadError("root version already created")
        rids = self._fresh_rids(num_records)
        return self._push((), frozenset(rids), rids)

    def derive(
        self,
        parent: int,
        inserts: int,
        updates: int,
        deletes: int,
    ) -> int:
        """One child version: ``parent`` edited by the three operations."""
        base = set(self.members(parent))
        updates = min(updates, len(base))
        touched = (
            self.rng.sample(sorted(base), updates + min(deletes, len(base) - updates))
            if base
            else []
        )
        updated, deleted = touched[:updates], touched[updates:]
        base -= set(updated)
        base -= set(deleted)
        # Updated rids are replaced by fresh rids carrying the same logical
        # key; inserted rids get new keys.
        fresh = self._fresh_rids(
            inserts + len(updated),
            keys=[self._logical_key[rid] for rid in updated],
        )
        return self._push((parent,), frozenset(base) | frozenset(fresh), fresh)

    def merge(self, primary: int, secondary: int, inserts: int = 0) -> int:
        """Merge two versions with primary-key precedence (Section 2.2):
        the primary's records win; the secondary contributes only records
        whose logical key the primary does not carry."""
        primary_members = self.members(primary)
        primary_keys = {self._logical_key[rid] for rid in primary_members}
        carried = {
            rid
            for rid in self.members(secondary)
            if self._logical_key[rid] not in primary_keys
        }
        fresh = self._fresh_rids(inserts)
        return self._push(
            (primary, secondary),
            primary_members | carried | frozenset(fresh),
            fresh,
        )

    # ---------------------------------------------------------------- build

    def build(self, num_branches: int, inserts_per_version: int) -> VersionedWorkload:
        if not self._versions:
            raise WorkloadError("workload has no versions")
        return VersionedWorkload(
            name=self.name,
            versions=list(self._versions),
            num_attributes=self.num_attributes,
            num_branches=num_branches,
            inserts_per_version=inserts_per_version,
        )


def split_edit_counts(
    total: int, update_fraction: float, delete_fraction: float
) -> tuple[int, int, int]:
    """(inserts, updates, deletes) for one derived version.

    ``total`` is the benchmark's I parameter: inserts *or updates* per
    version; deletes are extra and rare (the paper notes the benchmark
    contains few deletes, favouring updates/inserts).
    """
    if total < 0:
        raise WorkloadError("edit count must be non-negative")
    updates = int(round(total * update_fraction))
    inserts = total - updates
    deletes = int(round(total * delete_fraction))
    return inserts, updates, deletes
