"""Version metadata (paper Section 3.3, Figure 4)."""

from __future__ import annotations

from repro.record import Record


class Version(Record):
    """Metadata for one version of a CVD.

    ``checkout_time`` / ``commit_time`` are logical timestamps drawn from the
    OrpheusDB instance's monotonic clock so test runs are deterministic; the
    clock can be seeded from wall time by applications that care.
    ``attribute_ids`` indexes into the CVD's attribute table (Figure 5) and
    supports the single-pool schema-evolution scheme.
    """

    __slots__ = _fields = (
        "vid",
        "parents",
        "num_records",
        "checkout_time",
        "commit_time",
        "message",
        "attribute_ids",
        "children",
    )

    def __init__(
        self,
        vid: int,
        parents: tuple[int, ...] = (),
        num_records: int = 0,
        checkout_time: int | None = None,
        commit_time: int | None = None,
        message: str = "",
        attribute_ids: tuple[int, ...] = (),
        children: list[int] | None = None,
    ):
        self.vid, self.parents, self.num_records = vid, parents, num_records
        self.checkout_time, self.commit_time = checkout_time, commit_time
        self.message, self.attribute_ids = message, attribute_ids
        self.children = [] if children is None else children

    @property
    def is_merge(self) -> bool:
        """A merged version has two or more parents (Section 2.1)."""
        return len(self.parents) >= 2

    @property
    def is_root(self) -> bool:
        return not self.parents
