"""Provenance manager: metadata for uncommitted checkouts (Section 2.3).

Every checkout — into a staging table or a CSV file — is registered here
with its source CVD, parent version(s), owner, and checkout time, so that
``commit`` needs only the table/file name (the paper's commit command never
names the CVD).
"""

from __future__ import annotations

from repro.errors import StagingError
from repro.record import FrozenRecord


class StagedCheckout(FrozenRecord):
    """One uncommitted materialization of CVD version(s); ``name`` is the
    table name, or the file path for CSV checkouts."""

    __slots__ = _fields = (
        "name",
        "cvd_name",
        "parent_vids",
        "owner",
        "checkout_time",
        "is_file",
    )

    def __init__(
        self,
        name: str,
        cvd_name: str,
        parent_vids: tuple[int, ...],
        owner: str,
        checkout_time: int,
        is_file: bool = False,
    ):
        self.name, self.cvd_name, self.parent_vids = name, cvd_name, parent_vids
        self.owner, self.checkout_time, self.is_file = owner, checkout_time, is_file


class ProvenanceManager:
    """Registry of staged checkouts keyed by table/file name."""

    def __init__(self) -> None:
        self._staged: dict[str, StagedCheckout] = {}

    def register(self, staged: StagedCheckout) -> None:
        if staged.name in self._staged:
            raise StagingError(
                f"{staged.name!r} is already a staged checkout; commit or "
                f"drop it before checking out again"
            )
        self._staged[staged.name] = staged

    def lookup(self, name: str) -> StagedCheckout:
        try:
            return self._staged[name]
        except KeyError:
            raise StagingError(
                f"{name!r} is not a staged checkout of any CVD"
            ) from None

    def remove(self, name: str) -> StagedCheckout:
        staged = self.lookup(name)
        del self._staged[name]
        return staged

    def staged_names(self) -> list[str]:
        return sorted(self._staged)

    def staged_for_cvd(self, cvd_name: str) -> list[StagedCheckout]:
        return [
            staged
            for staged in self._staged.values()
            if staged.cvd_name == cvd_name
        ]
