"""Parsed-statement dataclasses produced by the SQL parser."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.storage.expression import Expression
from repro.storage.types import DataType


class Statement:
    """Marker base class for all parsed statements."""


@dataclass
class ColumnDef:
    name: str
    dtype: DataType
    not_null: bool = False


@dataclass
class CreateTable(Statement):
    table: str
    columns: list[ColumnDef]
    primary_key: tuple[str, ...] = ()
    if_not_exists: bool = False


@dataclass
class DropTable(Statement):
    table: str
    if_exists: bool = False


@dataclass
class CreateIndex(Statement):
    index: str
    table: str
    columns: tuple[str, ...]
    unique: bool = False
    ordered: bool = False  # CREATE INDEX ... USING btree


@dataclass
class DropIndex(Statement):
    table: str
    index: str


@dataclass
class AlterTableAddColumn(Statement):
    table: str
    column: ColumnDef
    default: Expression | None = None


@dataclass
class ClusterTable(Statement):
    """``CLUSTER table USING column`` — physically re-sort the heap."""

    table: str
    column: str


@dataclass
class SelectItem:
    """One entry of a select list: expression plus optional alias."""

    expr: Expression
    alias: Optional[str] = None


@dataclass
class TableRef:
    """A named table in FROM, with optional alias."""

    table: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        return self.alias or self.table


@dataclass
class SubqueryRef:
    """A derived table ``(SELECT ...) AS alias`` in FROM."""

    query: "Select"
    alias: str

    @property
    def binding(self) -> str:
        return self.alias


@dataclass
class VersionRef:
    """A versioned relation in FROM (paper Section 2.2).

    ``kind`` is ``"version"`` (``VERSION n[, m ...] OF CVD c``; ``vids``
    lists them), ``"all"`` (``ALL VERSIONS OF CVD c``; no vids), or an
    axis, ``"ancestor"``/``"descendant"`` (``VERSIONS ANCESTOR OF n OF
    CVD c``; ``vids`` is ``(n,)``).  The engine never answers it itself:
    the planner hands it to the resolver registered on the Database.
    """

    kind: str
    cvd: str
    vids: tuple[int, ...] = ()
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        return self.alias or self.cvd


@dataclass
class JoinClause:
    """An explicit ``JOIN ... ON`` attached to the preceding FROM item."""

    item: "FromItem"
    condition: Expression
    kind: str = "inner"  # 'inner' | 'left'


FromItem = TableRef | SubqueryRef | VersionRef


@dataclass
class OrderItem:
    expr: Expression
    descending: bool = False


@dataclass
class Select(Statement):
    items: list[SelectItem]
    from_items: list[FromItem] = field(default_factory=list)
    joins: list[JoinClause] = field(default_factory=list)
    where: Expression | None = None
    group_by: list[Expression] = field(default_factory=list)
    having: Expression | None = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: int | None = None
    offset: int | None = None
    distinct: bool = False
    into_table: str | None = None  # SELECT ... INTO t (the checkout idiom)
    union_all_with: Optional["Select"] = None


@dataclass
class Insert(Statement):
    table: str
    columns: tuple[str, ...] | None
    rows: list[list[Expression]] | None  # VALUES form
    query: Select | None = None  # INSERT ... SELECT form


@dataclass
class Update(Statement):
    table: str
    assignments: list[tuple[str, Expression]]
    where: Expression | None = None


@dataclass
class Delete(Statement):
    table: str
    where: Expression | None = None
