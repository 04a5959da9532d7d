"""Parsed-statement nodes produced by the SQL parser: mutable slotted
records (:class:`repro.record.Record`), equal when their fields are."""

from __future__ import annotations

from repro.record import Record
from repro.storage.expression import Expression
from repro.storage.types import DataType


class Statement(Record):
    """Marker base class for all parsed statements."""

    __slots__ = ()


class ColumnDef(Record):
    __slots__ = _fields = ("name", "dtype", "not_null")

    def __init__(self, name: str, dtype: DataType, not_null: bool = False):
        self.name, self.dtype, self.not_null = name, dtype, not_null


class CreateTable(Statement):
    __slots__ = _fields = ("table", "columns", "primary_key", "if_not_exists")

    def __init__(
        self,
        table: str,
        columns: list[ColumnDef],
        primary_key: tuple[str, ...] = (),
        if_not_exists: bool = False,
    ):
        self.table, self.columns = table, columns
        self.primary_key, self.if_not_exists = primary_key, if_not_exists


class DropTable(Statement):
    __slots__ = _fields = ("table", "if_exists")

    def __init__(self, table: str, if_exists: bool = False):
        self.table, self.if_exists = table, if_exists


class CreateIndex(Statement):
    __slots__ = _fields = ("index", "table", "columns", "unique", "ordered")

    def __init__(
        self,
        index: str,
        table: str,
        columns: tuple[str, ...],
        unique: bool = False,
        ordered: bool = False,  # CREATE INDEX ... USING btree
    ):
        self.index, self.table, self.columns = index, table, columns
        self.unique, self.ordered = unique, ordered


class DropIndex(Statement):
    __slots__ = _fields = ("table", "index")

    def __init__(self, table: str, index: str):
        self.table, self.index = table, index


class AlterTableAddColumn(Statement):
    __slots__ = _fields = ("table", "column", "default")

    def __init__(
        self, table: str, column: ColumnDef, default: Expression | None = None
    ):
        self.table, self.column, self.default = table, column, default


class ClusterTable(Statement):
    """``CLUSTER table USING column`` — physically re-sort the heap."""

    __slots__ = _fields = ("table", "column")

    def __init__(self, table: str, column: str):
        self.table, self.column = table, column


class SelectItem(Record):
    """One entry of a select list: expression plus optional alias."""

    __slots__ = _fields = ("expr", "alias")

    def __init__(self, expr: Expression, alias: str | None = None):
        self.expr, self.alias = expr, alias


class TableRef(Record):
    """A named table in FROM, with optional alias."""

    __slots__ = _fields = ("table", "alias")

    def __init__(self, table: str, alias: str | None = None):
        self.table, self.alias = table, alias

    @property
    def binding(self) -> str:
        return self.alias or self.table


class SubqueryRef(Record):
    """A derived table ``(SELECT ...) AS alias`` in FROM."""

    __slots__ = _fields = ("query", "alias")

    def __init__(self, query: Select, alias: str):
        self.query, self.alias = query, alias

    @property
    def binding(self) -> str:
        return self.alias


class VersionRef(Record):
    """A versioned relation in FROM (paper Section 2.2).

    ``kind`` is ``"version"`` (``VERSION n[, m ...] OF CVD c``; ``vids``
    lists them), ``"all"`` (``ALL VERSIONS OF CVD c``; no vids), or an
    axis, ``"ancestor"``/``"descendant"`` (``VERSIONS ANCESTOR OF n OF
    CVD c``; ``vids`` is ``(n,)``).  The engine never answers it itself:
    the planner hands it to the resolver registered on the Database.
    """

    __slots__ = _fields = ("kind", "cvd", "vids", "alias")

    def __init__(self, kind: str, cvd: str, vids=(), alias: str | None = None):
        self.kind, self.cvd, self.vids, self.alias = kind, cvd, vids, alias

    @property
    def binding(self) -> str:
        return self.alias or self.cvd


class JoinClause(Record):
    """An explicit ``JOIN ... ON`` attached to the preceding FROM item;
    ``kind`` is ``'inner'`` or ``'left'``."""

    __slots__ = _fields = ("item", "condition", "kind")

    def __init__(self, item: FromItem, condition: Expression, kind: str = "inner"):
        self.item, self.condition, self.kind = item, condition, kind


FromItem = TableRef | SubqueryRef | VersionRef


class OrderItem(Record):
    __slots__ = _fields = ("expr", "descending")

    def __init__(self, expr: Expression, descending: bool = False):
        self.expr, self.descending = expr, descending


class Select(Statement):
    """``from_items``, ``joins``, ``group_by`` and ``order_by`` default to
    fresh empty lists; ``into_table`` is ``SELECT ... INTO t``, the
    checkout idiom."""

    __slots__ = _fields = (
        "items",
        "from_items",
        "joins",
        "where",
        "group_by",
        "having",
        "order_by",
        "limit",
        "offset",
        "distinct",
        "into_table",
        "union_all_with",
    )

    def __init__(
        self,
        items: list[SelectItem],
        from_items: list[FromItem] | None = None,
        joins: list[JoinClause] | None = None,
        where: Expression | None = None,
        group_by: list[Expression] | None = None,
        having: Expression | None = None,
        order_by: list[OrderItem] | None = None,
        limit: int | None = None,
        offset: int | None = None,
        distinct: bool = False,
        into_table: str | None = None,
        union_all_with: Select | None = None,
    ):
        self.items, self.where, self.having = items, where, having
        self.from_items = [] if from_items is None else from_items
        self.joins = [] if joins is None else joins
        self.group_by = [] if group_by is None else group_by
        self.order_by = [] if order_by is None else order_by
        self.limit, self.offset, self.distinct = limit, offset, distinct
        self.into_table, self.union_all_with = into_table, union_all_with


class Insert(Statement):
    """``rows`` is the VALUES form, ``query`` the ``INSERT ... SELECT`` one."""

    __slots__ = _fields = ("table", "columns", "rows", "query")

    def __init__(
        self,
        table: str,
        columns: tuple[str, ...] | None,
        rows: list[list[Expression]] | None,
        query: Select | None = None,
    ):
        self.table, self.columns, self.rows, self.query = table, columns, rows, query


class Update(Statement):
    __slots__ = _fields = ("table", "assignments", "where")

    def __init__(self, table: str, assignments, where: Expression | None = None):
        self.table, self.assignments, self.where = table, assignments, where


class Delete(Statement):
    __slots__ = _fields = ("table", "where")

    def __init__(self, table: str, where: Expression | None = None):
        self.table, self.where = table, where
