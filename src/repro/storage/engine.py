"""The :class:`Database` facade — the engine's public entry point.

A Database owns a catalog of tables, a shared I/O-stats registry and a
``join_method`` knob (``hash`` / ``merge`` / ``inl``) mirroring the join
choices the paper profiles in Appendix D.1.  Every SELECT runs on the one
block pipeline of :mod:`repro.storage.executor` — expressions lowered to
block kernels once per statement, a chain of operators fed row blocks —
and DML predicates and join conditions on the same compiled row functions.
SQL goes through :meth:`Database.execute`; library code that wants to
skip parsing can use the direct table API (:meth:`table`,
:meth:`create_table`, ...).
"""

from __future__ import annotations

import re
import time
from typing import Any, Iterable, Sequence

from repro.errors import (
    CatalogError,
    DuplicateObjectError,
    ExecutionError,
)
from repro.record import Record
from repro.storage.executor import QueryProfile, Relation, SelectExecutor
from repro.storage.expression import EvalEnv
from repro.storage.iostats import IOStats, StatsRegistry
from repro.storage.parser import ast_nodes as ast
from repro.storage.parser.parser import parse_sql
from repro.storage.schema import Column, TableSchema
from repro.storage.table import Table
from repro.storage.types import DataType

JOIN_METHODS = ("hash", "merge", "inl")

#: ``PROFILE`` is a wrapper keyword the lexer never sees: it is stripped
#: before parsing, like EXPLAIN in most engines.
_PROFILE_PREFIX = re.compile(r"^\s*profile\b", re.IGNORECASE)


def split_profile(sql: str) -> tuple[bool, str]:
    """Strip a leading ``PROFILE`` keyword; returns (was_profiled, rest)."""
    match = _PROFILE_PREFIX.match(sql)
    if match:
        return True, sql[match.end() :]
    return False, sql


class Result(Record):
    """Outcome of one statement: rows for queries, rowcount for DML/DDL.

    ``PROFILE SELECT`` attaches the full profile dict as ``profile``; the
    rows are then the per-operator report, and ``rowcount`` is the
    profiled query's own output count.
    """

    __slots__ = _fields = ("columns", "rows", "rowcount", "profile")

    def __init__(
        self,
        columns: list[str] | None = None,
        rows: list[tuple] | None = None,
        rowcount: int = 0,
        profile: dict | None = None,
    ):
        self.columns = [] if columns is None else columns
        self.rows = [] if rows is None else rows
        self.rowcount, self.profile = rowcount, profile

    def scalar(self) -> Any:
        """First column of the first row (None when empty)."""
        return self.rows[0][0] if self.rows else None

    def column(self, index: int = 0) -> list[Any]:
        return [row[index] for row in self.rows]

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)


class Database:
    """An embedded, in-memory relational database."""

    #: Makes the executor each statement's SELECTs, DML predicates and join
    #: conditions run through.  A subclass may substitute its own (the
    #: row-at-a-time reference in ``tests/select_reference.py`` does).
    select_executor = SelectExecutor

    def __init__(self, join_method: str = "hash"):
        if join_method not in JOIN_METHODS:
            raise ExecutionError(
                f"join_method must be one of {JOIN_METHODS}, got {join_method!r}"
            )
        self._tables: dict[str, Table] = {}
        self._registry = StatsRegistry()
        self.join_method = join_method
        #: Answers the FROM items the engine cannot (``ast.VersionRef``):
        #: set by the embedding layer, called by the planner with the
        #: item, returns a ``SubqueryRef`` or a ``Relation`` of rows.
        self.version_resolver = None

    # ---------------------------------------------------------------- stats

    @property
    def stats(self) -> IOStats:
        return self._registry.stats

    def reset_stats(self) -> None:
        self._registry.stats.reset()

    # -------------------------------------------------------------- catalog

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"no table named {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def tables(self) -> Iterable[Table]:
        """All tables in creation order (the snapshot writer's view)."""
        return self._tables.values()

    def restore_table(
        self,
        name: str,
        schema: TableSchema,
        rows: Iterable[Sequence[Any]],
        clustered_on: str | None = None,
        enforce_primary_key: bool = True,
        index_specs: Sequence[dict] = (),
    ) -> Table:
        """Recreate one table from serialized state (snapshot restore).

        Rows bypass per-row uniqueness probes (they come from a consistent
        snapshot); indexes beyond the automatic primary-key index are rebuilt
        from their serialized definitions.
        """
        table = self.create_table(
            name,
            schema,
            clustered_on=clustered_on,
            enforce_primary_key=enforce_primary_key,
        )
        table.load_rows(rows)
        for spec in index_specs:
            if spec["name"] in table.indexes:
                continue
            table.create_index(
                spec["name"],
                spec["columns"],
                unique=spec["unique"],
                ordered=spec["ordered"],
            )
        return table

    def create_table(
        self,
        name: str,
        schema: TableSchema,
        clustered_on: str | None = None,
        enforce_primary_key: bool = True,
    ) -> Table:
        if name in self._tables:
            raise DuplicateObjectError(f"table {name!r} already exists")
        table = Table(
            name,
            schema,
            self._registry,
            clustered_on=clustered_on,
            enforce_primary_key=enforce_primary_key,
        )
        self._tables[name] = table
        return table

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        if name not in self._tables:
            if if_exists:
                return
            raise CatalogError(f"no table named {name!r}")
        del self._tables[name]

    def create_table_from_relation(self, name: str, relation: Relation) -> Table:
        """Materialize a query result as a new table (``SELECT INTO``)."""
        columns = []
        seen: dict[str, int] = {}
        for base, dtype in zip(relation.names, relation.types):
            column_name = base.split(".")[-1]
            if column_name in seen:
                seen[column_name] += 1
                column_name = f"{column_name}_{seen[column_name]}"
            else:
                seen[column_name] = 0
            columns.append(Column(column_name, dtype or DataType.TEXT))
        table = self.create_table(name, TableSchema(columns))
        table.insert_many(relation.rows)
        return table

    # ------------------------------------------------------------------ SQL

    def execute(self, sql: str, params: Sequence[Any] = ()) -> Result:
        """Run one or more statements; returns the last statement's result.

        A leading ``PROFILE`` keyword (``PROFILE SELECT ...``) runs the
        query with per-operator instrumentation and returns the profile
        report instead of the query's rows.
        """
        profiled, sql = split_profile(sql)
        statements = parse_sql(sql, params)
        if profiled:
            return self.execute_profiled(statements)
        return self.execute_statements(statements)

    def execute_statements(self, statements: Sequence[ast.Statement]) -> Result:
        """Run pre-parsed statements (lets callers parse once and also
        inspect the AST, e.g. for journaling)."""
        result = Result()
        for statement in statements:
            result = self._execute_statement(statement)
        return result

    def execute_profiled(self, statements: Sequence[ast.Statement]) -> Result:
        """EXPLAIN ANALYZE: run one SELECT, return its operator report.

        The result's rows are ``(operator, rows, batches, seconds)`` — the
        pipeline operators' tallies, in data-flow order; the full detail —
        plus total time, the query's own rowcount, the logical I/O and the
        per-tier expression census — rides in :attr:`Result.profile`.
        """
        if len(statements) != 1 or not isinstance(statements[0], ast.Select):
            raise ExecutionError("PROFILE expects exactly one SELECT statement")
        profile = QueryProfile()
        before = self.stats.snapshot()
        started = time.perf_counter()
        relation = self.select_executor(self, profile=profile).execute(statements[0])
        elapsed = time.perf_counter() - started
        delta = self.stats.since(before)
        detail = profile.as_dict()
        detail.update(
            {
                "total_seconds": elapsed,
                "rowcount": len(relation.rows),
                "exprs_compiled": delta.exprs_compiled,
                "exprs_interpreted": delta.exprs_interpreted,
                "exprs_columnar": delta.exprs_columnar,
                "batches_scanned": delta.batches_scanned,
                "blocks_scanned": delta.blocks_scanned,
                "records_scanned": delta.records_scanned,
                "hash_build_rows": delta.hash_build_rows,
            }
        )
        return Result(
            columns=["operator", "rows", "batches", "seconds"],
            rows=[
                (entry["op"], entry["rows"], entry["batches"], entry["seconds"])
                for entry in detail["operators"]
            ],
            rowcount=len(relation.rows),
            profile=detail,
        )

    def query(self, sql: str, params: Sequence[Any] = ()) -> list[tuple]:
        """Shorthand for ``execute(...).rows``."""
        return self.execute(sql, params).rows

    def _execute_statement(self, statement: ast.Statement) -> Result:
        if isinstance(statement, ast.Select):
            relation = self.select_executor(self).execute(statement)
            return Result(
                columns=[name.split(".")[-1] for name in relation.names],
                rows=relation.rows,
                rowcount=len(relation.rows),
            )
        if isinstance(statement, ast.Insert):
            return self._execute_insert(statement)
        if isinstance(statement, ast.Update):
            return self._execute_update(statement)
        if isinstance(statement, ast.Delete):
            return self._execute_delete(statement)
        if isinstance(statement, ast.CreateTable):
            return self._execute_create_table(statement)
        if isinstance(statement, ast.DropTable):
            self.drop_table(statement.table, statement.if_exists)
            return Result()
        if isinstance(statement, ast.CreateIndex):
            table = self.table(statement.table)
            table.create_index(
                statement.index,
                statement.columns,
                unique=statement.unique,
                ordered=statement.ordered,
            )
            return Result()
        if isinstance(statement, ast.DropIndex):
            self.table(statement.table).drop_index(statement.index)
            return Result()
        if isinstance(statement, ast.AlterTableAddColumn):
            return self._execute_alter_add(statement)
        if isinstance(statement, ast.ClusterTable):
            self.table(statement.table).recluster(statement.column)
            return Result()
        raise ExecutionError(
            f"unsupported statement {type(statement).__name__}"
        )  # pragma: no cover

    def _execute_create_table(self, statement: ast.CreateTable) -> Result:
        if statement.if_not_exists and self.has_table(statement.table):
            return Result()
        columns = [Column(c.name, c.dtype, c.not_null) for c in statement.columns]
        self.create_table(
            statement.table,
            TableSchema(columns, statement.primary_key),
        )
        return Result()

    def _execute_insert(self, statement: ast.Insert) -> Result:
        table = self.table(statement.table)
        if statement.columns:
            positions = table.schema.project_positions(statement.columns)
        else:
            positions = list(range(len(table.schema)))
        env = EvalEnv([])
        executor = self.select_executor(self)
        if statement.query is not None:
            source_rows: Iterable[tuple] = executor.execute(statement.query).rows
        else:
            source_rows = []
            for value_exprs in statement.rows or []:
                resolved = [executor._resolve_subqueries(expr) for expr in value_exprs]
                source_rows.append(tuple(expr.evaluate((), env) for expr in resolved))
        width = len(table.schema)
        full_rows = []
        for values in source_rows:
            if len(values) != len(positions):
                raise ExecutionError(
                    f"INSERT expects {len(positions)} values, got {len(values)}"
                )
            full_row: list[Any] = [None] * width
            for position, value in zip(positions, values):
                full_row[position] = value
            full_rows.append(full_row)
        return Result(rowcount=table.insert_many(full_rows))

    def _execute_update(self, statement: ast.Update) -> Result:
        table = self.table(statement.table)
        env = EvalEnv([column.name for column in table.schema.columns])
        executor = self.select_executor(self)
        where = (
            executor._resolve_subqueries(statement.where)
            if statement.where is not None
            else None
        )
        assignments = [
            (
                table.schema.position(name),
                executor.row_func(executor._resolve_subqueries(expr), env),
            )
            for name, expr in statement.assignments
        ]
        pairs = []
        for slot, row in self._matching_slots(executor, table, where, env):
            new_row = list(row)
            for position, assign in assignments:
                new_row[position] = assign(row)
            pairs.append((slot, new_row))
        return Result(rowcount=table.update_many(pairs))

    @staticmethod
    def _matching_slots(
        executor: SelectExecutor, table: Table, where, env: EvalEnv
    ) -> list:
        """Batched scan-and-filter for DML: ``(slot, row)`` pairs matching
        ``where`` (all live rows when it is None), through the executor's
        row function for it."""
        if where is None:
            touched = []
            for batch in table.scan_batches(with_slots=True):
                touched.extend(batch)
            return touched
        predicate = executor.row_func(where, env)
        touched = []
        for batch in table.scan_batches(with_slots=True):
            touched.extend(pair for pair in batch if predicate(pair[1]) is True)
        return touched

    def _execute_delete(self, statement: ast.Delete) -> Result:
        table = self.table(statement.table)
        env = EvalEnv([column.name for column in table.schema.columns])
        executor = self.select_executor(self)
        where = (
            executor._resolve_subqueries(statement.where)
            if statement.where is not None
            else None
        )
        slots = [
            slot for slot, _row in self._matching_slots(executor, table, where, env)
        ]
        deleted = table.delete_slots(slots)
        return Result(rowcount=deleted)

    def _execute_alter_add(self, statement: ast.AlterTableAddColumn) -> Result:
        table = self.table(statement.table)
        env = EvalEnv([])
        default = (
            statement.default.evaluate((), env)
            if statement.default is not None
            else None
        )
        table.alter_add_column(
            Column(
                statement.column.name,
                statement.column.dtype,
                statement.column.not_null,
            ),
            default=default,
        )
        return Result(rowcount=table.row_count)
