"""Recursive-descent parser for the engine's SQL dialect.

The dialect covers every data model's Table-1 translation (paper Section
2.2): ``SELECT ... INTO`` checkouts, array containment and append
operators, ``unnest`` in select lists, ``IN (subquery)``,
``ARRAY(subquery)`` aggregation of rids, plus the ordinary DDL/DML a
middleware needs (CREATE/DROP TABLE, CREATE INDEX, INSERT/UPDATE/DELETE,
GROUP BY / HAVING / ORDER BY / LIMIT, UNION ALL, explicit JOIN ... ON).

The versioned constructs ``VERSION n[, m ...] OF CVD c``, ``ALL VERSIONS
OF CVD c`` and ``VERSIONS ANCESTOR|DESCENDANT OF n OF CVD c`` parse as
FROM items (:class:`~repro.storage.parser.ast_nodes.VersionRef`); what
relation one denotes is up to the resolver registered on the Database.

Positional parameters (``%s`` or ``?``) are substituted with literals at
parse time from the ``params`` sequence.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Callable, Sequence, TypeVar

from repro.errors import SQLSyntaxError
from repro.record import Record
from repro.storage.expression import (
    ArrayLiteral,
    Between,
    BinaryOp,
    ColumnRef,
    Expression,
    FuncCall,
    InList,
    IsNull,
    Like,
    Literal,
    Star,
    UnaryOp,
    WINDOW_FUNCTIONS,
    WindowFunc,
    window_calls,
)
from repro.storage.parser import ast_nodes as ast
from repro.storage.parser.lexer import Token, TokenType, tokenize
from repro.storage.types import parse_type_name


class ScalarSubquery(Expression):
    """``(SELECT ...)`` used as a value; resolved by the planner."""

    __slots__ = _fields = ("query",)

    def __init__(self, query: ast.Select):
        self.query = query

    def __hash__(self):  # Select is mutable; identity hash is fine here.
        return id(self.query)

    def evaluate(self, row, env):  # pragma: no cover - replaced by planner
        raise NotImplementedError("scalar subquery not resolved by planner")


class InSubquery(Expression):
    """``x IN (SELECT ...)``; the planner materializes it to an InSet."""

    __slots__ = _fields = ("operand", "query", "negated")

    def __init__(self, operand: Expression, query: ast.Select, negated=False):
        self.operand, self.query, self.negated = operand, query, negated

    def __hash__(self):
        return hash((id(self.query), self.operand, self.negated))

    def evaluate(self, row, env):  # pragma: no cover - replaced by planner
        raise NotImplementedError("IN subquery not resolved by planner")

    def columns(self) -> set[str]:
        return self.operand.columns()


class ArraySubquery(Expression):
    """``ARRAY(SELECT ...)`` — collect a single column into an int array."""

    __slots__ = _fields = ("query",)

    def __init__(self, query: ast.Select):
        self.query = query

    def __hash__(self):
        return id(self.query)

    def evaluate(self, row, env):  # pragma: no cover - replaced by planner
        raise NotImplementedError("ARRAY(subquery) not resolved by planner")


#: The deepest expression a statement may nest.  The engine walks
#: expression trees recursively (subquery resolution, planning, both exec
#: tiers), about four frames a level, so under the interpreter's default
#: recursion limit of 1 000 a tree this deep still runs with 150 frames of
#: caller beneath it; a deeper one is a syntax error, not a RecursionError.
MAX_DEPTH = 200


def _nesting(root: Any) -> int:
    """The longest chain of nested expressions in an AST, walked without
    recursion (a subquery's expressions continue its host's chain)."""
    deepest, stack = 0, [(root, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, (list, tuple)):
            stack.extend(zip(node, repeat(depth)))
        elif isinstance(node, (Literal, ColumnRef)):
            deepest = max(deepest, depth + 1)
        elif isinstance(node, Record):
            depth += isinstance(node, Expression)
            deepest = max(deepest, depth)
            stack.extend((getattr(node, f), depth) for f in node._fields)
    return deepest


T = TypeVar("T")

_STATEMENTS = "select insert update delete create drop alter cluster".split()
_CONSTANTS = {"true": True, "false": False, "null": None}

#: The deepest fixed lookahead (``VERSIONS ANCESTOR OF <n>``): the token
#: list carries this many extra EOFs, so :meth:`_Parser._peek` is an index.
_LOOKAHEAD = 3


class _Parser:
    def __init__(self, tokens: list[Token], params: Sequence[Any]):
        self._tokens = tokens + tokens[-1:] * _LOOKAHEAD
        self._pos = 0
        self._params = list(params)
        self._param_index = 0

    # ------------------------------------------------------------- utilities

    def _peek(self, ahead: int = 0) -> Token:
        return self._tokens[self._pos + ahead]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _error(self, message: str) -> SQLSyntaxError:
        return SQLSyntaxError(message, self._peek().position)

    def _expect_keyword(self, *names: str) -> Token:
        token = self._peek()
        if not token.is_keyword(*names):
            raise self._error(f"expected {' or '.join(names).upper()}")
        return self._advance()

    def _expect_op(self, op: str) -> Token:
        token = self._peek()
        if not token.is_op(op):
            raise self._error(f"expected {op!r}")
        return self._advance()

    # Keywords that may double as identifiers (they only matter in positions
    # an identifier can never occupy), mirroring PostgreSQL's non-reserved
    # words: "key" in particular is a common column name.
    _NONRESERVED = frozenset(
        {"key", "column", "cluster", "index", "default", "over", "partition"}
    )

    def _expect_ident(self) -> str:
        token = self._peek()
        if token.type is not TokenType.IDENT and not (
            token.type is TokenType.KEYWORD
            and token.value in self._NONRESERVED
        ):
            raise self._error("expected identifier")
        self._advance()
        return token.value

    def _accept_keyword(self, *names: str) -> bool:
        if self._peek().is_keyword(*names):
            self._advance()
            return True
        return False

    def _accept_op(self, op: str) -> bool:
        if self._peek().is_op(op):
            self._advance()
            return True
        return False

    def _list(self, parse: Callable[[], T]) -> list[T]:
        """One or more ``parse()`` items separated by commas."""
        items = [parse()]
        while self._accept_op(","):
            items.append(parse())
        return items

    def _next_param(self) -> Any:
        if self._param_index >= len(self._params):
            raise self._error("not enough parameters supplied")
        value = self._params[self._param_index]
        self._param_index += 1
        return value

    # ------------------------------------------------------------ statements

    def parse_statements(self) -> list[ast.Statement]:
        statements = []
        while not self._peek().type is TokenType.EOF:
            start = self._pos
            try:
                statement = self._statement()
            except RecursionError:
                raise self._error("expression nested too deeply") from None
            # Each level of nesting takes a token, so only a statement of
            # more than MAX_DEPTH tokens needs the walk.
            if self._pos - start > MAX_DEPTH and _nesting(statement) > MAX_DEPTH:
                raise self._error("expression nested too deeply")
            statements.append(statement)
            while self._accept_op(";"):
                pass
        if self._param_index != len(self._params):
            raise SQLSyntaxError(
                f"{len(self._params) - self._param_index} unused parameters"
            )
        return statements

    def _statement(self) -> ast.Statement:
        """Dispatch on the leading keyword to the method named after it."""
        token = self._peek()
        if not token.is_keyword(*_STATEMENTS):
            raise self._error("expected a SQL statement")
        return getattr(self, f"_{token.value}")()

    # ------------------------------------------------------------------- DDL

    def _create(self) -> ast.Statement:
        self._expect_keyword("create")
        unique = self._accept_keyword("unique")
        if self._accept_keyword("table"):
            if unique:
                raise self._error("UNIQUE applies to indexes, not tables")
            return self._create_table()
        self._expect_keyword("index")
        return self._create_index(unique)

    def _create_table(self) -> ast.CreateTable:
        if_not_exists = self._accept_keyword("if")
        if if_not_exists:
            self._expect_keyword("not")
            self._expect_keyword("exists")
        table = self._expect_ident()
        self._expect_op("(")
        columns: list[ast.ColumnDef] = []
        primary_key: tuple[str, ...] = ()
        while True:
            if self._peek().is_keyword("primary"):
                self._advance()
                self._expect_keyword("key")
                self._expect_op("(")
                primary_key = tuple(self._list(self._expect_ident))
                self._expect_op(")")
            else:
                name = self._expect_ident()
                dtype = self._type_name()
                not_null = False
                if self._accept_keyword("primary"):
                    self._expect_keyword("key")
                    primary_key = (name,)
                    not_null = True
                if self._accept_keyword("not"):
                    self._expect_keyword("null")
                    not_null = True
                columns.append(ast.ColumnDef(name, dtype, not_null))
            if not self._accept_op(","):
                break
        self._expect_op(")")
        return ast.CreateTable(table, columns, primary_key, if_not_exists)

    def _type_name(self):
        token = self._peek()
        if token.type is not TokenType.IDENT and not token.is_keyword("array"):
            raise self._error("expected a type name")
        self._advance()
        name = token.value
        if self._accept_op("["):
            self._expect_op("]")
            name += "[]"
        elif self._accept_op("("):
            # e.g. varchar(40) — length is accepted and ignored
            self._advance()
            self._expect_op(")")
        return parse_type_name(name)

    def _create_index(self, unique: bool) -> ast.CreateIndex:
        index = self._expect_ident()
        self._expect_keyword("on")
        table = self._expect_ident()
        ordered = False
        if self._accept_keyword("using"):
            method = self._expect_ident()
            ordered = method == "btree"
        self._expect_op("(")
        columns = tuple(self._list(self._expect_ident))
        self._expect_op(")")
        return ast.CreateIndex(index, table, columns, unique, ordered)

    def _drop(self) -> ast.Statement:
        self._expect_keyword("drop")
        if self._accept_keyword("index"):
            index = self._expect_ident()
            self._expect_keyword("on")
            table = self._expect_ident()
            return ast.DropIndex(table, index)
        self._expect_keyword("table")
        if_exists = self._accept_keyword("if")
        if if_exists:
            self._expect_keyword("exists")
        table = self._expect_ident()
        return ast.DropTable(table, if_exists)

    def _alter(self) -> ast.AlterTableAddColumn:
        self._expect_keyword("alter")
        self._expect_keyword("table")
        table = self._expect_ident()
        self._expect_keyword("add")
        self._accept_keyword("column")
        name = self._expect_ident()
        dtype = self._type_name()
        default = self._expression() if self._accept_keyword("default") else None
        not_null = self._accept_keyword("not")
        if not_null:
            self._expect_keyword("null")
        return ast.AlterTableAddColumn(
            table, ast.ColumnDef(name, dtype, not_null), default
        )

    def _cluster(self) -> ast.ClusterTable:
        self._expect_keyword("cluster")
        table = self._expect_ident()
        self._expect_keyword("using")
        column = self._expect_ident()
        return ast.ClusterTable(table, column)

    # ------------------------------------------------------------------- DML

    def _insert(self) -> ast.Insert:
        self._expect_keyword("insert")
        self._expect_keyword("into")
        table = self._expect_ident()
        columns = None
        if self._peek().is_op("(") and self._looks_like_column_list():
            self._expect_op("(")
            columns = tuple(self._list(self._expect_ident))
            self._expect_op(")")
        if self._accept_keyword("values"):
            return ast.Insert(table, columns, self._list(self._value_row))
        if self._peek().is_keyword("select") or self._peek().is_op("("):
            self._accept_op("(")
            query = self._select()
            self._accept_op(")")
            return ast.Insert(table, columns, None, query)
        raise self._error("expected VALUES or SELECT after INSERT INTO")

    def _looks_like_column_list(self) -> bool:
        """Disambiguate ``INSERT INTO t (a, b) VALUES`` from
        ``INSERT INTO t (SELECT...)``."""
        return not self._peek(1).is_keyword("select")

    def _value_row(self) -> list[Expression]:
        self._expect_op("(")
        values = self._list(self._expression)
        self._expect_op(")")
        return values

    def _update(self) -> ast.Update:
        self._expect_keyword("update")
        table = self._expect_ident()
        self._expect_keyword("set")
        assignments = self._list(self._assignment)
        where = self._expression() if self._accept_keyword("where") else None
        return ast.Update(table, assignments, where)

    def _assignment(self) -> tuple[str, Expression]:
        name = self._expect_ident()
        self._expect_op("=")
        return name, self._expression()

    def _delete(self) -> ast.Delete:
        self._expect_keyword("delete")
        self._expect_keyword("from")
        table = self._expect_ident()
        where = self._expression() if self._accept_keyword("where") else None
        return ast.Delete(table, where)

    # ---------------------------------------------------------------- SELECT

    def _select(self) -> ast.Select:
        self._expect_keyword("select")
        distinct = self._accept_keyword("distinct")
        items = self._list(self._select_item)
        into_table = self._expect_ident() if self._accept_keyword("into") else None
        from_items: list[ast.FromItem] = []
        joins: list[ast.JoinClause] = []
        if self._accept_keyword("from"):
            from_items.append(self._from_item())
            while True:
                if self._accept_op(","):
                    from_items.append(self._from_item())
                    continue
                kind = None
                if self._accept_keyword("inner"):
                    kind = "inner"
                    self._expect_keyword("join")
                elif self._accept_keyword("left"):
                    kind = "left"
                    self._accept_keyword("join")
                elif self._accept_keyword("join"):
                    kind = "inner"
                if kind is None:
                    break
                item = self._from_item()
                self._expect_keyword("on")
                condition = self._expression()
                joins.append(ast.JoinClause(item, condition, kind))
        where = self._expression() if self._accept_keyword("where") else None
        group_by: list[Expression] = []
        if self._accept_keyword("group"):
            self._expect_keyword("by")
            group_by = self._list(self._expression)
        having = self._expression() if self._accept_keyword("having") else None
        order_by: list[ast.OrderItem] = []
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            order_by = self._list(self._order_item)
        limit = int(self._number_or_param()) if self._accept_keyword("limit") else None
        offset = (
            int(self._number_or_param()) if self._accept_keyword("offset") else None
        )
        select = ast.Select(
            items=items,
            from_items=from_items,
            joins=joins,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            offset=offset,
            distinct=distinct,
            into_table=into_table,
        )
        if self._accept_keyword("union"):
            self._expect_keyword("all")
            select.union_all_with = self._select()
        return select

    def _number_or_param(self) -> Any:
        token = self._peek()
        if token.type is TokenType.NUMBER:
            self._advance()
            return float(token.value) if "." in token.value else int(token.value)
        if token.type is TokenType.PARAM:
            self._advance()
            return self._next_param()
        raise self._error("expected a number")

    def _select_item(self) -> ast.SelectItem:
        if self._peek().is_op("*"):
            self._advance()
            return ast.SelectItem(Star())
        expr = self._expression()
        alias = None
        if self._accept_keyword("as"):
            alias = self._expect_ident()
        elif self._peek().type is TokenType.IDENT:
            alias = self._advance().value
        return ast.SelectItem(expr, alias)

    def _order_item(self) -> ast.OrderItem:
        expr = self._expression()
        descending = self._accept_keyword("desc")
        if not descending:
            self._accept_keyword("asc")
        return ast.OrderItem(expr, descending)

    def _from_item(self) -> ast.FromItem:
        if self._peek().is_op("("):
            self._advance()
            query = self._select()
            self._expect_op(")")
            self._accept_keyword("as")
            alias = self._expect_ident()
            return ast.SubqueryRef(query, alias)
        item = self._version_ref() or ast.TableRef(self._expect_ident())
        if self._accept_keyword("as"):
            item.alias = self._expect_ident()
        elif self._peek().type is TokenType.IDENT:
            item.alias = self._advance().value
        return item

    def _word(self, ahead: int, *words: str) -> bool:
        token = self._peek(ahead)
        return token.type is TokenType.IDENT and token.value in words

    def _version_ref(self) -> ast.VersionRef | None:
        """A versioned FROM item, or ``None`` when none starts here.

        Like OVER, the words are non-reserved: a construct opens only on
        its full prefix (``VERSION <n>[, <n> ...] OF``, ``ALL VERSIONS OF``,
        ``VERSIONS ANCESTOR|DESCENDANT OF <n>``); past it, a malformed tail
        is a syntax error.
        """
        numbers: list[Token] = []
        if self._peek().is_keyword("all"):
            if not (self._word(1, "versions") and self._word(2, "of")):
                return None
            self._pos += 3
            kind, construct = "all", "ALL VERSIONS OF"
        elif self._word(0, "version"):
            ahead = 1
            while self._peek(ahead).type is TokenType.NUMBER:
                numbers.append(self._peek(ahead))
                ahead += 1
                if not self._peek(ahead).is_op(","):
                    break
                ahead += 1
            if not numbers or not self._word(ahead, "of"):
                return None
            self._pos += ahead + 1
            kind, construct = "version", "VERSION ... OF"
        elif (
            self._word(0, "versions")
            and self._word(1, "ancestor", "descendant")
            and self._word(2, "of")
            and self._peek(3).type is TokenType.NUMBER
        ):
            kind, numbers = self._peek(1).value, [self._peek(3)]
            self._pos += 4
            construct = f"VERSIONS {kind.upper()} OF {numbers[0].value}"
        else:
            return None
        for token in numbers:
            if not token.value.isdigit():
                raise SQLSyntaxError(
                    f"version id must be an integer, got {token.value}",
                    token.position,
                )
        if kind in ("ancestor", "descendant"):
            if not self._word(0, "of"):
                raise self._error(f"expected OF CVD after {construct}")
            self._advance()
            construct += " OF"
        if not self._word(0, "cvd"):
            raise self._error(f"expected CVD after {construct}")
        self._advance()
        if self._peek().type is not TokenType.IDENT:
            raise self._error("expected a CVD name after CVD")
        cvd = self._advance().value
        return ast.VersionRef(kind, cvd, tuple(int(t.value) for t in numbers))

    # ----------------------------------------------------------- expressions

    def _expression(self) -> Expression:
        return self._or_expr()

    def _or_expr(self) -> Expression:
        left = self._and_expr()
        while self._accept_keyword("or"):
            left = BinaryOp("or", left, self._and_expr())
        return left

    def _and_expr(self) -> Expression:
        left = self._not_expr()
        while self._accept_keyword("and"):
            left = BinaryOp("and", left, self._not_expr())
        return left

    def _not_expr(self) -> Expression:
        if self._accept_keyword("not"):
            return UnaryOp("not", self._not_expr())
        return self._comparison()

    def _comparison(self) -> Expression:
        left = self._additive()
        while True:
            token = self._peek()
            if token.is_op("=", "<>", "!=", "<", "<=", ">", ">=", "<@", "@>", "&&"):
                self._advance()
                op = "<>" if token.value == "!=" else token.value
                left = BinaryOp(op, left, self._additive())
                continue
            if token.is_keyword("is"):
                self._advance()
                negated = self._accept_keyword("not")
                self._expect_keyword("null")
                left = IsNull(left, negated)
                continue
            negated = token.is_keyword("not") and self._peek(1).is_keyword(
                "in", "between", "like"
            )
            if negated:
                self._advance()
                token = self._peek()
            if token.is_keyword("between"):
                self._advance()
                low = self._additive()
                self._expect_keyword("and")
                left = Between(left, low, self._additive(), negated)
            elif token.is_keyword("like"):
                self._advance()
                left = Like(left, self._additive(), negated)
            elif token.is_keyword("in"):
                self._advance()
                left = self._in_tail(left, negated)
            else:
                return left

    def _in_tail(self, operand: Expression, negated: bool) -> Expression:
        self._expect_op("(")
        if self._peek().is_keyword("select"):
            query = self._select()
            self._expect_op(")")
            return InSubquery(operand, query, negated)
        items = tuple(self._list(self._expression))
        self._expect_op(")")
        return InList(operand, items, negated)

    def _additive(self) -> Expression:
        left = self._multiplicative()
        while True:
            token = self._peek()
            if token.is_op("+", "-", "||"):
                self._advance()
                left = BinaryOp(token.value, left, self._multiplicative())
            else:
                return left

    def _multiplicative(self) -> Expression:
        left = self._unary()
        while True:
            token = self._peek()
            if token.is_op("*", "/", "%"):
                self._advance()
                left = BinaryOp(token.value, left, self._unary())
            else:
                return left

    def _unary(self) -> Expression:
        if self._accept_op("-"):
            return UnaryOp("-", self._unary())
        self._accept_op("+")
        return self._primary()

    def _primary(self) -> Expression:
        token = self._peek()
        if token.type is TokenType.NUMBER:
            self._advance()
            value = float(token.value) if "." in token.value else int(token.value)
            return Literal(value)
        if token.type is TokenType.STRING:
            self._advance()
            return Literal(token.value)
        if token.type is TokenType.PARAM:
            self._advance()
            return Literal(self._next_param())
        if token.type is TokenType.KEYWORD and token.value in _CONSTANTS:
            self._advance()
            return Literal(_CONSTANTS[token.value])
        if token.is_keyword("array"):
            self._advance()
            return self._array_tail()
        if token.is_op("("):
            self._advance()
            if self._peek().is_keyword("select"):
                query = self._select()
                self._expect_op(")")
                return ScalarSubquery(query)
            expr = self._expression()
            self._expect_op(")")
            return expr
        if token.type is TokenType.IDENT or (
            token.type is TokenType.KEYWORD
            and token.value in self._NONRESERVED
        ):
            return self._identifier_expr()
        if token.is_op("*"):
            self._advance()
            return Star()
        raise self._error("expected an expression")

    def _array_tail(self) -> Expression:
        if self._accept_op("["):
            if self._peek().is_keyword("select"):
                # The paper writes ARRAY[SELECT rid FROM T'] in Table 1.
                query = self._select()
                self._expect_op("]")
                return ArraySubquery(query)
            if self._peek().is_op("]"):
                self._advance()
                return ArrayLiteral(())
            items = tuple(self._list(self._expression))
            self._expect_op("]")
            return ArrayLiteral(items)
        self._expect_op("(")
        query = self._select()
        self._expect_op(")")
        return ArraySubquery(query)

    def _identifier_expr(self) -> Expression:
        name = self._expect_ident()
        if self._peek().is_op("("):
            self._advance()
            distinct = self._accept_keyword("distinct")
            args: list[Expression] = []
            if not self._peek().is_op(")"):
                args = self._list(self._expression)
            self._expect_op(")")
            call = FuncCall(name, tuple(args), distinct)
            # OVER only opens a window clause when followed by "(" — else it
            # stays usable as an alias/identifier (it is non-reserved).
            if self._peek().is_keyword("over") and self._peek(1).is_op("("):
                return self._window_spec(call)
            return call
        if self._accept_op("."):
            if self._peek().is_op("*"):
                self._advance()
                return Star()  # t.* — treated as full-width star
            column = self._expect_ident()
            return ColumnRef(f"{name}.{column}")
        return ColumnRef(name)

    def _window_spec(self, call: FuncCall) -> Expression:
        self._expect_keyword("over")
        self._expect_op("(")
        if call.name not in WINDOW_FUNCTIONS:
            raise self._error(f"{call.name}() does not support OVER")
        if call.args or call.distinct:
            raise self._error(f"window function {call.name}() takes no arguments")
        partition: list[Expression] = []
        if self._peek().is_keyword("partition"):
            self._advance()
            self._expect_keyword("by")
            partition = self._list(self._expression)
        order: list[tuple[Expression, bool]] = []
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            items = self._list(self._order_item)
            order = [(item.expr, item.descending) for item in items]
        self._expect_op(")")
        keys = partition + [expr for expr, _descending in order]
        if any(window_calls(key) for key in keys):
            raise self._error("window functions cannot be nested")
        return WindowFunc(call.name, tuple(partition), tuple(order))


def parse_sql(sql: str, params: Sequence[Any] = ()) -> list[ast.Statement]:
    """Parse one or more ``;``-separated statements."""
    return _Parser(tokenize(sql), params).parse_statements()


def parse_statement(sql: str, params: Sequence[Any] = ()) -> ast.Statement:
    """Parse exactly one statement, raising if zero or several are present."""
    statements = parse_sql(sql, params)
    if len(statements) != 1:
        raise SQLSyntaxError(f"expected exactly one statement, got {len(statements)}")
    return statements[0]
