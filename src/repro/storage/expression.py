"""Expression AST and evaluator for the embedded SQL engine.

Expressions are immutable trees built by the parser (or directly by library
code) and evaluated against a row plus an :class:`EvalEnv` that maps column
names to row positions.  SQL three-valued logic is honoured: comparisons
against NULL yield ``None``, ``AND``/``OR`` propagate unknowns, and the
executor's filters keep only rows where the predicate is exactly ``True``.

The operator set covers what OrpheusDB's query translation emits (Table 1 in
the paper): array containment ``<@`` / ``@>``, array append ``||``, overlap
``&&``, scalar comparisons, ``IN`` (lists and pre-materialized subqueries),
``BETWEEN``, ``LIKE``, arithmetic, and aggregate function references.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.errors import ExecutionError
from repro.storage import arrays

AGGREGATE_FUNCTIONS = frozenset(
    {"count", "sum", "avg", "min", "max", "array_agg", "bool_and", "bool_or"}
)


class EvalEnv:
    """Resolves column references to row positions.

    ``positions`` maps both qualified (``t.col``) and bare (``col``) names to
    ordinals; ambiguous bare names map to ``AMBIGUOUS`` and raise on use.
    """

    AMBIGUOUS = -1

    def __init__(self, names: Sequence[str]):
        self.names = list(names)
        self.positions: dict[str, int] = {}
        for position, name in enumerate(self.names):
            self._register(name, position)
            if "." in name:
                self._register(name.split(".", 1)[1], position)

    def _register(self, name: str, position: int) -> None:
        if name in self.positions and self.positions[name] != position:
            self.positions[name] = self.AMBIGUOUS
        else:
            self.positions[name] = position

    def resolve(self, name: str) -> int:
        position = self.positions.get(name)
        if position is None:
            raise ExecutionError(f"unknown column {name!r}")
        if position == self.AMBIGUOUS:
            raise ExecutionError(f"ambiguous column reference {name!r}")
        return position


class Expression:
    """Base expression node."""

    def evaluate(self, row: Sequence[Any], env: EvalEnv) -> Any:
        raise NotImplementedError

    def columns(self) -> set[str]:
        """Names of all columns referenced in this subtree."""
        return set()

    def contains_aggregate(self) -> bool:
        return False


@dataclass(frozen=True)
class Literal(Expression):
    value: Any

    def evaluate(self, row: Sequence[Any], env: EvalEnv) -> Any:
        return self.value


@dataclass(frozen=True)
class ColumnRef(Expression):
    name: str

    def evaluate(self, row: Sequence[Any], env: EvalEnv) -> Any:
        return row[env.resolve(self.name)]

    def columns(self) -> set[str]:
        return {self.name}


@dataclass(frozen=True)
class Star(Expression):
    """``*`` in a select list or ``count(*)``."""

    def evaluate(self, row: Sequence[Any], env: EvalEnv) -> Any:
        return row


@dataclass(frozen=True)
class PosRef(Expression):
    """Positional column reference (internal).

    The executor's window rewrite uses it to expand ``*`` into explicit
    per-position items, sidestepping name ambiguity entirely.  Never
    produced by the parser.
    """

    position: int

    def evaluate(self, row: Sequence[Any], env: EvalEnv) -> Any:
        return row[self.position]


@dataclass(frozen=True)
class ArrayLiteral(Expression):
    items: tuple[Expression, ...]

    def evaluate(self, row: Sequence[Any], env: EvalEnv) -> Any:
        return arrays.make_array(item.evaluate(row, env) for item in self.items)

    def columns(self) -> set[str]:
        if not self.items:
            return set()
        return set().union(*(item.columns() for item in self.items))

    def contains_aggregate(self) -> bool:
        return any(item.contains_aggregate() for item in self.items)


def _null_if_any_none(*values: Any) -> bool:
    return any(value is None for value in values)


def like_to_regex(pattern: str) -> "re.Pattern[str]":
    out = []
    for char in pattern:
        if char == "%":
            out.append(".*")
        elif char == "_":
            out.append(".")
        else:
            out.append(re.escape(char))
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


_like_to_regex = like_to_regex  # historical private name


def _divide(a: Any, b: Any) -> Any:
    return a / b if isinstance(a, float) or isinstance(b, float) else a // b


#: Binary operator implementations, shared by the interpreter and the
#: compiled closures (:mod:`repro.storage.compile`).  Scalar ops are the
#: C-level :mod:`operator` functions, so both execution paths skip a layer
#: of Python per evaluation.
BINARY_IMPLS: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _divide,
    "%": operator.mod,
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "<@": arrays.contained_by,
    "@>": arrays.contains,
    "&&": arrays.overlap,
}

_BINARY_IMPLS = BINARY_IMPLS  # historical private name


@dataclass(frozen=True)
class BinaryOp(Expression):
    op: str
    left: Expression
    right: Expression

    def evaluate(self, row: Sequence[Any], env: EvalEnv) -> Any:
        op = self.op
        if op == "and":
            return self._eval_and(row, env)
        if op == "or":
            return self._eval_or(row, env)
        left = self.left.evaluate(row, env)
        right = self.right.evaluate(row, env)
        if op == "||":
            return self._concat(left, right)
        if _null_if_any_none(left, right):
            return None
        if op == "/" and right == 0:
            raise ExecutionError("division by zero")
        impl = _BINARY_IMPLS.get(op)
        if impl is None:
            raise ExecutionError(f"unknown operator {op!r}")
        try:
            return impl(left, right)
        except TypeError as exc:
            raise ExecutionError(
                f"operator {op!r} not supported for {left!r} and {right!r}"
            ) from exc

    def _eval_and(self, row: Sequence[Any], env: EvalEnv) -> Any:
        left = self.left.evaluate(row, env)
        if left is False:
            return False
        right = self.right.evaluate(row, env)
        if right is False:
            return False
        if left is None or right is None:
            return None
        return True

    def _eval_or(self, row: Sequence[Any], env: EvalEnv) -> Any:
        left = self.left.evaluate(row, env)
        if left is True:
            return True
        right = self.right.evaluate(row, env)
        if right is True:
            return True
        if left is None or right is None:
            return None
        return False

    @staticmethod
    def _concat(left: Any, right: Any) -> Any:
        if left is None or right is None:
            return None
        if isinstance(left, str) or isinstance(right, str):
            return str(left) + str(right)
        if isinstance(left, tuple) and isinstance(right, tuple):
            return arrays.concat(left, right)
        if isinstance(left, tuple):
            return arrays.append(left, right)
        if isinstance(right, tuple):
            return (int(left),) + right
        raise ExecutionError(f"|| not supported for {left!r} and {right!r}")

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def contains_aggregate(self) -> bool:
        return self.left.contains_aggregate() or self.right.contains_aggregate()


@dataclass(frozen=True)
class UnaryOp(Expression):
    op: str  # 'not', '-'
    operand: Expression

    def evaluate(self, row: Sequence[Any], env: EvalEnv) -> Any:
        value = self.operand.evaluate(row, env)
        if self.op == "not":
            return None if value is None else (not value)
        if value is None:
            return None
        if self.op == "-":
            return -value
        raise ExecutionError(f"unknown unary operator {self.op!r}")

    def columns(self) -> set[str]:
        return self.operand.columns()

    def contains_aggregate(self) -> bool:
        return self.operand.contains_aggregate()


@dataclass(frozen=True)
class IsNull(Expression):
    operand: Expression
    negated: bool = False

    def evaluate(self, row: Sequence[Any], env: EvalEnv) -> Any:
        is_null = self.operand.evaluate(row, env) is None
        return (not is_null) if self.negated else is_null

    def columns(self) -> set[str]:
        return self.operand.columns()

    def contains_aggregate(self) -> bool:
        return self.operand.contains_aggregate()


@dataclass(frozen=True)
class Between(Expression):
    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False

    def evaluate(self, row: Sequence[Any], env: EvalEnv) -> Any:
        value = self.operand.evaluate(row, env)
        low = self.low.evaluate(row, env)
        high = self.high.evaluate(row, env)
        if _null_if_any_none(value, low, high):
            return None
        result = low <= value <= high
        return (not result) if self.negated else result

    def columns(self) -> set[str]:
        return self.operand.columns() | self.low.columns() | self.high.columns()


@dataclass(frozen=True)
class InList(Expression):
    operand: Expression
    items: tuple[Expression, ...]
    negated: bool = False

    def evaluate(self, row: Sequence[Any], env: EvalEnv) -> Any:
        value = self.operand.evaluate(row, env)
        if value is None:
            return None
        found = any(item.evaluate(row, env) == value for item in self.items)
        return (not found) if self.negated else found

    def columns(self) -> set[str]:
        out = self.operand.columns()
        for item in self.items:
            out |= item.columns()
        return out


@dataclass(frozen=True)
class InSet(Expression):
    """``x IN (subquery)`` after the planner materializes the subquery."""

    operand: Expression
    values: frozenset
    negated: bool = False

    def evaluate(self, row: Sequence[Any], env: EvalEnv) -> Any:
        value = self.operand.evaluate(row, env)
        if value is None:
            return None
        found = value in self.values
        return (not found) if self.negated else found

    def columns(self) -> set[str]:
        return self.operand.columns()


@dataclass(frozen=True)
class Like(Expression):
    operand: Expression
    pattern: Expression
    negated: bool = False

    def evaluate(self, row: Sequence[Any], env: EvalEnv) -> Any:
        value = self.operand.evaluate(row, env)
        pattern = self.pattern.evaluate(row, env)
        if _null_if_any_none(value, pattern):
            return None
        matched = _like_to_regex(pattern).match(str(value)) is not None
        return (not matched) if self.negated else matched

    def columns(self) -> set[str]:
        return self.operand.columns() | self.pattern.columns()


SCALAR_FUNCS: dict[str, Callable[..., Any]] = {
    "abs": abs,
    "lower": lambda s: s.lower(),
    "upper": lambda s: s.upper(),
    "length": len,
    "cardinality": arrays.array_length,
    "array_length": arrays.array_length,
    "array_append": arrays.append,
    "array_remove": arrays.remove,
    "array_cat": arrays.concat,
    "round": lambda x, n=0: round(x, int(n)),
}

_SCALAR_FUNCS = SCALAR_FUNCS  # historical private name


@dataclass(frozen=True)
class FuncCall(Expression):
    name: str
    args: tuple[Expression, ...]
    distinct: bool = False

    @property
    def is_aggregate(self) -> bool:
        return self.name in AGGREGATE_FUNCTIONS

    def evaluate(self, row: Sequence[Any], env: EvalEnv) -> Any:
        if self.is_aggregate:
            raise ExecutionError(
                f"aggregate {self.name}() used outside GROUP BY context"
            )
        if self.name == "coalesce":
            for arg in self.args:
                value = arg.evaluate(row, env)
                if value is not None:
                    return value
            return None
        impl = _SCALAR_FUNCS.get(self.name)
        if impl is None:
            raise ExecutionError(f"unknown function {self.name!r}")
        values = [arg.evaluate(row, env) for arg in self.args]
        if any(v is None for v in values):
            return None
        return impl(*values)

    def columns(self) -> set[str]:
        out: set[str] = set()
        for arg in self.args:
            out |= arg.columns()
        return out

    def contains_aggregate(self) -> bool:
        return self.is_aggregate or any(arg.contains_aggregate() for arg in self.args)


WINDOW_FUNCTIONS = frozenset({"row_number", "rank", "dense_rank"})


@dataclass(frozen=True)
class WindowFunc(Expression):
    """``row_number() OVER (PARTITION BY ... ORDER BY ...)``.

    Window functions are computed by a dedicated executor step over whole
    partitions; direct row-at-a-time evaluation is a semantic error, which
    is how a window reference in WHERE/GROUP BY/HAVING gets rejected
    identically in every execution mode.
    """

    name: str  # 'row_number' | 'rank' | 'dense_rank'
    partition_by: tuple[Expression, ...] = ()
    #: (key expression, descending) pairs, like ORDER BY items.
    order_by: tuple[tuple[Expression, bool], ...] = ()

    def evaluate(self, row: Sequence[Any], env: EvalEnv) -> Any:
        raise ExecutionError(
            f"window function {self.name}() is only allowed in the SELECT list"
        )

    def columns(self) -> set[str]:
        out: set[str] = set()
        for expr in self.partition_by:
            out |= expr.columns()
        for expr, _descending in self.order_by:
            out |= expr.columns()
        return out


def window_calls(expr: Expression) -> list["WindowFunc"]:
    """All WindowFunc nodes in a tree, left-to-right.

    Does not descend into a window's own PARTITION BY / ORDER BY keys;
    the parser rejects nested windows, so there is nothing to find there.
    """
    out: list[WindowFunc] = []
    _collect_windows(expr, out)
    return out


def _collect_windows(node: Expression, out: list["WindowFunc"]) -> None:
    if isinstance(node, WindowFunc):
        out.append(node)
    elif isinstance(node, BinaryOp):
        _collect_windows(node.left, out)
        _collect_windows(node.right, out)
    elif isinstance(node, UnaryOp):
        _collect_windows(node.operand, out)
    elif isinstance(node, IsNull):
        _collect_windows(node.operand, out)
    elif isinstance(node, Between):
        _collect_windows(node.operand, out)
        _collect_windows(node.low, out)
        _collect_windows(node.high, out)
    elif isinstance(node, InList):
        _collect_windows(node.operand, out)
        for item in node.items:
            _collect_windows(item, out)
    elif isinstance(node, InSet):
        _collect_windows(node.operand, out)
    elif isinstance(node, Like):
        _collect_windows(node.operand, out)
        _collect_windows(node.pattern, out)
    elif isinstance(node, ArrayLiteral):
        for item in node.items:
            _collect_windows(item, out)
    elif isinstance(node, FuncCall):
        for arg in node.args:
            _collect_windows(arg, out)


def map_children(
    expr: Expression, fn: Callable[[Expression], Expression]
) -> Expression:
    """``expr`` rebuilt with ``fn`` applied to each direct child expression.

    A child is any field holding an expression or a tuple of them (possibly
    paired with flags, like a window's ORDER BY keys); every other field is
    copied.  Leaves come back as they are.
    """
    if isinstance(expr, (Literal, ColumnRef, PosRef, Star)):
        return expr
    return type(expr)(
        *(_map_value(getattr(expr, name), fn) for name in expr.__dataclass_fields__)
    )


def _map_value(value: Any, fn: Callable[[Expression], Expression]) -> Any:
    # Module-level, not a closure inside map_children: a recursive closure
    # is a reference cycle that pins ``fn`` (an executor's bound method)
    # until the cyclic GC runs.
    if isinstance(value, Expression):
        return fn(value)
    if isinstance(value, tuple):
        return tuple(_map_value(item, fn) for item in value)
    return value


def replace_windows(expr: Expression, resolved: dict[int, Expression]) -> Expression:
    """Rebuild a tree with each WindowFunc (keyed by ``id``) substituted.

    The executor computes window vectors as synthetic appended columns and
    uses this to rewrite select items into plain column references.
    """
    if isinstance(expr, WindowFunc):
        return resolved[id(expr)]
    return map_children(expr, lambda child: replace_windows(child, resolved))


def conjuncts(expr: Expression | None) -> list[Expression]:
    """Flatten a predicate into its top-level AND-ed conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "and":
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def combine_and(parts: Sequence[Expression]) -> Expression | None:
    """Rebuild a conjunction from parts (inverse of :func:`conjuncts`)."""
    result: Expression | None = None
    for part in parts:
        result = part if result is None else BinaryOp("and", result, part)
    return result
