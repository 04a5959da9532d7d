"""Expression codegen: lower an AST into closed-over Python functions.

The interpreted :meth:`Expression.evaluate` walk pays dozens of dynamic
dispatches, ``env.resolve`` dict probes, and operator-table lookups per
row.  :func:`compile_value` lowers a tree once per statement into nested
closures whose per-row work is direct tuple indexing plus the operator
itself, with everything resolvable at compile time hoisted out:

* column positions are resolved once (not per row);
* constant subtrees are folded to a single captured value;
* LIKE patterns become one precompiled regex;
* constant array operands of ``<@`` / ``@>`` / ``&&`` are converted to a
  probe set once, so the per-row evaluation never rebuilds ``set(...)``
  (the generic :mod:`repro.storage.arrays` paths pay that per call).

Semantics are bit-for-bit those of the interpreter — SQL three-valued
logic, evaluation order, division-by-zero and type-error behaviour — and
the hypothesis suite in ``tests/test_storage_compile.py`` enforces the
equivalence.  Anything the compiler does not understand (aggregates,
unresolvable columns, exotic nodes) makes :func:`compile_value` return
``None`` and the caller falls back to the interpreter, which stays the
reference implementation.

The block kernels the SELECT pipeline runs on
(:func:`compile_column_predicate`, :func:`compile_column_values`) are
*total*: each returns ``(kernel, tier)``, the tier serving it being
``"columnar"`` (generated per-column source), or, with the tree's row
function mapped over the block's rows, ``"compiled"`` (trees that need a
full row) or ``"interpreted"`` (trees :func:`compile_value` refuses).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Sequence

from repro.errors import ExecutionError
from repro.storage import arrays
from repro.storage.expression import (
    BINARY_IMPLS,
    SCALAR_FUNCS,
    ArrayLiteral,
    Between,
    BinaryOp,
    ColumnRef,
    EvalEnv,
    Expression,
    FuncCall,
    InList,
    InSet,
    IsNull,
    Like,
    Literal,
    PosRef,
    Star,
    UnaryOp,
    like_to_regex,
)
from repro.storage.ridset import RidSet

Row = Sequence[Any]
RowFunc = Callable[[Row], Any]

#: Constant array operands of these ops get their probe-set conversion
#: hoisted to compile time (the satellite fix for the per-row ``set(outer)``
#: rebuild in the generic arrays paths).
_ARRAY_OPS = frozenset({"<@", "@>", "&&"})


class _Uncompilable(Exception):
    """Internal: this subtree must run on the interpreter."""


def compile_value(expr: Expression, env: EvalEnv) -> RowFunc | None:
    """A function ``row -> value`` equivalent to ``expr.evaluate(row, env)``.

    Returns ``None`` when any part of the tree is outside the compiled
    subset; callers then fall back to the interpreter.  A tree that would
    *raise* per row on the interpreter (unknown column, aggregate outside
    GROUP BY) is deliberately not compiled, so the runtime error behaviour
    — including "no rows, no error" — is preserved exactly.

    Two lowering tiers share the work: the closure tier (always built)
    mirrors the interpreter exactly, node by node; the source tier
    (:func:`_source_function`) then fuses the scalar skeleton of the tree
    into one ``compile()``-ed Python function whose happy path is straight
    bytecode — subtrees the emitter does not handle are embedded as calls
    to their closure ("islands"), and the generated function falls back to
    the full closure tree on *any* exception, which replays the row and
    reproduces the interpreter's exact error or value.
    """
    try:
        func, is_const = _compile(expr, env)
    except _Uncompilable:
        return None
    if is_const:
        return func
    return _source_function(expr, env, func) or func


# ------------------------------------------------------------------ helpers


def _const(value: Any) -> tuple[RowFunc, bool]:
    return (lambda row: value), True


def _fold(func: RowFunc, is_const: bool) -> tuple[RowFunc, bool]:
    """Evaluate a row-independent subtree once; keep it dynamic on error.

    The interpreter raises per evaluated row, so a constant subtree that
    raises (``1/0``) must keep raising at run time, not at compile time.
    """
    if not is_const:
        return func, False
    try:
        value = func(())
    except Exception:
        return func, False
    return _const(value)


def _const_value(func: RowFunc) -> Any:
    """The value of an already-folded constant closure."""
    return func(())


# ------------------------------------------------------------------ compile


def _compile(expr: Expression, env: EvalEnv) -> tuple[RowFunc, bool]:
    if isinstance(expr, Literal):
        return _const(expr.value)
    if isinstance(expr, ColumnRef):
        try:
            position = env.resolve(expr.name)
        except ExecutionError:
            # Unknown/ambiguous columns raise per evaluated row on the
            # interpreter; keep that behaviour by refusing to compile.
            raise _Uncompilable from None
        return itemgetter(position), False
    if isinstance(expr, PosRef):
        return itemgetter(expr.position), False
    if isinstance(expr, Star):
        return (lambda row: row), False
    if isinstance(expr, BinaryOp):
        return _compile_binary(expr, env)
    if isinstance(expr, UnaryOp):
        return _compile_unary(expr, env)
    if isinstance(expr, IsNull):
        operand, const = _compile(expr.operand, env)
        negated = expr.negated

        def func(row):
            is_null = operand(row) is None
            return (not is_null) if negated else is_null

        return _fold(func, const)
    if isinstance(expr, Between):
        return _compile_between(expr, env)
    if isinstance(expr, InList):
        return _compile_in_list(expr, env)
    if isinstance(expr, InSet):
        operand, const = _compile(expr.operand, env)
        values = expr.values
        negated = expr.negated

        def func(row):
            value = operand(row)
            if value is None:
                return None
            found = value in values
            return (not found) if negated else found

        return _fold(func, const)
    if isinstance(expr, Like):
        return _compile_like(expr, env)
    if isinstance(expr, ArrayLiteral):
        items = [_compile(item, env) for item in expr.items]
        item_funcs = [func for func, _ in items]

        def func(row):
            return arrays.make_array(f(row) for f in item_funcs)

        return _fold(func, all(const for _, const in items))
    if isinstance(expr, FuncCall):
        return _compile_func(expr, env)
    raise _Uncompilable


def _compile_binary(expr: BinaryOp, env: EvalEnv) -> tuple[RowFunc, bool]:
    op = expr.op
    left, left_const = _compile(expr.left, env)
    right, right_const = _compile(expr.right, env)
    const = left_const and right_const
    if op == "and":

        def func(row):
            lv = left(row)
            if lv is False:
                return False
            rv = right(row)
            if rv is False:
                return False
            if lv is None or rv is None:
                return None
            return True

        return _fold(func, const)
    if op == "or":

        def func(row):
            lv = left(row)
            if lv is True:
                return True
            rv = right(row)
            if rv is True:
                return True
            if lv is None or rv is None:
                return None
            return False

        return _fold(func, const)
    if op == "||":
        concat = BinaryOp._concat

        def func(row):
            return concat(left(row), right(row))

        return _fold(func, const)
    if op in _ARRAY_OPS and not const:
        specialized = _compile_array_op(op, left, left_const, right, right_const)
        if specialized is not None:
            return specialized, False
    impl = BINARY_IMPLS.get(op)
    if impl is None:
        raise _Uncompilable  # interpreter raises "unknown operator" per row
    if op == "/":

        def func(row):
            a = left(row)
            b = right(row)
            if a is None or b is None:
                return None
            if b == 0:
                raise ExecutionError("division by zero")
            try:
                return impl(a, b)
            except TypeError as exc:
                raise ExecutionError(
                    f"operator {op!r} not supported for {a!r} and {b!r}"
                ) from exc

    else:

        def func(row):
            a = left(row)
            b = right(row)
            if a is None or b is None:
                return None
            try:
                return impl(a, b)
            except TypeError as exc:
                raise ExecutionError(
                    f"operator {op!r} not supported for {a!r} and {b!r}"
                ) from exc

    return _fold(func, const)


def _identity(value):
    """Pass-through ``dynamic`` side for :func:`_compile_array_op` when the
    dynamic value is computed by generated source rather than a closure."""
    return value


def _probe_set(values: tuple) -> frozenset | None:
    """A hoisted probe set for a constant array operand (None: unhashable)."""
    try:
        return frozenset(values)
    except TypeError:
        return None


def _compile_array_op(
    op: str,
    left: RowFunc,
    left_const: bool,
    right: RowFunc,
    right_const: bool,
) -> RowFunc | None:
    """Containment/overlap with one constant side: hoist its conversion.

    The generic :func:`arrays.contains` / :func:`arrays.overlap` paths
    rebuild a ``set(...)`` per evaluation when neither operand is a RidSet;
    with a constant operand the conversion happens here, once per
    statement.  Results match the interpreter exactly (probing a hoisted
    set answers the same membership questions).  Returns ``None`` when no
    side is constant or the constant cannot be hoisted — the caller then
    emits the generic impl-calling closure.
    """
    if not (left_const or right_const):
        return None
    if left_const and not right_const:
        const_value, dynamic, const_is_left = _const_value(left), right, True
    elif right_const and not left_const:
        const_value, dynamic, const_is_left = _const_value(right), left, False
    else:  # pragma: no cover - both-const trees are folded by the caller
        return None
    impl = BINARY_IMPLS[op]
    if const_value is None:
        # NULL op anything is NULL, but the dynamic side must still be
        # evaluated (it may raise), exactly like the interpreter.
        def func(row):
            dynamic(row)
            return None

        return func
    def generic(other):
        """The interpreter's impl call, in the original operand order."""
        a, b = (const_value, other) if const_is_left else (other, const_value)
        try:
            return impl(a, b)
        except TypeError as exc:
            raise ExecutionError(
                f"operator {op!r} not supported for {a!r} and {b!r}"
            ) from exc

    if isinstance(const_value, RidSet):
        # Already a bitmap (the executor's statement-level conversion);
        # the arrays fast paths handle it without per-row conversions.
        def func(row):
            other = dynamic(row)
            if other is None:
                return None
            return generic(other)

        return func
    if not isinstance(const_value, tuple):
        return None
    # Map (op, const side) onto contains/overlap semantics.  ``outer @>
    # inner`` and ``inner <@ outer``: a constant *outer* becomes a hoisted
    # probe set; a constant *inner* becomes a fixed probe list over the
    # dynamic outer (no conversion at all).  ``&&`` probes the hoisted set
    # with the dynamic side's elements.  Non-tuple dynamic values (strings,
    # RidSets, garbage) take the interpreter's generic impl path, so error
    # behaviour and odd-type semantics stay identical.
    probe = _probe_set(const_value)
    if probe is None:
        return None
    const_is_outer = (op == "@>" and const_is_left) or (
        op == "<@" and not const_is_left
    )

    def func(row):
        other = dynamic(row)
        if other is None:
            return None
        if isinstance(other, tuple):
            try:
                if op == "&&":
                    return any(v in probe for v in other)
                if const_is_outer:
                    return all(v in probe for v in other)
                return all(v in other for v in const_value)
            except TypeError:
                pass  # unhashable element and the like: generic path
        return generic(other)

    return func


def _compile_unary(expr: UnaryOp, env: EvalEnv) -> tuple[RowFunc, bool]:
    operand, const = _compile(expr.operand, env)
    if expr.op == "not":

        def func(row):
            value = operand(row)
            return None if value is None else (not value)

        return _fold(func, const)
    if expr.op == "-":

        def func(row):
            value = operand(row)
            return None if value is None else -value

        return _fold(func, const)
    raise _Uncompilable  # interpreter raises "unknown unary operator" per row


def _compile_between(expr: Between, env: EvalEnv) -> tuple[RowFunc, bool]:
    operand, c1 = _compile(expr.operand, env)
    low, c2 = _compile(expr.low, env)
    high, c3 = _compile(expr.high, env)
    negated = expr.negated

    def func(row):
        value = operand(row)
        lo = low(row)
        hi = high(row)
        if value is None or lo is None or hi is None:
            return None
        result = lo <= value <= hi
        return (not result) if negated else result

    return _fold(func, c1 and c2 and c3)


def _compile_in_list(expr: InList, env: EvalEnv) -> tuple[RowFunc, bool]:
    operand, const = _compile(expr.operand, env)
    items = [_compile(item, env) for item in expr.items]
    item_funcs = [func for func, _ in items]
    negated = expr.negated

    def func(row):
        value = operand(row)
        if value is None:
            return None
        found = any(f(row) == value for f in item_funcs)
        return (not found) if negated else found

    return _fold(func, const and all(c for _, c in items))


def _compile_like(expr: Like, env: EvalEnv) -> tuple[RowFunc, bool]:
    operand, c1 = _compile(expr.operand, env)
    pattern, c2 = _compile(expr.pattern, env)
    negated = expr.negated
    if c2:
        pattern_value = _const_value(pattern)
        if pattern_value is None:

            def func(row):
                operand(row)  # may raise, like the interpreter
                return None

            return _fold(func, c1)
        try:
            regex = like_to_regex(pattern_value)
        except Exception:
            regex = None  # non-string pattern: defer the error to run time
        if regex is not None:

            def func(row):
                value = operand(row)
                if value is None:
                    return None
                matched = regex.match(str(value)) is not None
                return (not matched) if negated else matched

            return _fold(func, c1)

    def func(row):
        value = operand(row)
        pat = pattern(row)
        if value is None or pat is None:
            return None
        matched = like_to_regex(pat).match(str(value)) is not None
        return (not matched) if negated else matched

    return _fold(func, c1 and c2)


def _compile_func(expr: FuncCall, env: EvalEnv) -> tuple[RowFunc, bool]:
    if expr.is_aggregate:
        # The interpreter raises per evaluated row ("aggregate outside
        # GROUP BY context"); fall back so that behaviour is preserved.
        raise _Uncompilable
    args = [_compile(arg, env) for arg in expr.args]
    arg_funcs = [func for func, _ in args]
    const = all(c for _, c in args)
    if expr.name == "coalesce":

        def func(row):
            for f in arg_funcs:
                value = f(row)
                if value is not None:
                    return value
            return None

        return _fold(func, const)
    impl = SCALAR_FUNCS.get(expr.name)
    if impl is None:
        raise _Uncompilable  # interpreter raises "unknown function" per row
    if len(arg_funcs) == 1:
        arg = arg_funcs[0]

        def func(row):
            value = arg(row)
            return None if value is None else impl(value)

        return _fold(func, const)

    def func(row):
        values = [f(row) for f in arg_funcs]
        if any(v is None for v in values):
            return None
        return impl(*values)

    return _fold(func, const)


# --------------------------------------------------------------- source tier
#
# The closure tier above is exact but still pays one Python frame per AST
# node per row.  The source tier fuses the *scalar skeleton* of a tree —
# column loads, comparisons, arithmetic, AND/OR/NOT, BETWEEN, IS NULL,
# IN — into a single generated function, so the per-row cost collapses to
# one call plus straight bytecode.  Sub-trees outside the skeleton (array
# operators, functions, dynamic LIKE, ``||``) are embedded as calls to
# their closure-tier function.  Correctness contract: wherever the
# generated expression *returns*, its value equals the interpreter's;
# anything that raises is replayed through the closure tree (evaluation
# is pure), reproducing the interpreter's exact value or error.


class _NoSource(Exception):
    """Internal: this node has no source form (caller islands or gives up)."""


_COMPARISONS = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_ARITHMETIC = {"+": "+", "-": "-", "*": "*", "%": "%"}


def _checked_div(a: Any, b: Any) -> Any:
    """The interpreter's ``/`` semantics for the generated code."""
    if b == 0:
        raise ExecutionError("division by zero")
    try:
        return BINARY_IMPLS["/"](a, b)
    except TypeError as exc:
        raise ExecutionError(f"operator '/' not supported for {a!r} and {b!r}") from exc


class _SourceContext:
    """Namespace and gensym state for one generated function."""

    def __init__(self, env: EvalEnv):
        self.env = env
        # _TRUE/_FALSE alias the singletons so generated identity tests
        # (`x is _FALSE`, mirroring the interpreter's `x is False`) do not
        # trip CPython's literal-`is` SyntaxWarning.
        self.names: dict[str, Any] = {
            "ExecutionError": ExecutionError,
            "_div": _checked_div,
            "_TRUE": True,
            "_FALSE": False,
        }
        self.counter = 0

    def gensym(self, prefix: str) -> str:
        self.counter += 1
        return f"_{prefix}{self.counter}"

    def bind(self, value: Any) -> str:
        name = self.gensym("g")
        self.names[name] = value
        return name

    def const(self, value: Any) -> str:
        """Source text for a constant: inlined when it is a safe literal."""
        if value is None or isinstance(value, (bool, int)):
            return f"({value!r})"
        if isinstance(value, str):
            return f"({value!r})"
        return self.bind(value)

    def island(self, expr: Expression) -> str:
        """Embed an unsupported subtree as a call to its closure form."""
        func, is_const = _compile(expr, self.env)
        if is_const:
            return self.const(_const_value(func))
        return f"{self.bind(func)}(row)"

    def column(self, position: int) -> str:
        """Source text of one column load (the row-layout form)."""
        return f"row[{position}]"


class _ColumnContext(_SourceContext):
    """Emission context for the columnar tier.

    Every columnar kernel is generated in two variants sharing one
    namespace: a *row-fused* body (``row_mode``) whose column loads read
    the backing row tuple (``_r[N]``) — the fast path for the scan's
    late-materializing row-backed blocks — and a *vector* body whose loads
    index materialized column vectors (``_cN[_i]``).  Subtrees that would
    need a full row ("islands") abort emission in both; the kernel then
    maps the fused row function over the block's rows instead."""

    def __init__(self, env: EvalEnv):
        super().__init__(env)
        self.used_positions: set[int] = set()
        self.row_mode = False

    def column(self, position: int) -> str:
        if self.row_mode:
            return f"_r[{position}]"
        self.used_positions.add(position)
        return f"_c{position}[_i]"

    def island(self, expr: Expression) -> str:
        raise _NoSource


def _source_function(expr: Expression, env: EvalEnv, slow: RowFunc) -> RowFunc | None:
    """Fuse ``expr`` into one generated function, or ``None`` if the root
    is outside the skeleton (a root-level island would only add overhead).
    """
    ctx = _SourceContext(env)
    try:
        body = _emit(expr, ctx)
    except (_NoSource, _Uncompilable):
        return None
    ctx.names["_slow"] = slow
    source = (
        "def _compiled(row):\n"
        "    try:\n"
        f"        return {body}\n"
        "    except Exception:\n"
        "        # Replay through the exact closure tree: evaluation is\n"
        "        # pure, so this reproduces the interpreter's value/error.\n"
        "        return _slow(row)\n"
    )
    namespace = ctx.names
    exec(compile(source, "<repro.storage.compile>", "exec"), namespace)
    # Popped: a function that stays in its own globals is a reference cycle
    # that keeps the statement's probe sets alive until the cyclic GC runs.
    return namespace.pop("_compiled")


def _column_prelude(ctx: "_ColumnContext") -> str:
    """Local bindings for every column vector the body references."""
    return "".join(
        f"    _c{position} = _cols[{position}]\n"
        for position in sorted(ctx.used_positions)
    )


def _column_source(expr: Expression, env: EvalEnv):
    """Both generated-source variants of ``expr`` (row-fused, vector) and
    the namespace they run in, or ``None`` outside the vector subset."""
    try:
        slow, _is_const = _compile(expr, env)
        ctx = _ColumnContext(env)
        ctx.row_mode = True
        row_body = _emit(expr, ctx)
        ctx.row_mode = False
        col_body = _emit(expr, ctx)
    except (_NoSource, _Uncompilable):
        return None
    ctx.names["_slow"] = slow
    return ctx, row_body, col_body


def _row_function(expr: Expression, env: EvalEnv) -> tuple[RowFunc, str]:
    """``expr`` as a row function, and the tier it is: the fused closure
    tree (trees that need a full row: both-dynamic array operators,
    function islands) or, for uncompilable nodes, the interpreter."""
    func = compile_value(expr, env)
    if func is not None:
        return func, "compiled"
    return (lambda row: expr.evaluate(row, env)), "interpreted"


def _kernel(ctx: _ColumnContext, source: str, name: str):
    exec(compile(source, "<repro.storage.compile>", "exec"), ctx.names)
    return ctx.names.pop(name), "columnar"  # popped: see _source_function


def compile_column_predicate(expr: Expression, env: EvalEnv) -> tuple[Callable, str]:
    """A ``block -> kept rows / selection vector`` kernel for a WHERE
    predicate, and its tier.

    Row-backed blocks take the fused fast path: one listcomp over the
    backing row list whose condition reads ``_r[N]`` directly, returning
    the *kept rows themselves* — no selection vector, no gather.
    Column-backed blocks run the vector variant: a listcomp over
    ``range(block.length)`` reading column vectors, returning the list of
    row positions (ascending) where the predicate is exactly ``True``.
    Callers distinguish the payloads by the block's backing
    (``block.rows is not None``).  Outside the vector subset the same
    contract is served by the tree's row function (see
    :func:`_row_function`); the ``tier`` returned beside the kernel says
    which.  On any exception
    the block is replayed row-by-row through the exact closure tree,
    reproducing the interpreter's error at the offending row.
    """
    # A bare literal would sit directly beside `is` in the generated
    # condition (a CPython SyntaxWarning); its row function is free anyway.
    lowered = None if isinstance(expr, Literal) else _column_source(expr, env)
    if lowered is None:
        func, tier = _row_function(expr, env)

        def kernel(block):
            rows = block.rows
            if rows is not None:
                return [row for row in rows if func(row) is True]
            return [i for i, row in enumerate(block.to_rows()) if func(row) is True]

        return kernel, tier
    ctx, row_body, col_body = lowered
    source = (
        "def _compiled_colfilter(block):\n"
        "    _rows = block.rows\n"
        "    if _rows is not None:\n"
        "        try:\n"
        f"            return [_r for _r in _rows if ({row_body}) is _TRUE]\n"
        "        except Exception:\n"
        "            # Replay through the exact closure tree: evaluation\n"
        "            # is pure, so the interpreter's error surfaces\n"
        "            # identically.\n"
        "            return [_r for _r in _rows if _slow(_r) is _TRUE]\n"
        "    _cols = block.columns\n"
        f"{_column_prelude(ctx)}"
        "    _n = block.length\n"
        "    try:\n"
        f"        return [_i for _i in range(_n) if ({col_body}) is _TRUE]\n"
        "    except Exception:\n"
        "        _row = block.row\n"
        "        return [_i for _i in range(_n) if _slow(_row(_i)) is _TRUE]\n"
    )
    return _kernel(ctx, source, "_compiled_colfilter")


def compile_column_values(expr: Expression, env: EvalEnv) -> tuple[Callable, str]:
    """A ``(block, selection) -> value vector`` kernel for one expression,
    and its tier.

    Evaluates ``expr`` at each selected position (``selection=None`` means
    every row of the block), returning the values in selection order —
    the columnar form of projection, join/group/ORDER BY key extraction,
    and aggregate input extraction.  A bare column reference hands off the
    block's (lazily materialized) column vector — zero copy when
    unselected; general expressions run the row-fused variant over a
    row-backed block's backing list and the vector variant otherwise.
    Trees outside the vector subset map their row function over the
    selected rows (the ``tier`` returned beside the kernel says which);
    exceptions replay through the closure tree exactly like
    :func:`compile_column_predicate`.
    """
    position = None
    if isinstance(expr, PosRef):
        position = expr.position
    elif isinstance(expr, ColumnRef):
        position = env.positions.get(expr.name)
    if position is not None and position != EvalEnv.AMBIGUOUS:

        def column_kernel(block, selection, _p=position):
            if selection is None:
                return block.column(_p)
            rows = block.rows
            if rows is not None:
                return [rows[i][_p] for i in selection]
            column = block.columns[_p]
            return [column[i] for i in selection]

        return column_kernel, "columnar"
    lowered = _column_source(expr, env)
    if lowered is None:
        func, tier = _row_function(expr, env)

        def kernel(block, selection):
            if selection is None:
                return list(map(func, block.to_rows()))
            return [func(block.row(i)) for i in selection]

        return kernel, tier
    ctx, row_body, col_body = lowered
    source = (
        "def _compiled_colvalues(block, selection):\n"
        "    _rows = block.rows\n"
        "    if _rows is not None:\n"
        "        if selection is not None:\n"
        "            _rows = [_rows[_i] for _i in selection]\n"
        "        try:\n"
        f"            return [{row_body} for _r in _rows]\n"
        "        except Exception:\n"
        "            return [_slow(_r) for _r in _rows]\n"
        "    _cols = block.columns\n"
        f"{_column_prelude(ctx)}"
        "    _sel = range(block.length) if selection is None else selection\n"
        "    try:\n"
        f"        return [{col_body} for _i in _sel]\n"
        "    except Exception:\n"
        "        _row = block.row\n"
        "        return [_slow(_row(_i)) for _i in _sel]\n"
    )
    return _kernel(ctx, source, "_compiled_colvalues")


def _emit(expr: Expression, ctx: _SourceContext) -> str:
    """Source text of one supported node (children may become islands)."""
    if isinstance(expr, Literal):
        if isinstance(expr.value, (bool, int, str)) or expr.value is None:
            return ctx.const(expr.value)
        raise _NoSource  # exotic constants stay closure-bound via islands
    if isinstance(expr, ColumnRef):
        try:
            position = ctx.env.resolve(expr.name)
        except ExecutionError:
            raise _Uncompilable from None
        return ctx.column(position)
    if isinstance(expr, PosRef):
        return ctx.column(expr.position)
    if isinstance(expr, BinaryOp):
        return _emit_binary(expr, ctx)
    if isinstance(expr, UnaryOp):
        value = ctx.gensym("t")
        operand = _emit_child(expr.operand, ctx)
        if expr.op == "not":
            return f"(None if ({value} := {operand}) is None else (not {value}))"
        if expr.op == "-":
            return f"(None if ({value} := {operand}) is None else -{value})"
        raise _NoSource
    if isinstance(expr, IsNull):
        check = "is not None" if expr.negated else "is None"
        value = ctx.gensym("t")
        # The walrus names the operand so an inlined constant never sits
        # directly beside `is` (a CPython SyntaxWarning).
        return f"(({value} := {_emit_child(expr.operand, ctx)}) {check})"
    if isinstance(expr, Between):
        value, low, high = (ctx.gensym("t") for _ in range(3))
        # ``|`` (not ``or``) so all three operands are evaluated before the
        # null check, exactly like the interpreter.
        body = f"{low} <= {value} <= {high}"
        if expr.negated:
            body = f"not ({body})"
        return (
            f"(None if (({value} := {_emit_child(expr.operand, ctx)}) is None)"
            f" | (({low} := {_emit_child(expr.low, ctx)}) is None)"
            f" | (({high} := {_emit_child(expr.high, ctx)}) is None)"
            f" else ({body}))"
        )
    if isinstance(expr, InSet):
        value = ctx.gensym("t")
        values = ctx.bind(expr.values)
        membership = "not in" if expr.negated else "in"
        return (
            f"(None if ({value} := {_emit_child(expr.operand, ctx)}) is None"
            f" else ({value} {membership} {values}))"
        )
    if isinstance(expr, InList):
        items = [_compile(item, ctx.env) for item in expr.items]
        if not all(is_const for _, is_const in items):
            raise _NoSource  # row-dependent items keep the lazy closure form
        folded = ctx.bind(tuple(_const_value(func) for func, _ in items))
        value = ctx.gensym("t")
        item = ctx.gensym("t")
        found = f"any({item} == {value} for {item} in {folded})"
        if expr.negated:
            found = f"not ({found})"
        return (
            f"(None if ({value} := {_emit_child(expr.operand, ctx)}) is None"
            f" else ({found}))"
        )
    if isinstance(expr, Like):
        return _emit_like(expr, ctx)
    raise _NoSource


def _emit_child(expr: Expression, ctx: _SourceContext) -> str:
    try:
        return _emit(expr, ctx)
    except _NoSource:
        return ctx.island(expr)


def _emit_binary(expr: BinaryOp, ctx: _SourceContext) -> str:
    op = expr.op
    if op in ("and", "or"):
        left_value = ctx.gensym("t")
        right_value = ctx.gensym("t")
        left = _emit_child(expr.left, ctx)
        right = _emit_child(expr.right, ctx)
        # Mirrors _eval_and/_eval_or including the short-circuit: the right
        # side is not evaluated when the left side already decides.
        decided, undecided = ("False", "_FALSE") if op == "and" else ("True", "_TRUE")
        return (
            f"({decided} if ({left_value} := {left}) is {undecided}"
            f" else ({decided} if ({right_value} := {right}) is {undecided}"
            f" else (None if {left_value} is None or {right_value} is None"
            f" else {'True' if op == 'and' else 'False'})))"
        )
    if op in _COMPARISONS or op in _ARITHMETIC or op == "/":
        left_value = ctx.gensym("t")
        right_value = ctx.gensym("t")
        left = _emit_child(expr.left, ctx)
        right = _emit_child(expr.right, ctx)
        if op == "/":
            body = f"_div({left_value}, {right_value})"
        else:
            py_op = _COMPARISONS.get(op) or _ARITHMETIC[op]
            body = f"{left_value} {py_op} {right_value}"
        # ``|`` forces both operand evaluations before the null check (the
        # interpreter evaluates left then right unconditionally).
        return (
            f"(None if (({left_value} := {left}) is None)"
            f" | (({right_value} := {right}) is None) else ({body}))"
        )
    if op in _ARRAY_OPS:
        # Containment/overlap with one constant side: bind the hoisted
        # specialization (:func:`_compile_array_op` with a pass-through
        # dynamic side) and call it on the emitted dynamic operand.  The
        # probe-set conversion stays once-per-statement on the columnar
        # tier too; both-const and both-dynamic trees keep the closure
        # island form.
        left_func, left_const = _compile(expr.left, ctx.env)
        right_func, right_const = _compile(expr.right, ctx.env)
        if left_const == right_const:
            raise _NoSource
        if left_const:
            helper = _compile_array_op(op, left_func, True, _identity, False)
            dynamic = expr.right
        else:
            helper = _compile_array_op(op, _identity, False, right_func, True)
            dynamic = expr.left
        if helper is None:
            raise _NoSource
        return f"{ctx.bind(helper)}({_emit_child(dynamic, ctx)})"
    raise _NoSource  # ||: closure islands


def _emit_like(expr: Like, ctx: _SourceContext) -> str:
    pattern_func, pattern_const = _compile(expr.pattern, ctx.env)
    if not pattern_const:
        raise _NoSource
    pattern_value = _const_value(pattern_func)
    if pattern_value is None:
        # NULL pattern: evaluate the operand (it may raise), yield NULL.
        return f"(({ctx.gensym('t')} := {_emit_child(expr.operand, ctx)}), None)[1]"
    try:
        regex = like_to_regex(pattern_value)
    except Exception:
        raise _NoSource from None  # non-string pattern: closure handles it
    bound = ctx.bind(regex.match)
    value = ctx.gensym("t")
    matched = f"{bound}(str({value})) is not None"
    if expr.negated:
        matched = f"{bound}(str({value})) is None"
    return (
        f"(None if ({value} := {_emit_child(expr.operand, ctx)}) is None"
        f" else ({matched}))"
    )

