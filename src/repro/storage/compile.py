"""Expression codegen: lower an AST into generated Python functions.

The interpreted :meth:`Expression.evaluate` walk pays dozens of dynamic
dispatches, ``env.resolve`` dict probes, and operator-table lookups per
row.  :func:`compile_value` fuses the *scalar skeleton* of a tree —
column loads, comparisons, arithmetic, AND/OR/NOT, BETWEEN, IS NULL, IN,
LIKE against a constant pattern, containment/overlap against a constant
array — into one generated Python function whose happy path is straight
bytecode, with everything resolvable at compile time hoisted out:

* column positions are resolved once (not per row);
* row-independent subtrees are evaluated once (:func:`_constant`);
* LIKE patterns become one precompiled regex;
* constant array operands of ``<@`` / ``@>`` / ``&&`` are converted to a
  probe set once, so the per-row evaluation never rebuilds ``set(...)``
  (the generic :mod:`repro.storage.arrays` paths pay that per call).

The function is made per statement, the code object per *shape*: every
constant except ``None``/``True``/``False`` is bound as a name in the
function's own namespace rather than written into the source, so
statements that differ only in a vid or a literal generate the same
source text, and :func:`_code` compiles it once (a bounded LRU over the
text, :data:`CODE_CACHE_SIZE` entries).  Each statement still ``exec``s
that code object into a fresh namespace holding its own constants.

The interpreter stays the one reference implementation, and everything
outside the skeleton runs on it: a subtree the emitter does not handle is
embedded as a bound call to its :meth:`Expression.evaluate` (an
"island"), and when a generated function raises, the row is replayed
through ``expr.evaluate(row, env)`` — evaluation is pure, so the replay
reproduces the interpreter's exact value or error.  A tree whose root is
outside the skeleton, that names an unknown column, or whose source
CPython refuses to compile (nested deeper than its parser allows) gets no
generated function: :func:`compile_value` returns ``None`` and the caller
runs the interpreter.  The hypothesis suite in
``tests/test_storage_compile.py`` enforces the equivalence, kernel by
kernel and for whole SELECTs against the row-at-a-time reference in
``tests/select_reference.py``.

The block kernels the SELECT pipeline runs on
(:func:`compile_column_predicate`, :func:`compile_column_values`) are
*total*: each takes a block and returns ``(kernel, tier)``, the tier
serving it being ``"columnar"`` (a bare column's cached vector, or one
generated listcomp over the block's rows with no island in it), or, with
the tree's row function mapped over the block's rows, ``"compiled"``
(trees that need a full row) or ``"interpreted"`` (trees
:func:`compile_value` refuses).
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Sequence

from repro.errors import ExecutionError
from repro.storage.expression import (
    BINARY_IMPLS,
    Between,
    BinaryOp,
    ColumnRef,
    EvalEnv,
    Expression,
    InList,
    InSet,
    IsNull,
    Like,
    Literal,
    PosRef,
    UnaryOp,
    like_to_regex,
)
from repro.storage.ridset import RidSet

Row = Sequence[Any]
RowFunc = Callable[[Row], Any]

#: Constant array operands of these ops get their probe-set conversion
#: hoisted to compile time, once per statement.
_ARRAY_OPS = frozenset({"<@", "@>", "&&"})

#: Distinct kernel sources whose code objects are kept (about 5 KB each).
CODE_CACHE_SIZE = 128


@functools.lru_cache(maxsize=CODE_CACHE_SIZE)
def _code(source: str):
    """The code object of one generated source text, compiled once per
    shape; callers ``exec`` it into a namespace of their own."""
    return compile(source, "<repro.storage.compile>", "exec")


def _function(source: str, names: dict, name: str) -> Callable | None:
    """The function ``name`` that ``source`` defines, run in ``names``, or
    ``None`` when CPython refuses to compile the source because the tree is
    nested deeper than its compiler allows; the tree then runs on the
    interpreter.  Any other compile error (a SyntaxWarning raised as an
    error, say) is a fault in the generated source and propagates.
    """
    try:
        code = _code(source)
    except RecursionError:
        return None
    except SyntaxError as exc:
        if "too many nested parentheses" not in str(exc):
            raise
        return None
    exec(code, names)
    # Popped: a function that stays in its own globals is a reference cycle
    # that keeps the statement's probe sets alive until the cyclic GC runs.
    return names.pop(name)


def code_cache_stats() -> dict:
    """This process's kernel code cache: ``hits``, ``misses``, ``entries``
    and ``capacity`` (a miss is one ``compile()``)."""
    info = _code.cache_info()
    return {
        "hits": info.hits,
        "misses": info.misses,
        "entries": info.currsize,
        "capacity": info.maxsize,
    }


def compile_value(expr: Expression, env: EvalEnv) -> RowFunc | None:
    """A function ``row -> value`` equivalent to ``expr.evaluate(row, env)``.

    A row-independent tree is folded to its value; otherwise the tree is
    fused into one generated function (:func:`_source_function`).  Returns
    ``None`` when the root is outside the skeleton or a column does not
    resolve; callers then fall back to the interpreter.  A tree that would
    *raise* per row on the interpreter (unknown column, aggregate outside
    GROUP BY) never raises here at compile time, so the runtime error
    behaviour — including "no rows, no error" — is preserved exactly.
    """
    value = _constant(expr)
    if value is not _DYNAMIC:
        return lambda row: value
    return _source_function(expr, env)


# ------------------------------------------------------------------ helpers


class _Uncompilable(Exception):
    """Internal: this tree must run on the interpreter."""


class _NoSource(Exception):
    """Internal: this node has no source form (caller islands or gives up)."""


class _RowRead(Exception):
    """Internal: a constant probe touched the row."""


class _NoRow:
    """The row a constant probe evaluates against.  Indexing it raises, and
    so does using it as a value (``*`` evaluates to the row itself)."""

    def _read(self, *args):
        raise _RowRead

    __getitem__ = __iter__ = __len__ = __bool__ = __str__ = _read
    __eq__ = __ne__ = __hash__ = _read


_NO_ROW = _NoRow()
_NO_COLUMNS = EvalEnv([])
_DYNAMIC = object()


def _constant(expr: Expression) -> Any:
    """``expr``'s value when it does not depend on the row, else ``_DYNAMIC``.

    The subtree is evaluated once, through the interpreter, against a row
    whose reads raise.  Any read or any error leaves it dynamic: the
    interpreter raises per evaluated row, so a constant subtree that
    raises (``1/0``) must keep raising at run time, not at compile time.
    """
    try:
        value = expr.evaluate(_NO_ROW, _NO_COLUMNS)
    except Exception:
        return _DYNAMIC
    return _DYNAMIC if value is _NO_ROW else value


def _probe_set(values: tuple) -> frozenset | None:
    """A hoisted probe set for a constant array operand (None: unhashable)."""
    try:
        return frozenset(values)
    except TypeError:
        return None


def _array_op(op: str, const_value: Any, const_is_left: bool) -> Callable | None:
    """Containment/overlap with one constant side, as a function of the
    dynamic side's value: the constant's conversion is hoisted.

    The generic :func:`arrays.contains` / :func:`arrays.overlap` paths
    rebuild a ``set(...)`` per evaluation when neither operand is a RidSet;
    here the conversion happens once per statement.  Results match the
    interpreter exactly (probing a hoisted set answers the same membership
    questions).  Returns ``None`` when the constant cannot be hoisted —
    the caller then leaves the node to the interpreter.
    """
    if const_value is None:
        # NULL op anything is NULL; the dynamic side is still evaluated
        # (it may raise), as the argument of this call.
        return lambda other: None
    impl = BINARY_IMPLS[op]

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
        def func(other):
            return None if other is None else generic(other)

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

    def func(other):
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


_COMPARISONS = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_ARITHMETIC = {"+": "+", "-": "-", "*": "*"}


def _checked(op: str, a: Any, b: Any) -> Any:
    """The interpreter's ``/`` and ``%`` for the generated code: a zero
    divisor is an error before the operand types are looked at."""
    if b == 0:
        raise ExecutionError("division by zero")
    try:
        return BINARY_IMPLS[op](a, b)
    except TypeError as exc:
        raise ExecutionError(
            f"operator {op!r} not supported for {a!r} and {b!r}"
        ) from exc


# ----------------------------------------------------------------- emission


class _SourceContext:
    """Namespace and gensym state for one generated function."""

    def __init__(self, env: EvalEnv):
        self.env = env
        # _TRUE/_FALSE alias the singletons so generated identity tests
        # (`x is _FALSE`, mirroring the interpreter's `x is False`) do not
        # trip CPython's literal-`is` SyntaxWarning.
        self.names: dict[str, Any] = {
            "ExecutionError": ExecutionError,
            "_checked": _checked,
            "_TRUE": True,
            "_FALSE": False,
            "_env": env,
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
        """Source text for a constant.  ``None``/``True``/``False`` stay
        inline; every other value is bound as a name, so the source is the
        same for every statement of one shape and only the namespace
        carries the statement's constants."""
        if value is None or isinstance(value, bool):
            return f"({value!r})"
        return self.bind(value)

    def island(self, expr: Expression) -> str:
        """Embed an unsupported subtree: its value when it is row-independent,
        else a call to the interpreter."""
        value = _constant(expr)
        if value is not _DYNAMIC:
            return self.const(value)
        return f"{self.bind(expr.evaluate)}(row, _env)"


class _ColumnContext(_SourceContext):
    """Emission context for the columnar tier, whose one body is a
    listcomp over the block's rows.  A subtree that would need a full row
    (an "island") aborts emission; the kernel then maps the tree's row
    function over the block's rows instead."""

    def island(self, expr: Expression) -> str:
        raise _NoSource


def _source_function(expr: Expression, env: EvalEnv) -> RowFunc | None:
    """Fuse ``expr`` into one generated function, or ``None`` if the root
    is outside the skeleton (a root-level island would only add overhead).
    """
    ctx = _SourceContext(env)
    try:
        body = _emit(expr, ctx)
    except (_NoSource, _Uncompilable):
        return None
    ctx.names["_slow"] = expr.evaluate
    source = (
        "def _compiled(row):\n"
        "    try:\n"
        f"        return {body}\n"
        "    except Exception:\n"
        "        # Replay through the interpreter: evaluation is pure, so\n"
        "        # this reproduces its exact value or error.\n"
        "        return _slow(row, _env)\n"
    )
    return _function(source, ctx.names, "_compiled")


def _column_source(expr: Expression, env: EvalEnv):
    """The generated-source body of ``expr`` over one ``row`` and the
    namespace it runs in, or ``None`` outside the island-free subset."""
    ctx = _ColumnContext(env)
    try:
        body = _emit(expr, ctx)
    except (_NoSource, _Uncompilable):
        return None
    ctx.names["_slow"] = expr.evaluate
    return ctx, body


def row_function(expr: Expression, env: EvalEnv) -> tuple[RowFunc, str]:
    """``expr`` as a row function, and the tier it is: the generated row
    function (trees that need a full row: both-dynamic array operators,
    function islands) or, for trees :func:`compile_value` refuses, the
    interpreter.  The row kernels below map it over a block; DML and join
    conditions call it per row."""
    func = compile_value(expr, env)
    if func is not None:
        return func, "compiled"
    return (lambda row: expr.evaluate(row, env)), "interpreted"


def _row_predicate(expr: Expression, env: EvalEnv) -> tuple[Callable, str]:
    """The predicate kernel served by ``expr``'s row function."""
    func, tier = row_function(expr, env)

    def kernel(block):
        return [row for row in block.rows if func(row) is True]

    return kernel, tier


def _row_values(expr: Expression, env: EvalEnv) -> tuple[Callable, str]:
    """The value kernel served by ``expr``'s row function."""
    func, tier = row_function(expr, env)

    def kernel(block):
        return list(map(func, block.rows))

    return kernel, tier


def compile_column_predicate(expr: Expression, env: EvalEnv) -> tuple[Callable, str]:
    """A ``block -> kept rows`` kernel for a WHERE predicate, and its tier.

    One listcomp over the block's rows whose condition reads ``row[N]``
    directly, returning the rows where the predicate is exactly ``True``,
    in order.  Outside the island-free subset the same contract is served
    by the tree's row function (see :func:`row_function`); the ``tier``
    returned beside the kernel says which.  On any exception the block is
    replayed row by row through the interpreter, reproducing its error at
    the offending row.
    """
    # A bare literal keeps its folded row function (free per row), and with
    # it the "compiled" tier the census has always charged it to.
    lowered = None if isinstance(expr, Literal) else _column_source(expr, env)
    if lowered is None:
        return _row_predicate(expr, env)
    ctx, body = lowered
    source = (
        "def _compiled_colfilter(block):\n"
        "    try:\n"
        f"        return [row for row in block.rows if ({body}) is _TRUE]\n"
        "    except Exception:\n"
        "        # Replay through the interpreter: evaluation is pure, so its\n"
        "        # error surfaces identically.\n"
        "        return [row for row in block.rows if _slow(row, _env) is _TRUE]\n"
    )
    kernel = _function(source, ctx.names, "_compiled_colfilter")
    return (kernel, "columnar") if kernel else _row_predicate(expr, env)


def compile_column_values(expr: Expression, env: EvalEnv) -> tuple[Callable, str]:
    """A ``block -> value vector`` kernel for one expression, and its tier.

    Evaluates ``expr`` on each row of the block, returning the values in
    row order — the columnar form of projection, join/group/ORDER BY key
    extraction, and aggregate input extraction.  A bare column reference
    hands off the block's (lazily built, cached) column vector; general
    expressions run one listcomp over the block's rows.  Trees outside the
    island-free subset map their row function over the rows (the ``tier``
    returned beside the kernel says which); exceptions replay through the
    interpreter exactly like :func:`compile_column_predicate`.
    """
    position = None
    if isinstance(expr, PosRef):
        position = expr.position
    elif isinstance(expr, ColumnRef):
        position = env.positions.get(expr.name)
    if position is not None and position != EvalEnv.AMBIGUOUS:

        def column_kernel(block, _p=position):
            return block.column(_p)

        return column_kernel, "columnar"
    lowered = _column_source(expr, env)
    if lowered is None:
        return _row_values(expr, env)
    ctx, body = lowered
    source = (
        "def _compiled_colvalues(block):\n"
        "    try:\n"
        f"        return [{body} for row in block.rows]\n"
        "    except Exception:\n"
        "        return [_slow(row, _env) for row in block.rows]\n"
    )
    kernel = _function(source, ctx.names, "_compiled_colvalues")
    return (kernel, "columnar") if kernel else _row_values(expr, env)


def _emit(expr: Expression, ctx: _SourceContext) -> str:
    """Source text of one supported node (children may become islands)."""
    if isinstance(expr, Literal):
        if isinstance(expr.value, (bool, int, str)) or expr.value is None:
            return ctx.const(expr.value)
        raise _NoSource  # exotic constants are bound through islands
    if isinstance(expr, ColumnRef):
        try:
            position = ctx.env.resolve(expr.name)
        except ExecutionError:
            # Unknown/ambiguous columns raise per evaluated row on the
            # interpreter; keep that behaviour by refusing to compile.
            raise _Uncompilable from None
        return f"row[{position}]"
    if isinstance(expr, PosRef):
        return f"row[{expr.position}]"
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
        if not expr.values:  # nothing is in an empty set, not even NULL
            return f"(({value} := {_emit_child(expr.operand, ctx)}), {expr.negated})[1]"
        if None in expr.values:  # a miss against a NULL member is NULL
            test = f"({not expr.negated} if {value} in {values} else None)"
        else:
            test = f"({value} {'not in' if expr.negated else 'in'} {values})"
        return (
            f"(None if ({value} := {_emit_child(expr.operand, ctx)}) is None"
            f" else {test})"
        )
    if isinstance(expr, InList):
        items = tuple(map(_constant, expr.items))
        if any(item is _DYNAMIC for item in items):
            raise _NoSource  # row-dependent items keep the interpreter's lazy form
        folded = ctx.bind(items)
        value = ctx.gensym("t")
        item = ctx.gensym("t")
        found = f"any({item} == {value} for {item} in {folded})"
        # A miss is NULL when the list holds a NULL.  It is bound, not
        # inlined, so a NULL item does not change the kernel's shape.
        unknown = any(item is None for item in items)
        miss = ctx.bind(None if unknown else expr.negated)
        return (
            f"(None if ({value} := {_emit_child(expr.operand, ctx)}) is None"
            f" else ({not expr.negated} if {found} else {miss}))"
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
    if op in _COMPARISONS or op in _ARITHMETIC or op in ("/", "%"):
        left_value = ctx.gensym("t")
        right_value = ctx.gensym("t")
        left = _emit_child(expr.left, ctx)
        right = _emit_child(expr.right, ctx)
        if op in ("/", "%"):
            body = f"_checked({op!r}, {left_value}, {right_value})"
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
        # specialization (:func:`_array_op`) and call it on the emitted
        # dynamic operand.  The probe-set conversion stays once per
        # statement on the columnar tier too; both-const and both-dynamic
        # trees are islands.
        left, right = _constant(expr.left), _constant(expr.right)
        if (left is _DYNAMIC) == (right is _DYNAMIC):
            raise _NoSource
        if right is _DYNAMIC:
            helper, dynamic = _array_op(op, left, True), expr.right
        else:
            helper, dynamic = _array_op(op, right, False), expr.left
        if helper is None:
            raise _NoSource
        return f"{ctx.bind(helper)}({_emit_child(dynamic, ctx)})"
    raise _NoSource  # ||: an island


def _emit_like(expr: Like, ctx: _SourceContext) -> str:
    pattern = _constant(expr.pattern)
    if pattern is _DYNAMIC:
        raise _NoSource
    if pattern is None:
        # NULL pattern: evaluate the operand (it may raise), yield NULL.
        return f"(({ctx.gensym('t')} := {_emit_child(expr.operand, ctx)}), None)[1]"
    try:
        regex = like_to_regex(pattern)
    except ExecutionError:
        raise _NoSource from None  # non-string pattern: the interpreter raises
    bound = ctx.bind(regex.match)
    value = ctx.gensym("t")
    matched = f"{bound}(str({value})) is not None"
    if expr.negated:
        matched = f"{bound}(str({value})) is None"
    return (
        f"(None if ({value} := {_emit_child(expr.operand, ctx)}) is None"
        f" else ({matched}))"
    )
