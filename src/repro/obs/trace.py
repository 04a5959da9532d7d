"""Tracing spans: nested timed scopes with propagated trace ids.

A span is a ``with`` block around one unit of work — a serve request, a
store refresh, a query execution.  Spans nest via a contextvar (so they
follow the work across the serve pool's threads correctly: each thread
carries its own stack), share one *trace id* per root span, and emit a
structured record to the stdlib ``repro.trace`` logger when they close.
With :func:`repro.obs.logs.configure` ``--log-json`` those records come
out as one JSON object per line; without any logging configuration a
span mints no id, builds no record and, beyond its stack push and one
clock read, costs a single ``isEnabledFor`` check.

The serve layer propagates the trace id over the wire: a client may send
``{"op": ..., "trace": "<id>"}`` and every span the request touches —
request handling, cache lookup, store refresh, executor work — carries
that id, which is how a slow multiprocess request gets attributed to the
specific resource it waited on.
"""

from __future__ import annotations

import contextvars
import logging
import time
import uuid
from contextlib import contextmanager

logger = logging.getLogger("repro.trace")

#: Stack of active :class:`Span` objects for the current thread/context.
_STACK: contextvars.ContextVar[tuple["Span", ...]] = contextvars.ContextVar(
    "repro_obs_span_stack", default=()
)


def _new_id() -> str:
    return uuid.uuid4().hex[:16]


class Span:
    """One live span; created by :func:`span`, not directly.

    Ids are minted on first read — when the span is emitted under DEBUG or
    someone asks for :attr:`trace_id` — so an unrecorded span mints none.
    """

    __slots__ = ("name", "parent", "attrs", "started", "_trace_id", "_span_id")

    def __init__(
        self,
        name: str,
        trace_id: str | None,
        parent: "Span | None",
        attrs: dict,
    ):
        self.name = name
        self.parent = parent
        self.attrs = attrs
        self.started = time.perf_counter()
        self._trace_id = trace_id
        self._span_id: str | None = None

    @property
    def trace_id(self) -> str:
        """The pinned id, else the parent's, else a fresh one (a root)."""
        if self._trace_id is None:
            parent = self.parent
            self._trace_id = parent.trace_id if parent else _new_id()
        return self._trace_id

    @property
    def span_id(self) -> str:
        if self._span_id is None:
            self._span_id = _new_id()
        return self._span_id

    @property
    def parent_id(self) -> str | None:
        return self.parent.span_id if self.parent else None


@contextmanager
def span(name: str, trace_id: str | None = None, **attrs):
    """Open a span named ``name``; yields the :class:`Span`.

    ``trace_id`` pins the trace explicitly (the serve layer passes the
    client-supplied id here); otherwise the id is inherited from the
    enclosing span or minted for a root span when first read.  Extra
    keyword arguments become attributes on the emitted record.
    """
    stack = _STACK.get()
    current = Span(name, trace_id, stack[-1] if stack else None, attrs)
    token = _STACK.set(stack + (current,))
    try:
        yield current
    finally:
        _STACK.reset(token)
        if logger.isEnabledFor(logging.DEBUG):
            elapsed = time.perf_counter() - current.started
            payload = {
                "span": current.name,
                "trace_id": current.trace_id,
                "span_id": current.span_id,
                "parent_id": current.parent_id,
                "duration_ms": round(elapsed * 1000, 3),
            }
            payload.update(current.attrs)
            logger.debug("span %s", current.name, extra={"repro_span": payload})


def current_span() -> Span | None:
    stack = _STACK.get()
    return stack[-1] if stack else None


def current_trace_id() -> str | None:
    """Trace id of the innermost active span, if any."""
    current = current_span()
    return current.trace_id if current else None
