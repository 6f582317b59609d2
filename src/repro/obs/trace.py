"""Structured tracing: spans with monotonic timings and parent/child links.

A :class:`Tracer` records :class:`Span` trees for the full query
lifecycle -- bind -> rewrite -> route choice -> per-shard scatter RPC ->
ring merge -> client decrypt -- plus transaction, replica, and rebalance
events.  Spans carry **operator-shape attributes only** (durations, row
counts, route kinds, shard indices); :meth:`Span.set_attr` is a declared
taint sink (:mod:`repro.analysis.contracts`), so ``sdb-lint`` proves no
plaintext, key material, or shard-key value ever enters a span.

Propagation is by ambient context, not plumbing: the active span lives in
a :mod:`contextvars` variable, so instrumentation points anywhere in the
stack ask :func:`current_span` and attach children without the tracer
being threaded through every constructor.  The asyncio tier needs nothing
extra: it runs each session's whole statement -- proxy pipeline and wire
round trips alike -- on one worker thread, so the span a statement opens
is the ambient span when its frames are sent.  Thread pools do not
inherit context; code that fans work out (coordinator scatter, the net
server's session pool) captures the parent span before submitting and
re-opens a child inside the task.

Across the wire, a request carries ``{"trace": {"t": trace_id, "s":
span_id}}``; the daemon opens its own span under that parent and returns
the finished span records piggybacked on the response, where the client
absorbs them into its tracer -- one stitched trace, client and daemon
spans interleaved.  Frames without the field behave exactly as before
(legacy clients and servers interoperate unchanged).

When tracing is off (the default), :func:`child_span` costs one
``ContextVar.get`` and a ``None`` check -- the bench gate pins the
disabled overhead at ~0 and the enabled overhead at <=5% on the Q6-style
hot path.
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
from collections import deque
from typing import Optional

#: Request/response keys for wire propagation (see repro.net.protocol).
TRACE_KEY = "trace"
SPANS_KEY = "spans"

#: The ambient active span (set by the Span context manager).
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "sdb_current_span", default=None
)


def _new_id(nbytes: int) -> str:
    return os.urandom(nbytes).hex()


class Span:
    """One timed operation in a trace tree.

    Start/end come from ``time.perf_counter()`` -- monotonic, so
    durations are exact; absolute values are only comparable within one
    process (daemon spans from another process still stitch by id, their
    offsets are rendered per-process).
    """

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id",
        "start_s", "end_s", "attrs", "origin", "tracer",
    )

    def __init__(self, name: str, trace_id: str, span_id: str,
                 parent_id: Optional[str], tracer: "Tracer",
                 origin: str = "client"):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.tracer = tracer
        self.origin = origin
        self.start_s = time.perf_counter()
        self.end_s: Optional[float] = None
        self.attrs: dict = {}

    # -- the leakage boundary ------------------------------------------------

    def set_attr(self, key: str, value) -> None:
        """Attach one shape attribute.  **Declared taint sink**: callers
        must only pass operator shapes (counts, durations, route kinds,
        identifiers) -- never plaintext, keys, or shard-key values; the
        ``taint-to-telemetry`` lint rule enforces it statically."""
        self.attrs[key] = value

    # -- lifecycle -----------------------------------------------------------

    def finish(self) -> None:
        if self.end_s is None:
            self.end_s = time.perf_counter()
            self.tracer._record(self)

    @property
    def duration_s(self) -> float:
        end = self.end_s if self.end_s is not None else time.perf_counter()
        return end - self.start_s

    def context(self) -> dict:
        """The wire form of this span's identity (trace id + span id)."""
        return {"t": self.trace_id, "s": self.span_id}

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "origin": self.origin,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:  # shape-only: no attribute values
        return (
            f"<Span {self.name!r} trace={self.trace_id} "
            f"span={self.span_id} attrs={len(self.attrs)}>"
        )


class _SpanHandle:
    """Context manager: opens a span, parks it in the ambient context."""

    __slots__ = ("span", "_token")

    def __init__(self, span: Span):
        self.span = span
        self._token = None

    def __enter__(self) -> Span:
        self._token = _CURRENT.set(self.span)
        return self.span

    def __exit__(self, *exc_info) -> None:
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        self.span.finish()


class _NoopSpan:
    """Absorbs the tracing surface at zero cost when tracing is off."""

    __slots__ = ()

    trace_id = None
    span_id = None
    parent_id = None
    attrs: dict = {}
    duration_s = 0.0

    def set_attr(self, key, value) -> None:
        pass

    def finish(self) -> None:
        pass

    def context(self):
        return None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        pass

    def __bool__(self) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Records finished spans into a bounded buffer.

    One tracer per trust domain: the connection owns the client-side
    tracer; each net daemon opens per-request spans into a throwaway
    sink that rides back on the response (the daemon retains nothing).
    """

    def __init__(self, enabled: bool = True, capacity: int = 4096):
        self.enabled = enabled
        self._finished: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        #: trace id of the most recently started root span
        self.last_trace_id: Optional[str] = None

    # -- span creation -------------------------------------------------------

    def span(self, name: str, parent: Optional[Span] = None,
             parent_ctx: Optional[dict] = None, origin: str = "client"):
        """A context manager for one span.

        ``parent`` links under an in-process span; ``parent_ctx`` links
        under a remote one (the wire form from :meth:`Span.context`).
        With neither, the ambient current span is the parent; with no
        ambient span either, a new trace root is opened.
        """
        if not self.enabled:
            return NOOP_SPAN
        return _SpanHandle(self.start(name, parent, parent_ctx, origin))

    def start(self, name: str, parent: Optional[Span] = None,
              parent_ctx: Optional[dict] = None,
              origin: str = "client") -> Span:
        """Open a span without entering it (caller pairs with finish)."""
        if not self.enabled:
            return NOOP_SPAN
        if parent is None and parent_ctx is None:
            ambient = _CURRENT.get()
            if isinstance(ambient, Span):
                parent = ambient
        if parent is not None and isinstance(parent, Span):
            trace_id = parent.trace_id
            parent_id = parent.span_id
        elif parent_ctx:
            trace_id = parent_ctx.get("t") or _new_id(8)
            parent_id = parent_ctx.get("s")
        else:
            trace_id = _new_id(8)
            parent_id = None
            self.last_trace_id = trace_id
        return Span(name, trace_id, _new_id(4), parent_id, self, origin)

    def record_timed(self, name: str, parent: Optional[Span],
                     start_s: float, end_s: float, origin: str = "client",
                     **attrs) -> None:
        """Retro-record a phase measured with explicit timers.

        Lets already-instrumented hot paths (which time phases with
        ``perf_counter`` deltas for their cost breakdowns) contribute
        spans without being restructured around context managers.
        **Declared taint sink**: ``attrs`` values must be operator shapes
        only -- the ``taint-to-telemetry`` rule enforces it."""
        if not self.enabled or not isinstance(parent, Span):
            return
        span = Span(name, parent.trace_id, _new_id(4), parent.span_id,
                    self, origin)
        span.start_s = start_s
        span.end_s = end_s
        span.attrs = dict(attrs)
        self._record(span)

    # -- the record ----------------------------------------------------------

    def _record(self, span: Span) -> None:
        with self._lock:
            self._finished.append(span)

    def absorb(self, span_dicts) -> None:
        """Merge remote span records (response piggyback) into this trace."""
        if not span_dicts or not self.enabled:
            return
        with self._lock:
            for raw in span_dicts:
                span = Span.__new__(Span)
                span.name = str(raw.get("name", ""))
                span.trace_id = raw.get("trace")
                span.span_id = raw.get("span")
                span.parent_id = raw.get("parent")
                span.start_s = float(raw.get("start_s") or 0.0)
                span.end_s = raw.get("end_s")
                span.origin = str(raw.get("origin", "daemon"))
                span.attrs = dict(raw.get("attrs") or {})
                span.tracer = self
                self._finished.append(span)

    def spans(self, trace_id: Optional[str] = None) -> list:
        """Finished spans, optionally restricted to one trace."""
        with self._lock:
            out = list(self._finished)
        if trace_id is not None:
            out = [s for s in out if s.trace_id == trace_id]
        return out

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()


#: Shared disabled tracer: the default wherever none was configured.
NOOP_TRACER = Tracer(enabled=False)


def current_span() -> Optional[Span]:
    """The ambient active span, or None when tracing is off/inactive."""
    span = _CURRENT.get()
    return span if isinstance(span, Span) else None


def child_span(name: str, origin: str = "client"):
    """A child of the ambient span, or a free no-op when none is active.

    The universal instrumentation point: deep layers (coordinator,
    replica groups, wire clients) call this without holding a tracer --
    when the session layer opened no root span, the cost is one
    ``ContextVar.get``.
    """
    parent = _CURRENT.get()
    if not isinstance(parent, Span):
        return NOOP_SPAN
    return parent.tracer.span(name, parent=parent, origin=origin)


def render_span_tree(spans, trace_id: Optional[str] = None) -> str:
    """ASCII tree of one trace: names, durations, shape attributes.

    Children indent under their parent; orphans (parent span not in the
    set -- e.g. a daemon span whose parent was pruned) root at depth 0.
    Daemon-origin spans are marked so a stitched trace reads clearly.
    """
    if trace_id is not None:
        spans = [s for s in spans if s.trace_id == trace_id]
    spans = sorted(spans, key=lambda s: s.start_s)
    by_id = {s.span_id: s for s in spans}
    children: dict = {}
    roots = []
    for span in spans:
        if span.parent_id and span.parent_id in by_id:
            children.setdefault(span.parent_id, []).append(span)
        else:
            roots.append(span)
    lines: list = []

    def walk(span: Span, depth: int) -> None:
        ms = span.duration_s * 1000.0
        attrs = " ".join(f"{k}={v}" for k, v in sorted(span.attrs.items()))
        tag = "" if span.origin == "client" else f" [{span.origin}]"
        lines.append(
            "  " * depth
            + f"- {span.name}{tag} ({ms:.2f} ms)"
            + (f" {attrs}" if attrs else "")
        )
        for child in children.get(span.span_id, ()):
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return "\n".join(lines)
