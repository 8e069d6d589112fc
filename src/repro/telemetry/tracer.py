"""Hierarchical spans keyed to the virtual clock.

AvA's architectural claim is *recovered interposition*: every forwarded
call crosses the hypervisor router.  The tracer makes that path visible
— each guest-stub invocation opens a ``function`` span, and every layer
it crosses (marshal, transport, router, API server, simulated device)
records child spans with virtual-time start/end and structured
attributes.  Trace context propagates the way it would in a real
deployment: the guest stamps ``(trace_id, span_id)`` into the
:class:`~repro.remoting.codec.Command` wire format and the host-side
layers parent their spans on the id they received, not on any shared
in-process state.

The default tracer is a no-op singleton (:data:`NOOP`): instrumentation
sites pay one attribute check and never touch a clock, so virtual-time
results with tracing off are bit-identical to an uninstrumented build.
Install a real :class:`Tracer` with :func:`install` or the :func:`use`
context manager.

Span taxonomy (``kind`` / typical ``name``):

* ``vm`` — one container span per guest VM,
* ``api`` — one container per (VM, API) runtime binding,
* ``function`` — one per guest-stub invocation (the per-call tree root),
* ``op`` — per-layer children: ``marshal``, ``transport.send``,
  ``router.policy``, ``router.queue``, ``dispatch``, the server stub
  (named after the API function), ``device.compute``, ``device.copy``,
  ``wait.reply``, ``transport.recv``, ``unmarshal``.

Layers: ``guest``, ``transport``, ``router``, ``server``, ``device``.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: the canonical layer ordering (Perfetto thread ids, report columns)
LAYERS = ("guest", "transport", "router", "server", "device")

#: sentinel: "parent from the tracer's current open span"
_INHERIT = object()


class TracerError(Exception):
    """Invalid tracer operation (e.g. ending a span twice)."""


@dataclass
class Span:
    """One timed interval on the virtual timeline."""

    trace_id: str
    span_id: int
    parent_id: Optional[int]
    name: str
    layer: str
    kind: str = "op"  # "vm" | "api" | "function" | "op"
    vm_id: Optional[str] = None
    api: Optional[str] = None
    function: Optional[str] = None
    start: float = 0.0
    end: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Virtual seconds covered; 0.0 while the span is still open."""
        return (self.end if self.end is not None else self.start) - self.start

    @property
    def finished(self) -> bool:
        return self.end is not None


class NoopTracer:
    """The zero-cost default: every operation is a no-op.

    ``enabled`` is False so instrumentation sites can skip argument
    construction entirely with a single attribute check.
    """

    enabled = False
    spans: Tuple[Span, ...] = ()
    trace_id = "noop"

    def start_span(self, *args: Any, **kwargs: Any) -> None:
        return None

    def end_span(self, *args: Any, **kwargs: Any) -> None:
        return None

    def record_span(self, *args: Any, **kwargs: Any) -> None:
        return None

    def current(self) -> None:
        return None

    def container(self, *args: Any, **kwargs: Any) -> None:
        return None

    def all_spans(self) -> List[Span]:
        return []


#: the process-wide no-op tracer
NOOP = NoopTracer()


class Tracer:
    """Records completed spans; maintains a stack of open ones.

    The stack gives synchronous in-process layers automatic nesting
    (a device span recorded during a server stub's execution parents to
    that stub's span); cross-"wire" layers pass ``parent_id`` explicitly
    from the propagated command ids instead.

    ``metrics`` — an optional object with an ``ingest(span)`` method
    (e.g. :class:`~repro.telemetry.metrics.MetricsRegistry`) fed every
    completed span.
    """

    enabled = True

    def __init__(self, trace_id: str = "cava", metrics: Any = None) -> None:
        self.trace_id = trace_id
        self.metrics = metrics
        #: completed spans, in completion order
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._next_id = 1
        #: (vm_id, api_or_None) → container span
        self._containers: Dict[Tuple[str, Optional[str]], Span] = {}
        #: extra consumers of completed spans (e.g. the flight recorder)
        self._sinks: List[Any] = []

    def add_sink(self, sink: Any) -> None:
        """Feed every subsequently completed span to ``sink.ingest``."""
        self._sinks.append(sink)

    # -- span lifecycle ------------------------------------------------------

    def _new_id(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def start_span(
        self,
        name: str,
        start: float,
        *,
        layer: str = "guest",
        kind: str = "op",
        vm_id: Optional[str] = None,
        api: Optional[str] = None,
        function: Optional[str] = None,
        parent_id: Any = _INHERIT,
        **attrs: Any,
    ) -> Span:
        """Open a span and push it on the stack.

        ``parent_id`` defaults to the current open span; pass an explicit
        id (or ``None`` for a root) when the parent crossed the wire.
        ``vm_id``/``api``/``function`` inherit from the enclosing open
        span when omitted.
        """
        top = self._stack[-1] if self._stack else None
        if parent_id is _INHERIT:
            parent_id = top.span_id if top is not None else None
        if top is not None:
            vm_id = vm_id if vm_id is not None else top.vm_id
            api = api if api is not None else top.api
            function = function if function is not None else top.function
        span = Span(
            trace_id=self.trace_id,
            span_id=self._new_id(),
            parent_id=parent_id,
            name=name,
            layer=layer,
            kind=kind,
            vm_id=vm_id,
            api=api,
            function=function,
            start=start,
            attrs=dict(attrs),
        )
        self._stack.append(span)
        return span

    def end_span(self, span: Optional[Span], end: float,
                 **attrs: Any) -> Optional[Span]:
        """Close ``span`` at virtual time ``end`` and record it."""
        if span is None:
            return None
        if span.finished:
            raise TracerError(f"span {span.name!r} ended twice")
        span.end = end
        if attrs:
            span.attrs.update(attrs)
        for index in range(len(self._stack) - 1, -1, -1):
            if self._stack[index] is span:
                del self._stack[index]
                break
        self.spans.append(span)
        if self.metrics is not None:
            self.metrics.ingest(span)
        for sink in self._sinks:
            sink.ingest(span)
        return span

    def record_span(
        self,
        name: str,
        start: float,
        end: float,
        *,
        layer: str = "guest",
        kind: str = "op",
        vm_id: Optional[str] = None,
        api: Optional[str] = None,
        function: Optional[str] = None,
        parent_id: Any = _INHERIT,
        **attrs: Any,
    ) -> Span:
        """Record an already-completed span (never left on the stack)."""
        span = self.start_span(
            name, start, layer=layer, kind=kind, vm_id=vm_id, api=api,
            function=function, parent_id=parent_id, **attrs,
        )
        return self.end_span(span, end)

    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    # -- vm / api containers -------------------------------------------------

    def container(self, vm_id: str, api: Optional[str] = None,
                  now: float = 0.0) -> Span:
        """The long-lived ``vm`` (and optionally ``api``) container span.

        Containers are created on first use, never pushed on the stack,
        and finalized by :meth:`all_spans` (their end is the trace
        horizon).  They give exports a stable per-VM / per-API root.
        """
        key = (vm_id, api)
        span = self._containers.get(key)
        if span is None:
            parent: Optional[Span] = None
            if api is not None:
                parent = self.container(vm_id, None, now)
            span = Span(
                trace_id=self.trace_id,
                span_id=self._new_id(),
                parent_id=parent.span_id if parent is not None else None,
                name=api if api is not None else vm_id,
                layer="guest",
                kind="api" if api is not None else "vm",
                vm_id=vm_id,
                api=api,
                start=now,
            )
            self._containers[key] = span
        return span

    # -- access --------------------------------------------------------------

    def all_spans(self) -> List[Span]:
        """Completed spans plus finalized vm/api containers."""
        horizon = max(
            (s.end for s in self.spans if s.end is not None), default=0.0
        )
        result = list(self.spans)
        for span in self._containers.values():
            if span.end is None:
                span.end = max(horizon, span.start)
            result.append(span)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Tracer({self.trace_id!r}, spans={len(self.spans)}, "
                f"open={len(self._stack)})")


# ---------------------------------------------------------------------------
# the active tracer
# ---------------------------------------------------------------------------

_active: Any = NOOP


def active() -> Any:
    """The currently installed tracer (the no-op singleton by default)."""
    return _active


def install(tracer: Any = None) -> Any:
    """Install ``tracer`` as the active tracer; returns the previous one.

    Pass ``None`` to restore the no-op default.
    """
    global _active
    previous = _active
    _active = tracer if tracer is not None else NOOP
    return previous


@contextlib.contextmanager
def use(tracer: Any) -> Iterator[Any]:
    """Install ``tracer`` for the duration of a ``with`` block."""
    previous = install(tracer)
    try:
        yield tracer
    finally:
        install(previous)
