"""Outside-in wall-clock probes for the forwarding path.

Nothing under ``src/`` knows about this file.  The probes wrap the
calls *into* each layer's public functions — the generated guest
library, a delegating :class:`WireCodec`, ``Transport.deliver`` /
``deliver_batch``, ``Router.deliver``, ``ApiServerWorker.execute``,
the native API functions the generated dispatch calls, and
``SLOMonitor.record`` — by replacing class and module attributes from
here.  Wall timestamps on the program's own spans are a later issue.

Two probes exist and a run installs exactly one:

* :func:`install_latency_probe` — the untraced run: a
  ``perf_counter_ns`` pair around every guest-library call, nothing
  else.  End-to-end numbers come from this run only.
* :func:`install_layer_tracer` — the traced run: every boundary
  above accumulates *self* time (its span minus the spans of the
  layers it called) and an invocation count.

Self times are aggregated as they are measured instead of kept as
one record per span: the chatty workload alone would produce about
1.7 million spans, and holding them would perturb the thing being
measured (allocation, GC) far more than two integer additions do.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterable, List

from repro.faults.transport import FaultyTransport
from repro.hypervisor.router import Router
from repro.remoting.wire import WireCodec
from repro.server.api_server import ApiServerWorker
from repro.telemetry.slo import SLOMonitor
from repro.transport.base import Transport

#: keys of :attr:`LayerTracer.cells`
GUEST = "guest"
GUEST_FLUSH = "guest.flush"
TRANSPORT = "transport"
TRANSPORT_BATCH = "transport.batch"
ROUTER = "hypervisor.router"
SERVER = "server.execute"
SLO = "telemetry.slo_observe"
CODEC_OPS = ("encode_command", "decode_command",
             "encode_reply", "decode_reply")


class LayerTracer:
    """Per-layer self-time accumulators fed by wrapped boundaries.

    ``cells[key]`` is ``[self_ns, count]``.  ``root_ns`` sums the
    duration of spans that had no parent — time spent inside API
    calls, as opposed to the workload's own host code between them.
    """

    def __init__(self) -> None:
        self.cells: Dict[str, List[int]] = {}
        self.root_ns = 0
        #: one child-time accumulator per open span
        self._stack: List[int] = []

    def cell(self, key: str) -> List[int]:
        return self.cells.setdefault(key, [0, 0])

    def reset(self) -> None:
        """Zero every accumulator in place (wrappers hold the cells)."""
        for cell in self.cells.values():
            cell[0] = cell[1] = 0
        self.root_ns = 0

    def wrap(self, key: str, fn: Callable) -> Callable:
        """``fn`` with its self time and count accumulated under ``key``."""
        cell = self.cell(key)
        stack = self._stack

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack.append(0)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - start
                cell[0] += duration - stack.pop()
                cell[1] += 1
                if stack:
                    stack[-1] += duration
                else:
                    self.root_ns += duration

        return traced

    def wrap_guest(self, fn: Callable) -> Callable:
        """A guest-library function: always a root span.

        A call during which a coalesced frame crossed the channel (it
        hit a flush threshold or was a sync point) is accounted under
        :data:`GUEST_FLUSH`, so the cost of assembling and unpacking a
        batch shows apart from the cost of staging one command.
        """
        plain, flushing = self.cell(GUEST), self.cell(GUEST_FLUSH)
        batches = self.cell(TRANSPORT_BATCH)
        stack = self._stack

        def traced(*args: Any, **kwargs: Any) -> Any:
            flushed_before = batches[1]
            stack.append(0)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - start
                cell = plain if batches[1] == flushed_before else flushing
                cell[0] += duration - stack.pop()
                cell[1] += 1
                self.root_ns += duration

        return traced


class TracedCodec(WireCodec):
    """A :class:`WireCodec` that times the codec it delegates to.

    Handed to ``VirtualStack.build(codec=...)``, so the router and
    every transport marshal through it; the wire bytes are the inner
    codec's.
    """

    def __init__(self, inner: WireCodec, tracer: LayerTracer) -> None:
        self.inner = inner
        self.name = inner.name
        self.zero_copy = inner.zero_copy
        self.batch_aware = inner.batch_aware
        for op in CODEC_OPS:
            setattr(self, op, tracer.wrap(f"remoting.{op}",
                                          getattr(inner, op)))

    def decode_message(self, data: Any, reply_to: Any = None) -> Any:
        return self.inner.decode_message(data, reply_to=reply_to)


def install_latency_probe(guest_modules: Iterable[Any],
                          samples: List[int]) -> None:
    """Append the wall nanoseconds of every guest-library call."""

    def timed(fn: Callable) -> Callable:
        append = samples.append

        def probe(*args: Any, **kwargs: Any) -> Any:
            start = perf_counter_ns()
            result = fn(*args, **kwargs)
            append(perf_counter_ns() - start)
            return result

        return probe

    for module in guest_modules:
        library = module.GuestLibrary
        for name in module.FUNCTIONS:
            setattr(library, name, timed(getattr(library, name)))


def install_layer_tracer(tracer: LayerTracer,
                         stacks: Dict[str, Any],
                         native_modules: Dict[str, Any]) -> None:
    """Wrap every layer boundary of the forwarding path.

    ``stacks`` maps API name → generated stack, ``native_modules``
    API name → native API module (``repro.opencl.api``...).  The
    codec is not wrapped here: pass a :class:`TracedCodec` to
    ``VirtualStack.build``.
    """
    for api_name, stack in stacks.items():
        library = stack.guest_module.GuestLibrary
        native = native_modules[api_name]
        for name in stack.guest_module.FUNCTIONS:
            setattr(library, name,
                    tracer.wrap_guest(getattr(library, name)))
            setattr(native, name,
                    tracer.wrap(f"{api_name}.api", getattr(native, name)))
    # FaultyTransport overrides both methods and calls the router
    # itself, so each class is wrapped where it defines them
    for cls in (Transport, FaultyTransport):
        cls.deliver = tracer.wrap(TRANSPORT, cls.deliver)
        cls.deliver_batch = tracer.wrap(TRANSPORT_BATCH, cls.deliver_batch)
    Router.deliver = tracer.wrap(ROUTER, Router.deliver)
    ApiServerWorker.execute = tracer.wrap(SERVER, ApiServerWorker.execute)
    SLOMonitor.record = tracer.wrap(SLO, SLOMonitor.record)
