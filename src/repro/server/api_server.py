"""Per-VM API server workers.

A worker owns everything one guest's forwarded calls may touch: its
handle table, its virtual clock (the "API server process"), its native
session binding, and its migration recorder.  A fault inside one
worker's dispatch is caught and returned as an error reply — other VMs'
workers never observe it (the isolation property §4.1 requires from
process-level separation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, ContextManager, Dict, List, Optional

from repro.migration.recorder import CallRecorder
from repro.remoting.codec import Command, Reply
from repro.remoting.handles import HandleError, HandleTable
from repro.spec.model import RecordKind
from repro.telemetry import tracer as _tele
from repro.vclock import VirtualClock


class WorkerError(Exception):
    """Worker-level dispatch failure."""


#: a generated server stub: (worker, command) -> Reply
ServerStub = Callable[["ApiServerWorker", Command], Reply]


@dataclass
class WorkerStats:
    executed: int = 0
    faults: int = 0
    busy_time: float = 0.0


class ApiServerWorker:
    """Executes forwarded commands for one VM against one native API."""

    def __init__(
        self,
        vm_id: str,
        api_name: str,
        dispatch: Dict[str, ServerStub],
        session_factory: Callable[["ApiServerWorker"], ContextManager],
        record_kinds: Optional[Dict[str, RecordKind]] = None,
        supersedes: Optional[Dict[str, Any]] = None,
        dispatch_cost: float = 0.5e-6,
        batch_dispatch_cost: float = 0.2e-6,
        clock: Optional[VirtualClock] = None,
    ) -> None:
        self.vm_id = vm_id
        self.api_name = api_name
        self.dispatch = dispatch
        self.session_factory = session_factory
        self.record_kinds = record_kinds or {}
        self.dispatch_cost = dispatch_cost
        #: per-command dispatch for commands 2..N of a coalesced frame:
        #: the frame receive and worker wakeup were already paid by the
        #: frame's first command, so only decode+dispatch remain
        self.batch_dispatch_cost = batch_dispatch_cost
        self.clock = clock or VirtualClock(f"worker-{vm_id}-{api_name}")
        self.handles = HandleTable(vm_id)
        self.recorder = CallRecorder(supersedes)
        self.stats = WorkerStats()
        #: during migration replay: param name → guest id(s) to force
        self.handle_override: Optional[Dict[str, Any]] = None
        #: poisoned workers refuse further commands (fault-injection tests)
        self.poisoned: Optional[str] = None
        #: called as ``hook(worker, command)`` before each dispatch; a
        #: fault plan's hook raises WorkerCrashed to model process death
        self.fault_hook: Optional[Callable[["ApiServerWorker", Command],
                                           None]] = None
        #: reason string once this worker process "died"
        self.crashed: Optional[str] = None
        #: pool member this worker is bound to, set by the hypervisor
        #: before the session binder runs (None = implicit singleton)
        self.pool_device: Optional[Any] = None

    # -- helpers the generated server stubs call ------------------------------

    def lookup_optional(self, guest_id: Any) -> Any:
        return self.handles.lookup_optional(guest_id)

    def lookup_list(self, guest_ids: Optional[List[int]]) -> Optional[List[Any]]:
        if guest_ids is None:
            return None
        return [self.handles.lookup(g) for g in guest_ids]

    def bind(self, param: str, obj: Any) -> int:
        """Register a freshly created host object under a guest id.

        During migration replay, ``handle_override`` forces the id the
        object had before migration so guest-held handles stay valid.
        """
        if self.handle_override and param in self.handle_override:
            forced = self.handle_override[param]
            if isinstance(forced, list):
                forced = forced.pop(0)
            forced = int(forced)
            # replayed discovery calls legitimately re-yield the same
            # host object under the same guest id (handle deduplication)
            if forced in self.handles and self.handles.lookup(forced) is obj:
                return forced
            return self.handles.allocate_as(forced, obj)
        return self.handles.allocate(obj)

    def callback_proxy(self, cb_id: Any, param: str, reply: Reply):
        """A host-side stand-in for a guest function pointer.

        Invocations are recorded into the reply and replayed by the
        guest runtime on receipt — deferred-upcall semantics (§4.2's
        callback support; faithful for notification-style callbacks).
        """
        if cb_id is None:
            return None

        def proxy(*args: Any) -> None:
            wire_args = []
            for value in args:
                if hasattr(value, "item"):
                    value = value.item()  # numpy scalar
                if value is not None and not isinstance(
                        value, (bool, int, float, str, bytes)):
                    raise WorkerError(
                        f"callback {param!r} invoked with non-scalar "
                        f"argument {type(value).__name__}"
                    )
                wire_args.append(value)
            reply.callbacks.append([int(cb_id), wire_args])

        return proxy

    def maybe_free(self, guest_id: Any) -> None:
        """Drop the table entry if the underlying object is now dead.

        Release-style calls only destroy at refcount zero, so the entry
        survives while the object does.
        """
        if not isinstance(guest_id, int) or guest_id not in self.handles:
            return
        obj = self.handles.lookup(guest_id)
        if (getattr(obj, "released", False)
                or getattr(obj, "deallocated", False)
                or getattr(obj, "removed", False)):
            self.handles.free(guest_id)

    # -- tracing hooks the generated server stubs call -------------------------

    def trace_begin(self, command: Command):
        """Open the server-stub span (named after the API function).

        Generated dispatch stubs call this before unmarshaling, so the
        host side of every call is traced generated code too; device
        spans recorded while the native call runs nest underneath.
        """
        tracer = _tele.active()
        if not tracer.enabled:
            return None
        return tracer.start_span(
            command.function, self.clock.now, layer="server", kind="op",
            vm_id=self.vm_id, api=self.api_name, function=command.function,
        )

    def trace_end(self, span, reply: Optional[Reply] = None) -> None:
        if span is None or span.finished:
            return
        attrs = {}
        if reply is not None and reply.error is not None:
            attrs["error"] = reply.error
        _tele.active().end_span(span, self.clock.now, **attrs)

    # -- execution ---------------------------------------------------------------

    def crash(self, reason: str) -> None:
        """Model this worker process dying: all device state is gone.

        The handle table is invalidated so guest-held handles into this
        worker can never resolve again, even through a stale reference.
        """
        self.crashed = reason
        self.handles.clear()

    def retire(self, reason: str) -> None:
        """Decommission this worker after its state moved elsewhere.

        Unlike :meth:`crash`, the handle table survives — a live
        migration's post-cutover invariant compares it against the
        destination's — but any stray command (a bug: the router should
        have re-bound the slot) is refused rather than served stale.
        """
        self.poisoned = reason

    def execute(self, command: Command, release_time: float,
                batched: bool = False) -> Reply:
        """Run one verified command; always returns a Reply.

        ``batched`` marks a non-first command of a coalesced frame,
        which pays :attr:`batch_dispatch_cost` instead of the full
        :attr:`dispatch_cost` (its frame was already received).
        """
        if self.crashed is not None:
            return Reply(
                seq=command.seq,
                error=f"worker: server-lost ({self.crashed})",
                complete_time=max(release_time, self.clock.now),
            )
        if self.poisoned is not None:
            return Reply(
                seq=command.seq,
                error=f"worker: poisoned ({self.poisoned})",
                complete_time=max(release_time, self.clock.now),
            )
        stub = self.dispatch.get(command.function)
        if stub is None:
            return Reply(
                seq=command.seq,
                error=f"worker: no server stub for {command.function!r}",
                complete_time=max(release_time, self.clock.now),
            )
        self.clock.advance_to(release_time, "idle")
        if self.fault_hook is not None:
            # may raise WorkerCrashed — deliberately outside the
            # fault-isolation try below: a process death is not an API
            # error this worker can answer; the router contains it
            self.fault_hook(self, command)
        started = self.clock.now
        tracer = _tele.active()
        tspan = None
        if tracer.enabled:
            tspan = tracer.start_span(
                "dispatch", started, layer="server", kind="op",
                parent_id=command.span_id, vm_id=self.vm_id,
                api=self.api_name, function=command.function,
                seq=command.seq,
            )
        self.clock.advance(
            self.batch_dispatch_cost if batched else self.dispatch_cost,
            "dispatch",
        )
        try:
            with self.session_factory(self):
                reply = stub(self, command)
        except HandleError as err:
            self.stats.faults += 1
            reply = Reply(seq=command.seq, error=f"worker: {err}")
        except Exception as err:  # noqa: BLE001 - fault isolation boundary
            self.stats.faults += 1
            reply = Reply(
                seq=command.seq,
                error=f"worker: {type(err).__name__}: {err}",
            )
        reply.seq = command.seq
        reply.complete_time = self.clock.now
        if tspan is not None:
            attrs = {"error": reply.error} if reply.error else {}
            tracer.end_span(tspan, self.clock.now, **attrs)
            reply.span_id = tspan.span_id
        self.stats.executed += 1
        self.stats.busy_time += self.clock.now - started
        if reply.error is None:
            kind = self.record_kinds.get(command.function)
            if kind is not None:
                self.recorder.record(command, reply, kind)
        return reply
