"""Per-VM API server workers.

A worker owns everything one guest's forwarded calls may touch: its
handle table, its virtual clock (the "API server process") and its
native session binding.  The migration log is not a worker's: it is on
the VM's router record.  A fault inside one worker's dispatch is caught
and returned as an error reply — other VMs' workers never observe it
(the isolation property §4.1 requires from process-level separation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.remoting.codec import Command, Reply
from repro.remoting.handles import HandleError, HandleTable
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

    #: worker seconds to receive, decode and dispatch one command
    dispatch_cost = 0.5e-6
    #: per-command dispatch for commands 2..N of a coalesced frame:
    #: the frame receive and worker wakeup were already paid by the
    #: frame's first command, so only decode+dispatch remain
    batch_dispatch_cost = 0.2e-6

    def __init__(
        self,
        vm_id: str,
        api_name: str,
        dispatch: Dict[str, ServerStub],
    ) -> None:
        self.vm_id = vm_id
        self.api_name = api_name
        self.dispatch = dispatch
        #: the worker's one persistent native session, pushed on its
        #: API's session stack around every command; set by the
        #: hypervisor from the API's session binder
        self.native_session: Any = None
        self.clock = VirtualClock(f"worker-{vm_id}-{api_name}")
        self.handles = HandleTable(vm_id)
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

    # -- execution ---------------------------------------------------------------

    def crash(self, reason: str) -> None:
        """Model this worker process dying: all device state is gone.

        The handle table is invalidated so guest-held handles into this
        worker can never resolve again, even through a stale reference,
        and the native session closes (:meth:`_exit`).
        """
        self.crashed = reason
        self.handles.clear()
        self._exit()

    def retire(self, reason: str) -> None:
        """Decommission this worker: its state moved elsewhere, or its
        VM is gone.

        Unlike :meth:`crash`, the handle table survives — a live
        migration's post-cutover invariant compares it against the
        destination's — but any stray command (a bug: the router should
        have re-bound the slot) is refused rather than served stale.
        The native session closes (:meth:`_exit`).
        """
        self.poisoned = reason
        self._exit()

    def _exit(self) -> None:
        """The process ends: its devices take back what its native
        session holds.  The one teardown for every API."""
        if self.native_session is not None:
            self.native_session.close()

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
        clock = self.clock
        clock.advance_to(release_time, "idle")
        if self.fault_hook is not None:
            # may raise WorkerCrashed — deliberately outside the
            # fault-isolation try below: a process death is not an API
            # error this worker can answer; the router contains it
            self.fault_hook(self, command)
        started = clock.now
        tracer = _tele.active()
        tspan = fspan = returned = None
        if tracer.enabled:
            tspan = tracer.start_span(
                "dispatch", started, layer="server", kind="op",
                parent_id=command.span_id, vm_id=self.vm_id,
                api=self.api_name, function=command.function,
                seq=command.seq,
            )
        dispatched = clock.advance(
            self.batch_dispatch_cost if batched else self.dispatch_cost,
            "dispatch",
        )
        if tspan is not None:
            # the server stub's span, named after the API function:
            # device spans recorded while the native call runs nest
            # underneath it
            fspan = tracer.start_span(
                command.function, dispatched, layer="server", kind="op",
                vm_id=self.vm_id, api=self.api_name,
                function=command.function,
            )
        session = self.native_session
        try:
            session.stack.append(session)
            try:
                returned = stub(self, command)
            finally:
                session.stack.pop()
            reply = returned
        except HandleError as err:
            self.stats.faults += 1
            reply = Reply(seq=command.seq, error=f"worker: {err}")
        except Exception as err:  # noqa: BLE001 - fault isolation boundary
            self.stats.faults += 1
            reply = Reply(
                seq=command.seq,
                error=f"worker: {type(err).__name__}: {err}",
            )
        now = clock.now
        if tspan is not None:
            # the stub span closes on what the stub itself answered (a
            # stub that raised answered nothing)
            tracer.end_span(fspan, now, **(
                {"error": returned.error}
                if returned is not None and returned.error is not None
                else {}))
            tracer.end_span(tspan, now, **(
                {"error": reply.error} if reply.error else {}))
            reply.span_id = tspan.span_id
        reply.seq = command.seq
        reply.complete_time = now
        self.stats.executed += 1
        self.stats.busy_time += now - started
        return reply
