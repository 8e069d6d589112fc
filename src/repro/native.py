"""The native session and simulated device under every vendor library.

Each API's native module finds its state (devices, clock, objects)
through a session on a stack: the top of the stack is what the API
functions operate on.  The native path opens the application's session;
an API server worker pushes its one persistent session around each
dispatched command -- that is how one vendor library serves many
isolated guests.  :class:`NativeSession` is that plumbing, written once;
each API's session class subclasses it with its own constants and any
extra fields.  :class:`SimulatedDevice` is the one device model (a
timeline and an owner-keyed ledger); each API's device subclasses it
with its spec and cost functions.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, Iterator, List, Optional, Sequence

from repro.remoting.buffers import OutBox
from repro.telemetry import tracer as _tele
from repro.vclock import VirtualClock


@dataclass
class DeviceTimer:
    """An executed operation's placement on the device timeline."""

    start: float
    end: float


@dataclass
class Holding:
    """What one owner holds on a device."""

    #: ledger bytes (OpenCL buffers, NCS graphs)
    nbytes: int = 0
    #: mvncOpenDevice / cpaDcStartInstance / tpuOpenDevice succeeded
    opened: bool = False
    #: open compression sessions (cpaDcInitSession)
    sessions: int = 0


#: span name of each copy-like op; every other op is ``device.compute``
_SPAN_NAMES = {"h2d_copy": "device.copy", "d2h_copy": "device.copy",
               "d2d_copy": "device.copy", "fill": "device.copy"}


class SimulatedDevice:
    """One simulated accelerator: a timeline and an owner-keyed ledger.

    The device is in-order: an op starts when both the device is free
    and the submission has arrived (``not_before``), and ``busy_time``
    sums the op costs.  The ledger counts bytes per owner (the
    :class:`NativeSession` that allocated) against the spec's capacity
    field; :meth:`release_owner` drops an owner's whole entry.
    """

    #: the spec dataclass a default device is built from
    spec_class: ClassVar[type]
    #: the spec field that caps the ledger (None: unbounded)
    memory_field: ClassVar[Optional[str]] = None

    def __init__(self, spec: Any = None, trace: bool = False) -> None:
        self.spec = spec or self.spec_class()
        self.capacity = (getattr(self.spec, self.memory_field)
                         if self.memory_field else math.inf)
        #: virtual time at which the device next becomes free
        self.timeline: float = 0.0
        #: running total of busy device time, for utilization accounting
        self.busy_time: float = 0.0
        #: per-category op counters
        self.op_counts: Dict[str, int] = {}
        #: when enabled, every executed op as (start, end, category) --
        #: the raw material for trace-driven scheduling experiments
        self.trace: Optional[list] = [] if trace else None
        #: owner -> what it holds; :meth:`release_owner` drops the entry
        self.holders: Dict[Any, Holding] = {}

    @property
    def name(self) -> str:
        return self.spec.name

    # -- timeline -----------------------------------------------------------

    def occupy(self, cost: float, not_before: float,
               category: str = "kernel") -> DeviceTimer:
        """Occupy the device for ``cost`` seconds, starting no earlier
        than ``not_before`` (the submitter's notion of now)."""
        if cost < 0:
            raise ValueError("duration cannot be negative")
        start = max(self.timeline, not_before)
        end = start + cost
        self.timeline = end
        self.busy_time += cost
        self.op_counts[category] = self.op_counts.get(category, 0) + 1
        if self.trace is not None:
            self.trace.append((start, end, category))
        tracer = _tele.active()
        if tracer.enabled:
            tracer.record_span(
                _SPAN_NAMES.get(category, "device.compute"), start, end,
                layer="device", op=category, device=self.name,
            )
        return DeviceTimer(start=start, end=end)

    def utilization(self, horizon: Optional[float] = None) -> float:
        """Busy fraction over ``horizon`` (defaults to the timeline)."""
        total = horizon if horizon is not None else self.timeline
        if total <= 0:
            return 0.0
        return min(1.0, self.busy_time / total)

    # -- owner-keyed ledger ---------------------------------------------------

    def out_of_memory(self, message: str) -> Exception:
        """The error :meth:`allocate` raises when the device is full."""
        return MemoryError(message)

    def held(self, owner: Any) -> Holding:
        """``owner``'s entry, opened empty on first use."""
        return self.holders.setdefault(owner, Holding())

    @property
    def allocated_bytes(self) -> int:
        return sum(holding.nbytes for holding in self.holders.values())

    def allocate(self, owner: Any, nbytes: int) -> None:
        if nbytes <= 0:
            raise ValueError(f"allocation of {nbytes} bytes must be positive")
        if self.allocated_bytes + nbytes > self.capacity:
            raise self.out_of_memory(
                f"device memory exhausted: {self.allocated_bytes} + "
                f"{nbytes} > {self.capacity}")
        self.held(owner).nbytes += nbytes

    def free(self, owner: Any, nbytes: int) -> None:
        holding = self.holders.get(owner)
        if holding is None or not 0 <= nbytes <= holding.nbytes:
            raise ValueError(f"owner frees {nbytes} bytes it does not hold")
        holding.nbytes -= nbytes

    def release_owner(self, owner: Any) -> None:
        """Forget everything ``owner`` holds: its bytes and open state."""
        self.holders.pop(owner, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}({self.name!r}, "
                f"t={self.timeline:.6f}, "
                f"mem={self.allocated_bytes}/{self.capacity})")


@dataclass(eq=False)
class NativeSession:
    """One caller's binding of an API to a device set and a clock.

    ``clock`` is the caller's virtual clock (the application thread on
    the native path, the API-server worker on the forwarded path); None
    opens a fresh one named ``clock_name``.  A session is its devices'
    ledger owner, compared by identity.
    """

    #: this API's session stack; every subclass writes its own
    stack: ClassVar[List["NativeSession"]]
    #: the simulated device class a session opens by default
    device: ClassVar[Any]
    #: name of a default session clock
    clock_name: ClassVar[str]
    #: fixed virtual cost of crossing into the native library
    call_overhead: ClassVar[float]

    devices: List[Any]
    clock: Optional[VirtualClock] = None

    def __post_init__(self) -> None:
        if not self.devices:
            raise ValueError(
                f"a {type(self).__name__} needs at least one device")
        if self.clock is None:
            self.clock = VirtualClock(self.clock_name)

    @classmethod
    @contextlib.contextmanager
    def opened(cls, devices: Optional[Sequence[Any]] = None,
               clock: Optional[VirtualClock] = None,
               **fields: Any) -> Iterator[Any]:
        """Open a session on top of the stack for the ``with`` block
        (closed after it); with no devices it opens one default
        :attr:`device`."""
        sess = cls(devices=list(devices) if devices else [cls.device()],
                   clock=clock, **fields)
        cls.stack.append(sess)
        try:
            yield sess
        finally:
            cls.stack.pop()
            sess.close()

    def close(self) -> None:
        """End the session: each device gives back what it holds for
        it (memory and open state), as a process exit does."""
        for device in self.devices:
            device.release_owner(self)

    @classmethod
    def current(cls) -> Any:
        """The session on top of the stack."""
        if not cls.stack:
            raise _none_open(cls)
        return cls.stack[-1]

    @classmethod
    def enter(cls) -> Any:
        """The current session, charged the cost of one native call."""
        if not cls.stack:
            raise _none_open(cls)
        sess = cls.stack[-1]
        sess.clock.advance(cls.call_overhead, "api_call")
        return sess


def _none_open(cls: type) -> RuntimeError:
    return RuntimeError(f"no {cls.__name__} open; wrap calls in "
                        f"`with {cls.__name__}.opened(...)`")


def set_box(box: Optional[OutBox], value: Any) -> None:
    """Store ``value`` in an out-parameter box the caller passed."""
    if box is not None:
        box[0] = value
