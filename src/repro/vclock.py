"""Deterministic virtual time.

Every timed component in the reproduction (guest VMs, transports, the
router, the simulated accelerators) charges costs against a
:class:`VirtualClock` rather than reading the wall clock.  This keeps the
benchmark harness deterministic across machines: the remoting stack really
runs (arguments are marshaled, routed, dispatched and executed), but the
*reported* durations come from explicit cost models.

Clocks form a small tree: a :class:`VirtualClock` may have named child
accounts (e.g. ``transport``, ``device``, ``marshal``) so reports can break
a run's total down by component.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple
import contextlib


class ClockError(Exception):
    """Raised on invalid clock operations (e.g. moving time backwards)."""


class VirtualClock:
    """A monotonically advancing virtual clock with per-category accounting.

    Time is a float in virtual seconds.  ``advance`` moves the clock
    forward and attributes the elapsed interval to a category, so a
    run can later be decomposed (compute vs. transport vs. marshaling).
    """

    def __init__(self, name: str = "clock", start: float = 0.0,
                 record_events: bool = False) -> None:
        if start < 0:
            raise ClockError("clock cannot start before t=0")
        self.name = name
        self._now = float(start)
        self._accounts: Dict[str, float] = {}
        # the per-advance event log is opt-in (record_events=True or the
        # tracing() context): clocks on the hot path advance millions of
        # times, and an always-on list both costs memory and grows
        # unboundedly for long runs
        self._events: List[Tuple[float, str]] = []
        self._trace_enabled = bool(record_events)

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def advance(self, seconds: float, category: str = "other") -> float:
        """Move time forward by ``seconds``, billed to ``category``.

        Returns the new current time.  Negative durations are rejected;
        zero-length advances are permitted (and still recorded in the
        account so call counts remain inspectable).
        """
        if seconds < 0:
            raise ClockError(
                f"cannot advance clock {self.name!r} by {seconds} (< 0)"
            )
        self._now += seconds
        self._accounts[category] = self._accounts.get(category, 0.0) + seconds
        if self._trace_enabled:
            self._events.append((self._now, category))
        return self._now

    def advance_to(self, deadline: float, category: str = "wait") -> float:
        """Advance to an absolute time, if it is in the future.

        Used for synchronization: a guest waiting on a device completion
        jumps to the completion timestamp.  Advancing to a time already in
        the past is a no-op (the waiter was late, not the event).
        """
        if deadline > self._now:
            self.advance(deadline - self._now, category)
        return self._now

    def account(self, category: str) -> float:
        """Total virtual seconds billed to ``category``."""
        return self._accounts.get(category, 0.0)

    def accounts(self) -> Dict[str, float]:
        """A copy of the full category → seconds breakdown."""
        return dict(self._accounts)

    @property
    def events(self) -> List[Tuple[float, str]]:
        """The recorded (timestamp, category) events (empty unless the
        clock was built with ``record_events=True`` or advanced inside a
        ``tracing()`` context)."""
        return list(self._events)

    def clear_events(self) -> None:
        self._events.clear()

    @contextlib.contextmanager
    def tracing(self) -> Iterator[List[Tuple[float, str]]]:
        """Record (timestamp, category) events while the context is open."""
        previous = self._trace_enabled
        self._trace_enabled = True
        try:
            yield self._events
        finally:
            self._trace_enabled = previous

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock({self.name!r}, now={self._now:.6f})"


@dataclass
class CostModel:
    """Cost parameters for the remoting stack, in virtual seconds.

    The defaults are loosely calibrated to the paper's testbed scale
    (microseconds per call, GB/s-order copy bandwidth) so the Figure 5
    overhead shape falls out of workload call patterns.  All parameters
    are plain floats so experiments can sweep them.
    """

    #: fixed cost the guest pays to enter/exit a native API call
    native_call_overhead: float = 0.2e-6
    #: cost to marshal/unmarshal one call's fixed-size arguments
    marshal_call_cost: float = 0.6e-6
    #: additional marshal cost per byte of buffer payload
    marshal_byte_cost: float = 0.002e-9
    #: one-way transport latency per forwarded command
    transport_latency: float = 1.8e-6
    #: transport cost per byte of payload
    transport_byte_cost: float = 0.008e-9
    #: router interposition cost per command (policy check + schedule)
    router_cost: float = 0.4e-6
    #: server dispatch cost per command (lookup + unmarshal glue)
    dispatch_cost: float = 0.5e-6
    #: cost charged per MMIO trap under full virtualization (baseline)
    mmio_trap_cost: float = 12.0e-6
    #: number of MMIO/doorbell accesses a single API call expands to when
    #: the silo is driven through a trapping hardware interface
    mmio_traps_per_call: int = 18

    def forward_cost(self, payload_bytes: int) -> float:
        """One-way cost of forwarding a command with ``payload_bytes``."""
        if payload_bytes < 0:
            raise ValueError("payload size cannot be negative")
        return (
            self.marshal_call_cost
            + self.marshal_byte_cost * payload_bytes
            + self.transport_latency
            + self.transport_byte_cost * payload_bytes
            + self.router_cost
        )

    def return_cost(self, payload_bytes: int) -> float:
        """Cost of the reply leg (no router interposition on returns)."""
        if payload_bytes < 0:
            raise ValueError("payload size cannot be negative")
        return (
            self.marshal_call_cost
            + self.marshal_byte_cost * payload_bytes
            + self.transport_latency
            + self.transport_byte_cost * payload_bytes
        )

    def scaled(self, factor: float) -> "CostModel":
        """A copy with every remoting cost multiplied by ``factor``.

        Device costs are not part of this model, so scaling expresses
        "a faster/slower interconnect or hypervisor" in one knob.
        """
        if factor < 0:
            raise ValueError("scale factor cannot be negative")
        return CostModel(
            native_call_overhead=self.native_call_overhead,
            marshal_call_cost=self.marshal_call_cost * factor,
            marshal_byte_cost=self.marshal_byte_cost * factor,
            transport_latency=self.transport_latency * factor,
            transport_byte_cost=self.transport_byte_cost * factor,
            router_cost=self.router_cost * factor,
            dispatch_cost=self.dispatch_cost * factor,
            mmio_trap_cost=self.mmio_trap_cost,
            mmio_traps_per_call=self.mmio_traps_per_call,
        )


@dataclass
class Stopwatch:
    """Measures an interval on a virtual clock."""

    clock: VirtualClock
    started_at: float = field(default=0.0)
    running: bool = field(default=False)

    def start(self) -> "Stopwatch":
        self.started_at = self.clock.now
        self.running = True
        return self

    def elapsed(self) -> float:
        if not self.running:
            raise ClockError("stopwatch was never started")
        return self.clock.now - self.started_at


def merge_max(*clocks: VirtualClock) -> float:
    """The latest current time among ``clocks`` (barrier semantics)."""
    if not clocks:
        raise ClockError("merge_max needs at least one clock")
    return max(c.now for c in clocks)
