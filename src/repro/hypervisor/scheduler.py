"""Device-time pick policies and the per-VM outcome of a scheduled run.

AvA's router "schedules execution at function call granularity" using
resource-usage approximations from the spec (§4.3).  This module provides
three policies for choosing which VM's next command a shared device
runs:

* :class:`FifoScheduler` — arrival order (no isolation),
* :class:`RoundRobinScheduler` — alternate among VMs with ready work,
* :class:`FairShareScheduler` — weighted device-time fairness via
  virtual-time tags (start-time fair queuing at call granularity).

The discrete-event engine that evaluates them is
:class:`~repro.hypervisor.pool.PoolScheduler`; one shared device is a
one-member pool, and ``pick=`` chooses the policy.  Policies are
stateful (rotation cursor, virtual-time tags), so the engine builds a
fresh one per member per run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.hypervisor.policy import ResourcePolicy


@dataclass
class WorkItem:
    """One device command in a guest's stream."""

    duration: float
    think_time: float = 0.0

    def __post_init__(self) -> None:
        if self.duration < 0 or self.think_time < 0:
            raise ValueError("durations cannot be negative")


class Scheduler:
    """Policy interface: pick the next VM among those with ready work."""

    def pick(self, ready: Sequence[str], usage: Dict[str, float]) -> str:
        raise NotImplementedError

    def weight_of(self, vm_id: str) -> float:
        return 1.0


class FifoScheduler(Scheduler):
    """No policy: whichever ready VM queued first (alphabetical tiebreak
    on equal readiness — the engine passes streams in readiness order)."""

    def pick(self, ready: Sequence[str], usage: Dict[str, float]) -> str:
        return ready[0]


class RoundRobinScheduler(Scheduler):
    """Cycle through VMs with ready work."""

    def __init__(self) -> None:
        self._last: Optional[str] = None

    def pick(self, ready: Sequence[str], usage: Dict[str, float]) -> str:
        ordered = sorted(ready)
        if self._last is None:
            choice = ordered[0]
        else:
            after = [vm for vm in ordered if vm > self._last]
            choice = after[0] if after else ordered[0]
        self._last = choice
        return choice


class FairShareScheduler(Scheduler):
    """Weighted fair sharing of device time (start-time fair queuing).

    Each VM carries a virtual-time tag: accumulated device time divided
    by its weight.  The scheduler always runs the ready VM with the
    smallest tag, so over any interval in which VMs stay busy their
    device time converges to the weight ratio.

    Tags are tracked internally rather than recomputed from raw usage:
    a VM that becomes ready late (or re-enters after idling) would carry
    ``usage ≈ 0`` and monopolize the device until it "caught up" with
    incumbents.  The classic SFQ re-entry rule applies instead — a VM
    (re-)entering the ready set has its tag clamped up to the minimum
    tag among already-ready VMs, so idle time earns no credit and a
    late joiner competes only for its weighted share going forward.
    """

    def __init__(self, policy: Optional[ResourcePolicy] = None) -> None:
        self.policy = policy or ResourcePolicy()
        #: per-VM virtual-time tags (weighted accumulated device time,
        #: plus any re-entry clamps)
        self._tags: Dict[str, float] = {}
        #: usage last observed per VM, to convert usage into tag deltas
        self._seen_usage: Dict[str, float] = {}
        #: the ready set at the previous pick (re-entry detection)
        self._prev_ready: frozenset = frozenset()

    def weight_of(self, vm_id: str) -> float:
        weight = self.policy.effective_weight(vm_id)
        if weight <= 0:
            raise ValueError(f"weight for {vm_id!r} must be positive")
        return weight

    def pick(self, ready: Sequence[str], usage: Dict[str, float]) -> str:
        ordered = sorted(ready)
        # fold device time accrued since the last pick into the tags
        for vm in ordered:
            used = usage.get(vm, 0.0)
            if vm in self._tags:
                delta = used - self._seen_usage.get(vm, 0.0)
                if delta > 0:
                    self._tags[vm] += delta / self.weight_of(vm)
            self._seen_usage[vm] = used
        # SFQ re-entry rule: the floor is the smallest tag among VMs
        # that were already ready (falling back to the smallest existing
        # tag when the whole ready set re-enters at once)
        incumbents = [self._tags[vm] for vm in ordered
                      if vm in self._tags and vm in self._prev_ready]
        if not incumbents:
            incumbents = [self._tags[vm] for vm in ordered
                          if vm in self._tags]
        floor = min(incumbents) if incumbents else 0.0
        for vm in ordered:
            if vm not in self._tags:
                self._tags[vm] = floor
            elif vm not in self._prev_ready:
                self._tags[vm] = max(self._tags[vm], floor)
        self._prev_ready = frozenset(ordered)
        return min(ordered, key=lambda vm: (self._tags[vm], vm))


@dataclass
class StreamStats:
    """Per-VM outcome of a scheduled run."""

    vm_id: str
    completed: int = 0
    device_time: float = 0.0
    finish_time: float = 0.0
    #: total wait (submission → start) = queue wait + throttle wait
    total_wait: float = 0.0
    #: wait spent queued behind other VMs' work (throttle excluded)
    total_queue_wait: float = 0.0
    #: wait injected by the admission rate limiter (token bucket)
    total_throttle_wait: float = 0.0
    #: completion timestamps (for throughput-over-time analysis)
    completions: List[float] = field(default_factory=list)
    #: per-item total waits (submission → start, throttle included)
    waits: List[float] = field(default_factory=list)
    #: per-item queueing waits (rate-limiter release → start)
    queue_waits: List[float] = field(default_factory=list)

    @property
    def max_wait(self) -> float:
        return max(self.waits) if self.waits else 0.0


def jain_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly fair, 1/n = maximally unfair."""
    values = [v for v in values]
    if not values or all(v == 0 for v in values):
        return 1.0
    total = sum(values)
    squares = sum(v * v for v in values)
    return (total * total) / (len(values) * squares)
