"""Resource-usage policies the router enforces (paper §4.3).

The spec "can also include a resource usage policy and a scheduling
configuration"; at the transport layer the router enforces command-rate
limits per VM, and the schedulers consume per-VM weights from the same
policy object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import ClassVar, Dict, Mapping, Optional

#: QoS classes, as a weight multiplier folded into the fair-share
#: weight.  The class also steers pool placement (see
#: :mod:`repro.hypervisor.pool`): ``realtime`` tenants tie-break toward
#: the fastest device class, ``best-effort`` toward the slowest.
QOS_CLASSES: Dict[str, float] = {
    "realtime": 4.0,
    "standard": 1.0,
    "best-effort": 0.25,
}


@dataclass(frozen=True)
class VMPolicy:
    """Per-VM resource limits and scheduling weight.

    Immutable: the router plans each VM from its policy when the policy
    is installed, so a change is a new policy given to
    :meth:`ResourcePolicy.set_policy` (``dataclasses.replace`` builds
    one), never an edit in place.
    """

    #: sustained forwarded-command rate, commands per virtual second
    #: (None = unlimited)
    command_rate: Optional[float] = None
    #: burst allowance for the rate limiter, commands
    command_burst: int = 32
    #: fair-share weight for device-time scheduling
    weight: float = 1.0
    #: QoS class (one of :data:`QOS_CLASSES`); multiplies ``weight``
    #: for scheduling and steers placement across a device pool
    qos: str = "standard"
    #: device-memory allowance, bytes (None = unlimited)
    memory_bytes: Optional[int] = None
    #: per-resource cumulative allowances, keyed by the resource names
    #: the spec's `consumes` annotations declare (e.g. "bus_bytes",
    #: "device_memory", "kernel_launches"); the router rejects commands
    #: that would exceed one (§4.3's administration interface)
    resource_limits: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.command_rate is not None and not self.command_rate > 0:
            raise ValueError(
                f"command_rate must be positive, got {self.command_rate!r}")
        if self.qos not in QOS_CLASSES:
            raise ValueError(
                f"unknown QoS class {self.qos!r}; "
                f"choose from {sorted(QOS_CLASSES)}"
            )
        object.__setattr__(self, "resource_limits",
                           MappingProxyType(dict(self.resource_limits)))


@dataclass(frozen=True)
class ResourcePolicy:
    """Policy set for all VMs, with a default for unlisted ones.

    Frozen, with ``per_vm`` a read-only view: the router plans each VM
    from its policy when the policy is installed, so :meth:`set_policy`
    is the one writer, and an edit that bypassed it would go unplanned.
    """

    default: VMPolicy = field(default_factory=VMPolicy)
    per_vm: Mapping[str, VMPolicy] = field(default_factory=dict)
    #: version counter bumped by every :meth:`set_policy` (on any
    #: instance): a router's per-VM plans are rebuilt when it moves
    version: ClassVar[int] = 0

    def __post_init__(self) -> None:
        # the one mutable dict behind the view, written by set_policy
        object.__setattr__(self, "_per_vm", dict(self.per_vm))
        object.__setattr__(self, "per_vm", MappingProxyType(self._per_vm))

    def policy_for(self, vm_id: str) -> VMPolicy:
        return self.per_vm.get(vm_id, self.default)

    def set_policy(self, vm_id: str, policy: VMPolicy) -> None:
        self._per_vm[vm_id] = policy
        ResourcePolicy.version += 1

    def effective_weight(self, vm_id: str) -> float:
        """The VM's scheduling weight with its QoS multiplier applied."""
        vm_policy = self.policy_for(vm_id)
        return vm_policy.weight * QOS_CLASSES[vm_policy.qos]


class TokenBucket:
    """One VM's command-rate token bucket in virtual time: tokens accrue
    at ``command_rate`` per virtual second up to ``command_burst``, and a
    command with no token is *delayed* until one lands, never dropped
    (the paper's baseline "command rate-limiting", even for un-refined
    specs)."""

    __slots__ = ("tokens", "last")

    def __init__(self) -> None:
        #: tokens left after the last command; None is a full bucket
        self.tokens: Optional[float] = None
        #: virtual time the tokens were last counted at
        self.last = 0.0

    def next_allowed(self, vm_policy: VMPolicy, arrival: float) -> float:
        """Release time for a command arriving at ``arrival`` under
        ``vm_policy`` (which has a command rate).  Always ≥ arrival."""
        rate = vm_policy.command_rate
        burst = float(max(1, vm_policy.command_burst))
        tokens = burst if self.tokens is None else self.tokens
        last = self.last
        if arrival > last:
            tokens = min(burst, tokens + (arrival - last) * rate)
            last = arrival
        if tokens >= 1.0:
            self.tokens = tokens - 1.0
            self.last = last
            return arrival
        # wait for the fractional remainder of one token
        self.tokens = 0.0
        self.last = last + (1.0 - tokens) / rate
        return self.last


class RateLimiter:
    """Per-VM token buckets under a :class:`ResourcePolicy`,
    for schedulers that keep no per-VM record of their own."""

    def __init__(self, policy: ResourcePolicy) -> None:
        self.policy = policy
        self._buckets: Dict[str, TokenBucket] = {}

    def next_allowed(self, vm_id: str, arrival: float) -> float:
        """Release time for a command from ``vm_id`` arriving at
        ``arrival``.  Always ≥ arrival."""
        vm_policy = self.policy.policy_for(vm_id)
        if vm_policy.command_rate is None:
            return arrival
        bucket = self._buckets.get(vm_id)
        if bucket is None:
            bucket = self._buckets[vm_id] = TokenBucket()
        return bucket.next_allowed(vm_policy, arrival)
