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


class RateLimiter:
    """Token-bucket command rate limiting in virtual time.

    Tokens accrue at ``rate`` per virtual second up to ``burst``.  A
    command with no token available is *delayed*, not dropped — the
    returned release time is when the next token lands.  This matches
    the paper's description of "command rate-limiting" as the baseline
    enforcement even for un-refined specs.
    """

    def __init__(self, policy: ResourcePolicy) -> None:
        self.policy = policy
        self._tokens: Dict[str, float] = {}
        self._last_refill: Dict[str, float] = {}
        #: total virtual seconds of delay injected, per VM (metrics)
        self.delay_injected: Dict[str, float] = {}

    def next_allowed(self, vm_id: str, arrival: float) -> float:
        """Release time for a command from ``vm_id`` arriving at
        ``arrival``.  Always ≥ arrival."""
        vm_policy = self.policy.policy_for(vm_id)
        if vm_policy.command_rate is None:
            return arrival
        rate = vm_policy.command_rate
        if rate <= 0:
            raise ValueError(f"command_rate for {vm_id!r} must be positive")
        burst = max(1, vm_policy.command_burst)

        tokens = self._tokens.get(vm_id, float(burst))
        last = self._last_refill.get(vm_id, 0.0)
        if arrival > last:
            tokens = min(float(burst), tokens + (arrival - last) * rate)
            last = arrival

        if tokens >= 1.0:
            self._tokens[vm_id] = tokens - 1.0
            self._last_refill[vm_id] = last
            return arrival

        # wait for the fractional remainder of one token
        wait = (1.0 - tokens) / rate
        release = last + wait
        self._tokens[vm_id] = 0.0
        self._last_refill[vm_id] = release
        self.delay_injected[vm_id] = (
            self.delay_injected.get(vm_id, 0.0) + (release - arrival)
        )
        return release

    def forget(self, vm_id: str) -> None:
        """Drop ``vm_id``'s bucket: a recycled id starts full."""
        for table in (self._tokens, self._last_refill, self.delay_injected):
            table.pop(vm_id, None)
