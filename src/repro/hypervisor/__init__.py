"""The hypervisor half of AvA: VMs, the invocation router, schedulers.

API remoting traditionally bypasses the hypervisor; AvA's point (§2-§3)
is to route every forwarded call through hypervisor-managed transport so
the hypervisor regains interposition.  This package is that layer:
:class:`~repro.hypervisor.router.Router` verifies, rate-limits, accounts
and schedules every command; :class:`~repro.hypervisor.hypervisor.Hypervisor`
owns VM and API-server lifecycles; :mod:`repro.hypervisor.scheduler`
provides the device-time pick policies that
:class:`~repro.hypervisor.pool.PoolScheduler` runs for cross-VM sharing.
"""

from repro.hypervisor.policy import (
    QOS_CLASSES,
    RateLimiter,
    ResourcePolicy,
    VMPolicy,
)
from repro.hypervisor.pool import (
    DeviceClass,
    DevicePool,
    PoolScheduler,
    PoolWorkItem,
    PooledDevice,
)
from repro.hypervisor.router import Router, RoutingInfo, RoutingTable
from repro.hypervisor.scheduler import (
    FairShareScheduler,
    FifoScheduler,
    RoundRobinScheduler,
    WorkItem,
)
from repro.hypervisor.hypervisor import Hypervisor
from repro.hypervisor.vm import GuestVM

__all__ = [
    "DeviceClass",
    "DevicePool",
    "FairShareScheduler",
    "FifoScheduler",
    "GuestVM",
    "Hypervisor",
    "PoolScheduler",
    "PoolWorkItem",
    "PooledDevice",
    "QOS_CLASSES",
    "RateLimiter",
    "ResourcePolicy",
    "RoundRobinScheduler",
    "Router",
    "RoutingInfo",
    "RoutingTable",
    "VMPolicy",
    "WorkItem",
]
