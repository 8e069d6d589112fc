"""Heterogeneous device pools and pool-aware scheduling.

The router so far fronted exactly one simulated device, so "scheduling
execution at function call granularity" (paper §4.3) never faced a
*placement* decision.  This module makes placement a first-class router
concern:

* :class:`DeviceClass` — a relative performance model (compute speed,
  transfer bandwidth, memory capacity) so a "big GPU / small GPU / NCS /
  QAT" mix is expressible in one currency,
* :class:`PooledDevice` / :class:`DevicePool` — pool membership,
  capacity-aware least-loaded placement with QoS steering, and lazy
  construction of the *native* simulated devices workers bind to,
* :class:`PoolScheduler` — the repository's one discrete-event device
  engine: a pluggable pick policy *within* each device (weighted fair
  share by default), least-loaded placement plus work stealing *across*
  devices, per-tenant device-time quotas, and both closed-loop (think
  time) and open-loop (arrival timestamps) traffic.  One shared device
  is a one-member pool.

Costs are expressed in **nominal seconds** — the wall time an item would
take on the baseline device (the GTX 1080 of the figure-5 experiments).
A device with ``compute_scale`` 2.0 executes a 1 s nominal kernel in
0.5 s of wall time.  Fairness is measured in nominal service, which is
the only currency comparable across a heterogeneous pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.hypervisor.policy import RateLimiter, ResourcePolicy
from repro.hypervisor.scheduler import (
    FairShareScheduler,
    Scheduler,
    StreamStats,
    WorkItem,
)
from repro.analysis import sanitizer as _sanitize
from repro.telemetry import tracer as _tele

#: baseline host↔device bandwidth used to convert transfer bytes into
#: nominal seconds (PCIe 3 x16, matching the default DeviceSpec)
BASELINE_TRANSFER_BPS = 12e9

#: quota key in ``VMPolicy.resource_limits``: cumulative nominal device
#: seconds a tenant may consume in one pool run
DEVICE_TIME_QUOTA = "device_time"


class PoolCapacityError(RuntimeError):
    """No pool member can satisfy a placement request."""


@dataclass(frozen=True)
class DeviceClass:
    """Relative performance model of one kind of pool member.

    Scales are relative to the baseline simulated GTX 1080: a class with
    ``compute_scale == 1.0`` and ``transfer_scale == 1.0`` *is* the
    baseline device, and its native spec is bit-identical to the
    implicit singleton the stack used before pools existed.
    """

    name: str
    #: kernel/compute throughput relative to the baseline GPU
    compute_scale: float = 1.0
    #: host↔device transfer bandwidth relative to the baseline GPU
    transfer_scale: float = 1.0
    #: device memory capacity, bytes
    memory_bytes: int = 8 * 1024**3

    def __post_init__(self) -> None:
        if self.compute_scale <= 0 or self.transfer_scale <= 0:
            raise ValueError("device scales must be positive")
        if self.memory_bytes <= 0:
            raise ValueError("memory_bytes must be positive")

    # -- presets -----------------------------------------------------------

    @classmethod
    def baseline_gpu(cls) -> "DeviceClass":
        """The figure-5 GTX 1080; a 1-device pool of these reproduces the
        single-device results bit-identically."""
        return cls(name="gtx1080")

    @classmethod
    def big_gpu(cls) -> "DeviceClass":
        return cls(name="big-gpu", compute_scale=2.0, transfer_scale=2.0,
                   memory_bytes=16 * 1024**3)

    @classmethod
    def small_gpu(cls) -> "DeviceClass":
        return cls(name="small-gpu", compute_scale=0.25,
                   transfer_scale=0.5, memory_bytes=2 * 1024**3)

    @classmethod
    def ncs(cls) -> "DeviceClass":
        """Movidius stick: tiny compute, USB-class transfer."""
        return cls(name="ncs", compute_scale=0.05, transfer_scale=0.03,
                   memory_bytes=320 * 1024 * 1024)

    @classmethod
    def qat(cls) -> "DeviceClass":
        """QuickAssist engine: fixed-function, modest throughput."""
        return cls(name="qat", compute_scale=0.4, transfer_scale=0.5,
                   memory_bytes=512 * 1024 * 1024)

    # -- native spec builders (lazy imports: no cycles) --------------------

    def gpu_spec(self):
        """An OpenCL :class:`~repro.opencl.device.DeviceSpec` for this
        class.  The baseline class returns the *default* spec object so
        single-device pools stay bit-identical with the pre-pool stack."""
        from repro.opencl.device import DeviceSpec

        base = DeviceSpec()
        if (self.compute_scale == 1.0 and self.transfer_scale == 1.0
                and self.memory_bytes == base.global_mem_bytes):
            return base
        return DeviceSpec(
            name=f"{base.name} ({self.name})",
            flops=base.flops * self.compute_scale,
            mem_bandwidth=base.mem_bandwidth * self.compute_scale,
            pcie_bandwidth=base.pcie_bandwidth * self.transfer_scale,
            global_mem_bytes=self.memory_bytes,
        )

    def ncs_spec(self):
        from repro.mvnc.device import NCSDeviceSpec

        base = NCSDeviceSpec()
        if self.compute_scale == 1.0 and self.transfer_scale == 1.0:
            return base
        return NCSDeviceSpec(
            name=f"{base.name} ({self.name})",
            flops=base.flops * self.compute_scale,
            usb_bandwidth=base.usb_bandwidth * self.transfer_scale,
        )

    def qat_spec(self):
        from repro.qat.device import QATDeviceSpec

        base = QATDeviceSpec()
        if self.compute_scale == 1.0:
            return base
        return QATDeviceSpec(
            name=f"{base.name} ({self.name})",
            compress_bps=base.compress_bps * self.compute_scale,
            decompress_bps=base.decompress_bps * self.compute_scale,
        )


@dataclass
class PoolWorkItem(WorkItem):
    """A :class:`WorkItem` with an explicit transfer component, so
    heterogeneous transfer bandwidth matters to placement."""

    transfer_bytes: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.transfer_bytes < 0:
            raise ValueError("transfer_bytes cannot be negative")


def nominal_cost(item: WorkItem) -> float:
    """The item's wall time on the baseline device, seconds."""
    transfer = getattr(item, "transfer_bytes", 0.0)
    return item.duration + transfer / BASELINE_TRANSFER_BPS


class PooledDevice:
    """One member of a :class:`DevicePool`."""

    def __init__(self, device_id: str, device_class: DeviceClass) -> None:
        self.device_id = device_id
        self.device_class = device_class
        #: VMs currently homed here
        self.resident: Dict[str, float] = {}  # vm_id -> reserved bytes
        #: native simulated devices, built lazily, one per API — all
        #: workers co-placed on this member share these timelines
        self._native: Dict[str, object] = {}

    # -- capacity ----------------------------------------------------------

    @property
    def reserved_bytes(self) -> float:
        return sum(self.resident.values())

    def fits(self, reservation: float) -> bool:
        return (self.reserved_bytes + reservation
                <= self.device_class.memory_bytes)

    # -- timing ------------------------------------------------------------

    def wall_time(self, item: WorkItem) -> float:
        """Wall-clock occupancy of ``item`` on this member."""
        cls = self.device_class
        transfer = getattr(item, "transfer_bytes", 0.0)
        return (item.duration / cls.compute_scale
                + transfer / (BASELINE_TRANSFER_BPS * cls.transfer_scale))

    # -- native binding ----------------------------------------------------

    def native_device(self, api: str):
        """The native simulated device for ``api``, shared by every
        worker bound to this pool member."""
        if api not in self._native:
            cls = self.device_class
            if api == "opencl":
                from repro.opencl.device import SimulatedGPU

                self._native[api] = SimulatedGPU(spec=cls.gpu_spec())
            elif api == "mvnc":
                from repro.mvnc.device import SimulatedNCS

                self._native[api] = SimulatedNCS(spec=cls.ncs_spec())
            elif api == "qat":
                from repro.qat.device import SimulatedQAT

                self._native[api] = SimulatedQAT(spec=cls.qat_spec())
            else:
                raise ValueError(f"unknown API {api!r}")
        return self._native[api]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PooledDevice({self.device_id!r}, "
                f"{self.device_class.name}, vms={len(self.resident)})")


class DevicePool:
    """A heterogeneous set of pool members with placement policy.

    Placement is least-loaded normalized by capacity: each member's
    projected load is the sum of its residents' effective weights (plus
    the candidate's) divided by ``compute_scale``, so a device twice as
    fast hosts twice the weight before it looks equally loaded.  QoS
    steers ties: ``realtime`` tenants prefer the fastest class,
    ``best-effort`` the slowest.
    """

    def __init__(self, policy: Optional[ResourcePolicy] = None) -> None:
        self.policy = policy or ResourcePolicy()
        self.devices: List[PooledDevice] = []
        #: vm_id -> PooledDevice home
        self.assignments: Dict[str, PooledDevice] = {}

    @classmethod
    def from_classes(
        cls,
        classes: Sequence[DeviceClass],
        policy: Optional[ResourcePolicy] = None,
    ) -> "DevicePool":
        pool = cls(policy)
        for device_class in classes:
            pool.add(device_class)
        return pool

    def add(self, device_class: DeviceClass,
            device_id: Optional[str] = None) -> PooledDevice:
        if device_id is None:
            device_id = f"dev{len(self.devices)}-{device_class.name}"
        if any(d.device_id == device_id for d in self.devices):
            raise ValueError(f"duplicate device id {device_id!r}")
        device = PooledDevice(device_id, device_class)
        self.devices.append(device)
        return device

    @property
    def total_capacity(self) -> float:
        return sum(d.device_class.compute_scale for d in self.devices)

    def device_by_id(self, device_id: str) -> PooledDevice:
        for device in self.devices:
            if device.device_id == device_id:
                return device
        raise KeyError(device_id)

    # -- placement ---------------------------------------------------------

    def _reservation(self, vm_id: str) -> float:
        memory = self.policy.policy_for(vm_id).memory_bytes
        return float(memory) if memory is not None else 0.0

    def place(self, vm_id: str) -> PooledDevice:
        """Choose (and record) a home device for ``vm_id``."""
        if vm_id in self.assignments:
            return self.assignments[vm_id]
        if not self.devices:
            raise PoolCapacityError("pool has no devices")
        reservation = self._reservation(vm_id)
        candidates = [d for d in self.devices if d.fits(reservation)]
        if not candidates:
            raise PoolCapacityError(
                f"no device can reserve {reservation:.0f} bytes for "
                f"{vm_id!r}"
            )
        weight = self.policy.effective_weight(vm_id)
        qos = self.policy.policy_for(vm_id).qos
        # QoS steering on ties: realtime → fastest, best-effort → slowest
        steer = {"realtime": -1.0, "standard": 0.0, "best-effort": 1.0}[qos]

        def key(device: PooledDevice) -> Tuple[float, float, str]:
            scale = device.device_class.compute_scale
            resident_weight = sum(
                self.policy.effective_weight(vm) for vm in device.resident
            )
            projected = (resident_weight + weight) / scale
            return (projected, steer * scale, device.device_id)

        chosen = min(candidates, key=key)
        chosen.resident[vm_id] = reservation
        self.assignments[vm_id] = chosen
        return chosen

    def migrate(self, vm_id: str, target: PooledDevice) -> None:
        """Re-home ``vm_id`` onto ``target`` (work stealing)."""
        current = self.assignments.get(vm_id)
        reservation = self._reservation(vm_id)
        if not target.fits(reservation):
            raise PoolCapacityError(
                f"{target.device_id} cannot fit {vm_id!r}"
            )
        if current is not None:
            current.resident.pop(vm_id, None)
        target.resident[vm_id] = reservation
        self.assignments[vm_id] = target

    def release(self, vm_id: str) -> None:
        device = self.assignments.pop(vm_id, None)
        if device is not None:
            device.resident.pop(vm_id, None)


@dataclass
class DeviceStats:
    """Per-device outcome of a pool run."""

    device_id: str
    device_class: str
    compute_scale: float
    #: wall-clock busy time on this member
    busy_time: float = 0.0
    #: nominal (baseline-device) service delivered
    nominal_time: float = 0.0
    completed: int = 0
    finish_time: float = 0.0
    #: nominal service per VM that ran here
    vm_nominal: Dict[str, float] = field(default_factory=dict)

    def utilization(self, horizon: float) -> float:
        return self.busy_time / horizon if horizon > 0 else 0.0


@dataclass
class PoolRunResult:
    """Outcome of one :meth:`PoolScheduler.run`."""

    vm_stats: Dict[str, StreamStats]
    device_stats: Dict[str, DeviceStats]
    #: vm -> device_id at end of run (after any stealing)
    placements: Dict[str, str]
    #: per-VM (completion_time, nominal_cost) pairs, for windowed shares
    vm_items: Dict[str, List[Tuple[float, float]]]
    #: items dropped by per-tenant device-time quotas
    quota_dropped: Dict[str, int]
    steals: int
    makespan: float

    def weighted_shares(
        self,
        policy: ResourcePolicy,
        horizon: Optional[float] = None,
    ) -> Dict[str, float]:
        """Nominal service per effective weight, per VM, up to
        ``horizon`` (default: the whole run).  The input to Jain's
        index for the pool fairness gates."""
        shares: Dict[str, float] = {}
        for vm, items in self.vm_items.items():
            if horizon is None:
                total = sum(cost for _, cost in items)
            else:
                total = sum(cost for t, cost in items if t <= horizon)
            shares[vm] = total / policy.effective_weight(vm)
        return shares

    @property
    def total_nominal(self) -> float:
        return sum(d.nominal_time for d in self.device_stats.values())

    @property
    def aggregate_throughput(self) -> float:
        """Nominal seconds of service delivered per wall second."""
        return self.total_nominal / self.makespan if self.makespan else 0.0


class PoolScheduler:
    """Discrete-event engine over a :class:`DevicePool`.

    Each member is non-preemptive (AvA schedules at call granularity —
    it cannot preempt a running kernel).  Within a member, ``pick``
    chooses among the homed VMs with ready work: a :class:`Scheduler`
    class or zero-argument factory, built fresh per member per run;
    the default is weighted start-time fair queuing
    (:class:`FairShareScheduler` over the pool's ``ResourcePolicy``).
    Across devices: VMs are homed by :meth:`DevicePool.place`; when the
    idlest member would otherwise sit idle while another member is
    backlogged, it *steals* one queued item from the VM whose
    completion improves most — the VM's home is untouched, and the
    stolen service still counts against its home fair share.
    Per-tenant ``device_time`` quotas drop work beyond the allowance
    instead of queueing it.  An optional router rate limiter delays
    each item's release at submission.
    """

    def __init__(
        self,
        pool: DevicePool,
        rate_limiter: Optional[RateLimiter] = None,
        allow_stealing: bool = True,
        pick: Optional[Callable[[], Scheduler]] = None,
    ) -> None:
        self.pool = pool
        self.policy = pool.policy
        self.rate_limiter = rate_limiter
        self.allow_stealing = allow_stealing
        self.pick = pick or (lambda: FairShareScheduler(self.policy))

    def run(
        self,
        streams: Dict[str, List[WorkItem]],
        arrivals: Optional[Dict[str, Sequence[float]]] = None,
    ) -> PoolRunResult:
        """Run ``streams`` over the pool.

        ``arrivals`` switches a VM to open-loop traffic: item *i*
        submits at ``arrivals[vm][i]`` regardless of when item *i-1*
        completed (think times are ignored for such VMs).  Closed-loop
        VMs chain the next submission ``think_time`` after completion.
        """
        if not streams:
            raise ValueError("no streams to schedule")
        if not self.pool.devices:
            raise PoolCapacityError("pool has no devices")
        arrivals = arrivals or {}
        for vm, times in arrivals.items():
            if len(times) < len(streams.get(vm, ())):
                raise ValueError(
                    f"arrivals for {vm!r} shorter than its stream"
                )

        # home every VM (deterministic order) and build per-device state
        for vm in sorted(streams):
            self.pool.place(vm)
        home: Dict[str, PooledDevice] = {
            vm: self.pool.assignments[vm] for vm in streams
        }
        free_at: Dict[str, float] = {
            d.device_id: 0.0 for d in self.pool.devices
        }
        schedulers: Dict[str, Scheduler] = {
            d.device_id: self.pick() for d in self.pool.devices
        }
        usage: Dict[str, Dict[str, float]] = {
            d.device_id: {} for d in self.pool.devices
        }

        stats = {vm: StreamStats(vm_id=vm) for vm in streams}
        device_stats = {
            d.device_id: DeviceStats(
                device_id=d.device_id,
                device_class=d.device_class.name,
                compute_scale=d.device_class.compute_scale,
            )
            for d in self.pool.devices
        }
        vm_items: Dict[str, List[Tuple[float, float]]] = {
            vm: [] for vm in streams
        }
        quota_dropped = {vm: 0 for vm in streams}
        total_nominal = {vm: 0.0 for vm in streams}
        index = {vm: 0 for vm in streams}
        next_submit = {vm: 0.0 for vm in streams}
        for vm, times in arrivals.items():
            if vm in next_submit and len(times):
                next_submit[vm] = times[0]
        release_cache: Dict[str, Optional[float]] = {
            vm: None for vm in streams
        }
        steals = 0
        makespan = 0.0

        def remaining(vm: str) -> bool:
            return index[vm] < len(streams[vm])

        def quota_of(vm: str) -> Optional[float]:
            limits = self.policy.policy_for(vm).resource_limits
            return limits.get(DEVICE_TIME_QUOTA)

        while True:
            # per-tenant quota: drop (don't queue) work beyond the
            # device-time allowance
            for vm in streams:
                if not remaining(vm):
                    continue
                quota = quota_of(vm)
                if quota is None:
                    continue
                item = streams[vm][index[vm]]
                if total_nominal[vm] + nominal_cost(item) > quota:
                    quota_dropped[vm] += len(streams[vm]) - index[vm]
                    index[vm] = len(streams[vm])
                    release_cache[vm] = None

            pending = [vm for vm in streams if remaining(vm)]
            if not pending:
                break

            release: Dict[str, float] = {}
            for vm in pending:
                if release_cache[vm] is None:
                    submit = next_submit[vm]
                    if self.rate_limiter is not None:
                        submit = self.rate_limiter.next_allowed(vm, submit)
                    release_cache[vm] = submit
                release[vm] = release_cache[vm]

            # -- natural dispatch: the member that can start earliest
            # among its *homed* pending VMs
            chosen_device: Optional[PooledDevice] = None
            chosen_time = float("inf")
            for device in self.pool.devices:
                vms = [vm for vm in pending if home[vm] is device]
                if not vms:
                    continue
                start = max(
                    free_at[device.device_id],
                    min(release[vm] for vm in vms),
                )
                if (start < chosen_time
                        or (start == chosen_time and chosen_device is not None
                            and device.device_id
                            < chosen_device.device_id)):
                    chosen_time = start
                    chosen_device = device
            assert chosen_device is not None

            # -- work stealing: the idlest member executes a *queued*
            # VM's next item in place of its backlogged home.  The VM's
            # home placement is untouched (no thrash), and the stolen
            # service is charged to the home device's fair-share usage,
            # so within-device SFQ still converges on weighted shares of
            # the VM's total service.
            steal_vm: Optional[str] = None
            steal_start = float("inf")
            stolen = False
            if self.allow_stealing and len(self.pool.devices) > 1:
                thief = min(
                    self.pool.devices,
                    key=lambda d: (free_at[d.device_id], d.device_id),
                )
                thief_free = free_at[thief.device_id]
                own = [vm for vm in pending if home[vm] is thief]
                own_start = (max(thief_free, min(release[vm] for vm in own))
                             if own else float("inf"))
                best_gain = 0.0
                for vm in pending:
                    owner = home[vm]
                    if owner is thief:
                        continue
                    candidate_start = max(thief_free, release[vm])
                    if candidate_start >= own_start:
                        continue  # the thief has its own work by then
                    if not thief.fits(self.pool._reservation(vm)):
                        continue
                    item = streams[vm][index[vm]]
                    at_home = max(free_at[owner.device_id], release[vm])
                    # stealing must improve *completion*, not just start
                    gain = ((at_home + owner.wall_time(item))
                            - (candidate_start + thief.wall_time(item)))
                    if gain > best_gain + 1e-12 or (
                            gain == best_gain and steal_vm is not None
                            and vm < steal_vm):
                        best_gain = gain
                        steal_vm = vm
                        steal_start = candidate_start
                if steal_vm is not None and steal_start < chosen_time:
                    chosen_device = thief
                    chosen = steal_vm
                    stolen = True
                    steals += 1

            device_id = chosen_device.device_id
            if not stolen:
                ready = [
                    vm for vm in pending
                    if home[vm] is chosen_device
                    and release[vm] <= chosen_time
                ]
                ready.sort(key=lambda vm: (release[vm], vm))
                chosen = schedulers[device_id].pick(ready, usage[device_id])

            item = streams[chosen][index[chosen]]
            nominal = nominal_cost(item)
            wall = chosen_device.wall_time(item)
            start = max(free_at[device_id], release[chosen])
            end = start + wall
            free_at[device_id] = end
            makespan = max(makespan, end)
            # fair-share usage accrues on the VM's *home* device, even
            # for stolen items — the home scheduler sees total service
            home_id = home[chosen].device_id
            usage[home_id][chosen] = (
                usage[home_id].get(chosen, 0.0) + nominal
            )
            total_nominal[chosen] += nominal

            tracer = _tele.active()
            if tracer.enabled:
                policy = type(schedulers[device_id]).__name__
                if start > release[chosen]:
                    tracer.record_span(
                        "router.queue", release[chosen], start,
                        layer="router", vm_id=chosen, policy=policy,
                        device=device_id,
                    )
                tracer.record_span(
                    "device.compute", start, end, layer="device",
                    vm_id=chosen, policy=policy, op="pool",
                    device=device_id,
                )

            entry = stats[chosen]
            entry.completed += 1
            entry.device_time += nominal
            entry.finish_time = end
            queue_wait = start - release[chosen]
            throttle_wait = release[chosen] - next_submit[chosen]
            entry.total_wait += queue_wait + throttle_wait
            entry.total_queue_wait += queue_wait
            entry.total_throttle_wait += throttle_wait
            entry.waits.append(queue_wait + throttle_wait)
            entry.queue_waits.append(queue_wait)
            entry.completions.append(end)
            vm_items[chosen].append((end, nominal))

            dstats = device_stats[device_id]
            dstats.busy_time += wall
            dstats.nominal_time += nominal
            dstats.completed += 1
            dstats.finish_time = end
            dstats.vm_nominal[chosen] = (
                dstats.vm_nominal.get(chosen, 0.0) + nominal
            )

            index[chosen] += 1
            if chosen in arrivals:
                if remaining(chosen):
                    next_submit[chosen] = arrivals[chosen][index[chosen]]
            else:
                next_submit[chosen] = end + item.think_time
            release_cache[chosen] = None

        san = _sanitize.active()
        if san.enabled:
            # conservation: nominal device time billed to VMs must equal
            # nominal device time the devices account — work is neither
            # invented nor lost by placement or stealing
            san.check_pool_conservation(
                sum(entry.device_time for entry in stats.values()),
                sum(dstats.nominal_time
                    for dstats in device_stats.values()),
            )

        return PoolRunResult(
            vm_stats=stats,
            device_stats=device_stats,
            placements={
                vm: home[vm].device_id for vm in streams
            },
            vm_items=vm_items,
            quota_dropped=quota_dropped,
            steals=steals,
            makespan=makespan,
        )


# ---------------------------------------------------------------------------
# elastic rebalancing: utilization-driven live migration across members
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RebalancePolicy:
    """When a utilization imbalance is worth a live migration."""

    #: hot-minus-cold utilization gap that triggers a move
    min_spread: float = 0.15
    #: never migrate off a member cooler than this (absolute floor —
    #: rebalancing an idle pool just churns)
    min_hot_utilization: float = 0.3

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_spread <= 1.0:
            raise ValueError("min_spread must be within [0, 1]")
        if not 0.0 <= self.min_hot_utilization <= 1.0:
            raise ValueError("min_hot_utilization must be within [0, 1]")


class PoolRebalancer:
    """Moves tenants off hot pool members with live migration.

    Reads per-member utilization from the pool's native devices, and
    when the pool's utilization spread exceeds
    :attr:`RebalancePolicy.min_spread`, picks the hot member's busiest
    resident VM and live-migrates every one of its workers to the
    coolest member that fits it.  The move itself is the
    pre-copy/cutover protocol of :mod:`repro.migration.live` — the
    victim keeps serving on the hot member until its cutover windows.
    """

    def __init__(self, hypervisor: Any,
                 policy: Optional[RebalancePolicy] = None,
                 migration_policy: Any = None) -> None:
        if hypervisor.pool is None:
            raise PoolCapacityError(
                "rebalancing requires a device pool")
        self.hv = hypervisor
        self.policy = policy or RebalancePolicy()
        self.migration_policy = migration_policy
        #: completed migration reports, in the order moves were made
        self.moves: List[Any] = []

    # -- observation -------------------------------------------------------

    def utilizations(self) -> Dict[str, float]:
        """Per-member utilization: busy time summed over the member's
        native devices, over the latest of their timelines."""
        utils = {}
        for member in self.hv.pool.devices:
            natives = member._native.values()
            busy = sum(float(getattr(n, "busy_time", 0.0)) for n in natives)
            horizon = max((float(getattr(n, "timeline", 0.0))
                           for n in natives), default=0.0)
            utils[member.device_id] = busy / horizon if horizon else 0.0
        return utils

    def utilization_spread(self) -> float:
        """Hottest-minus-coolest member utilization, [0, 1]."""
        utils = self.utilizations()
        if len(utils) < 2:
            return 0.0
        return max(utils.values()) - min(utils.values())

    # -- decision ----------------------------------------------------------

    def pick(self) -> Optional[Tuple[str, PooledDevice, PooledDevice]]:
        """The (victim VM, hot member, cold member) of the next move,
        or ``None`` when the pool is balanced enough to leave alone."""
        utils = self.utilizations()
        if len(utils) < 2:
            return None
        pool = self.hv.pool
        hot = max(pool.devices,
                  key=lambda d: (utils[d.device_id], d.device_id))
        cold = min(pool.devices,
                   key=lambda d: (utils[d.device_id], d.device_id))
        if hot is cold:
            return None
        spread = utils[hot.device_id] - utils[cold.device_id]
        if spread < self.policy.min_spread:
            return None
        if utils[hot.device_id] < self.policy.min_hot_utilization:
            return None
        # busiest resident first: moving the tenant that causes the
        # heat shrinks the spread fastest
        def busy(vm_id: str) -> float:
            return sum(
                worker.stats.busy_time
                for (wvm, _api), worker in self.hv.workers.items()
                if wvm == vm_id
            )

        victims = sorted(hot.resident,
                         key=lambda vm: (-busy(vm), vm))
        for vm_id in victims:
            if cold.fits(pool._reservation(vm_id)):
                return vm_id, hot, cold
        return None

    # -- action ------------------------------------------------------------

    def rebalance_once(self, serve: Any = None) -> List[Any]:
        """One rebalancing step: live-migrate the chosen victim's
        workers (every API) to the cold member.  Returns the migration
        reports (empty when the pool was already balanced).

        ``serve`` is forwarded to
        :meth:`~repro.hypervisor.hypervisor.Hypervisor.live_migrate_vm`
        — traffic keeps flowing on the hot member between pre-copy
        rounds.
        """
        choice = self.pick()
        if choice is None:
            return []
        vm_id, _hot, cold = choice
        reports = []
        apis = sorted(api for (wvm, api) in self.hv.workers
                      if wvm == vm_id)
        for api_name in apis:
            report = self.hv.live_migrate_vm(
                vm_id, api_name, target_device_id=cold.device_id,
                policy=self.migration_policy, serve=serve)
            reports.append(report)
            self.moves.append(report)
        return reports
