"""Hypervisor: VM lifecycle, API registration, worker placement.

The hypervisor wires the pieces together: it owns the router (the
interposition point), creates guest VMs with their chosen transport,
lazily spawns one API server worker per (VM, API) pair, and migrates a
VM's worker onto a fresh one (typically bound to a different physical
device) through the one engine in :mod:`repro.migration.live`: live by
default, stop-the-world with ``MigrationPolicy(max_rounds=0)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.analysis import sanitizer as _sanitize
from repro.faults.errors import WorkerLost
from repro.faults.plan import FaultPlan
from repro.telemetry import flightrec
from repro.faults.transport import FaultyTransport
from repro.hypervisor.policy import ResourcePolicy
from repro.hypervisor.pool import DeviceClass, DevicePool, PooledDevice
from repro.hypervisor.router import Router, RoutingTable
from repro.hypervisor.vm import GuestVM
from repro.migration.replayer import MigrationReport
from repro.remoting.wire import WireCodec
from repro.remoting.xfercache import CachePolicy, TransferCache
from repro.server.api_server import ApiServerWorker
from repro.server.xferstore import TransferStore
from repro.transport.base import Transport
from repro.transport.inproc import InProcTransport
from repro.transport.network import NetworkTransport
from repro.transport.ring import RingTransport

TRANSPORTS = {
    "inproc": InProcTransport,
    "ring": RingTransport,
    "network": NetworkTransport,
}


@dataclass
class ApiRegistration:
    """Everything the hypervisor needs to serve one API."""

    name: str
    routing_table: RoutingTable
    dispatch: Dict[str, Any]
    guest_module: Any
    #: called once per new worker; returns that worker's native session
    session_binder: Callable[[ApiServerWorker], Any]


class Hypervisor:
    """The host: router + VMs + API server workers."""

    def __init__(self, codec: WireCodec,
                 policy: Optional[ResourcePolicy] = None,
                 batch_policy: Optional[Any] = None,
                 cache_policy: Optional[CachePolicy] = None) -> None:
        # arm the runtime sanitizer when the environment asks for it
        # (CAVA_SANITIZE=1); otherwise the NOOP stays installed and
        # every hook site is a single attribute check
        _sanitize.maybe_install_from_env()
        self.policy = policy or ResourcePolicy()
        #: default async-coalescing policy for new VMs (None = per-call)
        self.batch_policy = batch_policy
        #: default transfer-cache policy for new VMs (None = uncached)
        self.cache_policy = cache_policy
        #: the router holds the wire codec every channel of this
        #: hypervisor frames with, and enforces ``policy``
        self.router = Router(self._worker_for, codec, policy=self.policy,
                             on_worker_lost=self._on_worker_lost)
        self.apis: Dict[str, ApiRegistration] = {}
        self.vms: Dict[str, GuestVM] = {}
        self.workers: Dict[Tuple[str, str], ApiServerWorker] = {}
        #: active fault plan, if any (None keeps costs bit-identical)
        self.fault_plan: Optional[FaultPlan] = None
        self._fault_hook: Optional[Any] = None
        self._retry_policy: Optional[Any] = None
        #: (vm_id, api) → crash reason, until restart_worker() clears it
        self.lost_workers: Dict[Tuple[str, str], str] = {}
        #: device pool; None keeps the pre-pool implicit-singleton
        #: behaviour (binders use their configured device factories)
        self.pool: Optional[DevicePool] = None
        #: every migration this hypervisor ran (completed and aborted),
        #: in order — the admin interface reports from this
        self.migrations: list = []

    # -- configuration ---------------------------------------------------------

    def register_api(self, registration: ApiRegistration) -> None:
        self.apis[registration.name] = registration
        self.router.register_api(registration.routing_table)

    def install_fault_plan(self, plan: FaultPlan,
                           retry_policy: Optional[Any] = None) -> None:
        """Arm a fault plan across the whole stack.

        Existing and future VM channels are wrapped in a
        :class:`FaultyTransport`, workers get the plan's crash hook, and
        guests get ``retry_policy`` (defaulting to the plan's implied
        :class:`~repro.faults.plan.RetryPolicy`) for idempotent-call
        retransmission.
        """
        from repro.faults.plan import RetryPolicy

        self.fault_plan = plan
        self._fault_hook = plan.worker_hook()
        policy = retry_policy if retry_policy is not None else RetryPolicy()
        for worker in self.workers.values():
            worker.fault_hook = self._fault_hook
        for vm in self.vms.values():
            if isinstance(vm.driver.transport, FaultyTransport):
                # already wrapped by an earlier plan: re-point, never
                # wrap twice
                vm.driver.transport.plan = plan
            else:
                vm.driver.transport = FaultyTransport(
                    vm.driver.transport, plan
                )
            vm.set_retry_policy(policy)
        self._retry_policy = policy

    def add_device(self, device_class: DeviceClass,
                   device_id: Optional[str] = None) -> PooledDevice:
        """Add a pool member; the first call turns pooling on.

        Workers spawned after this bind to pool members (placement via
        :meth:`DevicePool.place`) instead of the binders' implicit
        per-worker devices.  Existing workers keep their binding.
        """
        if self.pool is None:
            self.pool = DevicePool(self.policy)
        return self.pool.add(device_class, device_id)

    def install_slo(self, monitor: Any) -> None:
        """Point the router's reply path at an SLO monitor.

        The monitor observes every routed reply (completion time, error
        flag) and evaluates burn rates on the virtual clock; breaches
        surface through :meth:`admin_report` and any callbacks the
        monitor carries.  Observation only — routing costs are
        unchanged, so runs without a monitor stay bit-identical.
        """
        self.router.slo_monitor = monitor

    def create_vm(self, vm_id: str, transport: str = "inproc",
                  batch_policy: Optional[Any] = None,
                  cache_policy: Optional[CachePolicy] = None,
                  **transport_kwargs: Any) -> GuestVM:
        if vm_id in self.vms:
            raise ValueError(f"VM {vm_id!r} already exists")
        transport_cls = TRANSPORTS.get(transport)
        if transport_cls is None:
            raise ValueError(
                f"unknown transport {transport!r}; "
                f"choose from {sorted(TRANSPORTS)}"
            )
        channel: Transport = transport_cls(self.router, **transport_kwargs)
        channel.vm_id = vm_id
        if self.fault_plan is not None:
            channel = FaultyTransport(channel, self.fault_plan)
        if batch_policy is None:
            batch_policy = self.batch_policy
        if cache_policy is None:
            cache_policy = self.cache_policy
        xfer_cache = store = None
        if cache_policy is not None:
            store = TransferStore(
                vm_id,
                capacity_bytes=cache_policy.capacity_bytes,
                capacity_entries=cache_policy.capacity_entries,
                min_bytes=cache_policy.min_bytes,
                max_entry_bytes=cache_policy.max_entry_bytes,
            )
            xfer_cache = TransferCache(
                cache_policy,
                store=store if cache_policy.shared_index else None,
            )
        vm = GuestVM(vm_id, channel, batch_policy=batch_policy,
                     xfer_cache=xfer_cache)
        if self._retry_policy is not None:
            vm.set_retry_policy(self._retry_policy)
        self.vms[vm_id] = vm
        self.router.register_vm(vm_id, store)
        for api in self.apis.values():
            vm.bind_library(api.name, api.guest_module)
        return vm

    def destroy_vm(self, vm_id: str) -> None:
        """Shut the VM down and forget it: its router record (with its
        rate bucket and migration logs), workers, lost-worker marks, SLO
        states and sanitizer dispatch orders go, so it is absent from
        :meth:`admin_report` and a recycled id starts from zero.  Its
        migrations in flight abort first and its workers retire, so
        their devices take back what they held."""
        state = self.router.vms.get(vm_id)
        if state is not None:
            for engine in list(state.migrating.values()):
                engine.abort("VM destroyed")
        vm = self.vms.pop(vm_id, None)
        if vm is not None:
            vm.shutdown()
        self.router.drop_vm(vm_id)
        if self.router.slo_monitor is not None:
            self.router.slo_monitor.forget(vm_id)
        _sanitize.active().forget(vm_id)
        for key in [k for k in self.workers if k[0] == vm_id]:
            self.workers.pop(key).retire("VM destroyed")
        for key in [k for k in self.lost_workers if k[0] == vm_id]:
            del self.lost_workers[key]
        if self.pool is not None:
            self.pool.release(vm_id)

    # -- worker placement -----------------------------------------------------

    def _worker_for(self, vm_id: str, api_name: str) -> Optional[ApiServerWorker]:
        key = (vm_id, api_name)
        if key in self.lost_workers:
            raise WorkerLost(
                f"API server for VM {vm_id!r} API {api_name!r} crashed "
                f"({self.lost_workers[key]}); awaiting restart_worker()"
            )
        worker = self.workers.get(key)
        if worker is not None:
            return worker
        registration = self.apis.get(api_name)
        if registration is None or vm_id not in self.vms:
            return None
        worker = self._spawn_worker(vm_id, registration)
        self.workers[key] = worker
        return worker

    def _on_worker_lost(self, vm_id: str, api_name: str,
                        reason: str) -> None:
        """Router notification: a worker died mid-call.  Tear it down.

        The dead worker's handle table is invalidated and further calls
        from its VM get ``server-lost`` errors until
        :meth:`restart_worker`; every other VM's worker is untouched.
        What lived in the dead process goes too (:meth:`_server_gone`).
        """
        key = (vm_id, api_name)
        worker = self.workers.pop(key, None)
        if worker is not None:
            worker.crash(reason)
        self.lost_workers[key] = reason
        recorder = flightrec.active()
        if recorder.enabled:
            recorder.incident(
                "worker-crashed",
                now=worker.clock.now if worker is not None else 0.0,
                vm_id=vm_id, api=api_name, why=reason,
            )
        self._server_gone(vm_id, api_name, f"worker lost: {reason}")

    def _server_gone(self, vm_id: str, api_name: str, why: str) -> None:
        """A (VM, API) server process ended: its migration in flight
        aborts (the destination's teardown frees the target), and the
        VM's log of the API and its transfer store start empty."""
        state = self.router.vms[vm_id]
        engine = state.migrating.get(api_name)
        if engine is not None:
            engine.abort(f"source lost ({why})")
        state.logs[api_name] = self.router.tables[api_name].new_log()
        # cached payloads lived in the dead server's address space:
        # refs into them must miss, never resolve to stale state
        if state.store is not None:
            # the guest-side cache is NOT told: its stale beliefs (in
            # local-index mode) surface as NeedBytes misses and heal
            # through retransmission, exactly like a real channel reset
            state.store.clear(why)

    def restart_worker(self, vm_id: str, api_name: str) -> ApiServerWorker:
        """Bring up a fresh worker for a crashed (VM, API) pair.

        The new worker starts with an empty handle table — guest-held
        handles into the dead process are gone, exactly as if a real API
        server process had been relaunched.
        """
        key = (vm_id, api_name)
        self.lost_workers.pop(key, None)
        registration = self.apis.get(api_name)
        if registration is None or vm_id not in self.vms:
            raise KeyError(
                f"cannot restart worker for VM {vm_id!r} API {api_name!r}"
            )
        running = self.workers.pop(key, None)
        if running is not None:
            # an administrative restart kills the running process
            running.crash("restarted")
        # a fresh server process starts with an empty store and log,
        # even if the crash path never ran (administrative restarts)
        self._server_gone(vm_id, api_name, "worker restarted")
        store = self.router.vms[vm_id].store
        worker = self._spawn_worker(vm_id, registration)
        self.workers[key] = worker
        san = _sanitize.active()
        if san.enabled:
            # crash/restart consistency: the fresh worker must hold no
            # handles, and the VM's transfer store must have dropped the
            # dead server's payloads
            san.check_worker_reset(
                vm_id, api_name,
                live_handles=len(worker.handles),
                store_entries=len(store) if store is not None else None,
            )
        return worker

    def _spawn_worker(self, vm_id: str,
                      registration: ApiRegistration,
                      pool_device: Optional[PooledDevice] = None,
                      ) -> ApiServerWorker:
        worker = ApiServerWorker(
            vm_id=vm_id,
            api_name=registration.name,
            dispatch=registration.dispatch,
        )
        if pool_device is not None:
            # explicit binding: live migration builds its destination on
            # a chosen member *without* re-homing the VM — placement
            # only moves at a successful cutover (pool.migrate)
            worker.pool_device = pool_device
        elif self.pool is not None:
            # placement before binding: the session binder reads
            # worker.pool_device to pick the member's native devices.
            # placement is per-VM, so every API of a VM (and a restarted
            # or migrated worker) lands on the same member.
            worker.pool_device = self.pool.place(vm_id)
        worker.native_session = registration.session_binder(worker)
        if self._fault_hook is not None:
            worker.fault_hook = self._fault_hook
        return worker

    def worker(self, vm_id: str, api_name: str) -> ApiServerWorker:
        worker = self._worker_for(vm_id, api_name)
        if worker is None:
            raise KeyError(f"no worker for VM {vm_id!r} API {api_name!r}")
        return worker

    # -- migration ----------------------------------------------------------------

    def start_live_migration(self, vm_id: str, api_name: str,
                             target_device_id: Optional[str] = None,
                             policy: Optional[Any] = None):
        """Begin a live migration; returns the running engine.

        The caller drives it: ``precopy_round()`` while the source keeps
        serving, then ``cutover()``.  :meth:`live_migrate_vm` wraps the
        whole protocol when no interleaved traffic control is needed.
        """
        from repro.migration.live import LiveMigration

        engine = LiveMigration(self, vm_id, api_name,
                               target_device_id=target_device_id,
                               policy=policy)
        engine.begin()
        return engine

    def live_migrate_vm(self, vm_id: str, api_name: str,
                        target_device_id: Optional[str] = None,
                        policy: Optional[Any] = None,
                        serve: Optional[Callable[[int], Any]] = None,
                        ) -> MigrationReport:
        """Migrate one (VM, API) worker: iterative pre-copy, then a
        short frozen cutover (no rounds at all, i.e. stop-the-world,
        under ``MigrationPolicy(max_rounds=0)``).  Raises
        :class:`~repro.migration.live.MigrationAborted` on failure, with
        the source still serving.

        ``serve(round_index)`` is called after every pre-copy round —
        the test/benchmark hook that keeps guest traffic flowing (and
        dirtying state) while the migration runs underneath it.
        """
        engine = self.start_live_migration(
            vm_id, api_name, target_device_id=target_device_id,
            policy=policy)
        while not engine.converged and \
                engine.rounds < engine.policy.max_rounds:
            engine.precopy_round()
            if serve is not None and not engine.converged and \
                    engine.rounds < engine.policy.max_rounds:
                serve(engine.rounds)
        return engine.cutover()

    # -- administration interface (paper §4.3) -------------------------------------

    def admin_report(self) -> Dict[str, Any]:
        """Per-VM resource usage as the admin interface would show it."""
        report: Dict[str, Any] = {}
        for vm_id in self.vms:
            metrics = self.router.metrics_for(vm_id)
            report[vm_id] = {
                "commands": metrics.commands,
                "rejected": metrics.rejected,
                "server_lost": metrics.server_lost,
                "payload_bytes": metrics.payload_bytes,
                "rate_delay": metrics.rate_delay,
                "resources": dict(metrics.resources),
                "per_function": dict(metrics.per_function),
            }
            if metrics.store is not None:
                report[vm_id]["xfer"] = {
                    "hits": metrics.xfer_hits,
                    "misses": metrics.xfer_misses,
                    "bytes_elided": metrics.xfer_bytes_elided,
                    "store": metrics.store.snapshot(),
                }
            mine = metrics.migrations
            if mine:
                completed = [m for m in mine if not m.aborted]
                report[vm_id]["migration"] = {
                    "count": len(mine),
                    "aborted": len(mine) - len(completed),
                    "rounds": sum(m.rounds for m in mine),
                    "downtime": sum(m.downtime for m in completed),
                    "precopy_bytes": sum(m.precopy_bytes for m in mine),
                    "delta_bytes": sum(m.delta_bytes for m in completed),
                    "elided_bytes": sum(m.elided_bytes for m in mine),
                    "retransmits": sum(m.retransmits for m in mine),
                    "stall": metrics.migration_stall,
                    "frozen_rejected": metrics.frozen_rejected,
                }
        monitor = self.router.slo_monitor
        if monitor is not None:
            breaches = monitor.breaches_by_vm()
            for vm_id in report:
                report[vm_id]["slo_breaches"] = breaches.get(vm_id, 0)
            report["_slo"] = {
                "targets": monitor.summary(),
                "breaches": len(monitor.events),
            }
        if self.pool is not None:
            devices = {}
            for member in self.pool.devices:
                apis = {}
                for api, native in member._native.items():
                    apis[api] = {
                        "busy_time": native.busy_time,
                        "timeline": native.timeline,
                        "utilization": native.utilization(),
                    }
                devices[member.device_id] = {
                    "class": member.device_class.name,
                    "compute_scale": member.device_class.compute_scale,
                    "memory_bytes": member.device_class.memory_bytes,
                    "reserved_bytes": member.reserved_bytes,
                    "vms": sorted(member.resident),
                    "apis": apis,
                }
            report["_pool"] = {
                "devices": devices,
                "total_capacity": self.pool.total_capacity,
            }
        if self.migrations:
            completed = [m for m in self.migrations if not m.aborted]
            report["_migration"] = {
                "count": len(self.migrations),
                "completed": len(completed),
                "aborted": len(self.migrations) - len(completed),
                "live": sum(1 for m in self.migrations
                            if m.mode == "live"),
                "downtime": sum(m.downtime for m in completed),
                "total_time": sum(m.total_time for m in completed),
            }
        return report
