"""The migration engine: iterative pre-copy with a short frozen cutover.

One engine, two policies.  The default :class:`MigrationPolicy` runs
live migration; ``MigrationPolicy(max_rounds=0)`` runs no pre-copy
round, so the whole log replay and every buffer ship inside the frozen
window: stop-the-world.  Both share the same destination setup, abort
semantics and report.  Built entirely from parts the stack already has:

* **Background replay.**  A destination worker is spawned next to the
  serving source and the recorded call log (spec ``record(...)``
  annotations) is replayed onto it *incrementally* — each pre-copy round
  replays only the log suffix (by record serial) that appeared since the
  last round, under the original guest ids.  The log is the VM's (on
  its router record, fed by the router), so replay onto the
  destination, which calls the worker directly, is never logged.
  Releases the log applies meanwhile reach the engine from the router;
  each is replayed if the destination replayed the record it used up,
  so the destination's reference counts follow the source's.
* **Iterative pre-copy.**  Each round digests every live source buffer
  and ships only the ones whose contents differ from what the
  destination already holds.  Dirty tracking cannot rely on ``modify``
  annotations alone — kernel launches are deliberately *not* recorded
  (verb-based inference, see ``spec/infer.py``), yet they write buffers
  — so rounds compare content digests, which catches every writer.
  Shipped payloads go through the per-VM content-addressed
  :class:`~repro.server.xferstore.TransferStore`: bytes the store has
  already seen cross as ~:attr:`LiveMigration.ref_bytes` refs.
* **Frozen cutover.**  When a round's dirty set is small enough (or the
  round budget, possibly zero, runs out), the guest's queued async
  commands are drained, the router freezes the VM, the final log suffix
  and dirty delta ship, and the (VM, API) worker slot is re-bound to the
  destination.  Only this window is guest-visible downtime; the router
  charges the stall to the first post-thaw call instead of silently
  warping the guest clock.
* **Clean abort.**  Any failure — replay error, destination crash, a
  migration frame exhausting its retransmission budget under an armed
  :class:`~repro.faults.plan.FaultPlan` — discards the destination
  (freeing its device allocations) and leaves the source serving.  There
  is no half-migrated state: traffic either never left the source, or
  the cutover completed.  The engine is on the VM's record
  (``VMState.migrating``) while it runs, so destroying the VM or losing
  the source aborts it the same way.

All of it runs on the virtual clock: pre-copy rounds charge the source
device for reads and the destination for replay/writes while the source
keeps serving; only the cutover window counts as downtime.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import TYPE_CHECKING, AbstractSet, Dict, List, Optional, Tuple

from repro.analysis import sanitizer as _sanitize
from repro.faults.errors import WorkerCrashed
from repro.faults.migration import MigrationChannel, MigrationFrameLost
from repro.migration.recorder import CallRecorder
from repro.migration.replayer import (
    MigrationError,
    MigrationReport,
    _is_buffer_object,
    replay_entry,
)
from repro.remoting.buffers import own_payloads
from repro.remoting.codec import Command
from repro.remoting.xfercache import digest_payload
from repro.telemetry import flightrec as _flightrec
from repro.telemetry import tracer as _tele

if TYPE_CHECKING:  # pragma: no cover - avoids hypervisor↔migration cycle
    from repro.hypervisor.hypervisor import Hypervisor
    from repro.server.api_server import ApiServerWorker


class MigrationAborted(MigrationError):
    """The migration was cleanly abandoned; the source is still serving."""

    def __init__(self, reason: str, report: MigrationReport) -> None:
        super().__init__(reason)
        self.reason = reason
        self.report = report


@dataclass(frozen=True)
class MigrationPolicy:
    """Decisions of the pre-copy/cutover engine.

    The prices it runs at are constants of the layers that charge them:
    the channel's on :class:`~repro.faults.migration.MigrationChannel`,
    a ref's wire size on :class:`LiveMigration`.  See
    ``docs/migration.md`` for how each knob moves the
    downtime/total-overhead trade-off.
    """

    #: pre-copy rounds before cutting over regardless of convergence
    #: (0 = stop-the-world: everything ships inside the frozen window)
    max_rounds: int = 8
    #: cut over once a round ships no more than this many payload bytes
    convergence_bytes: int = 64 * 1024
    #: per-frame retransmissions tolerated before aborting
    max_frame_retries: int = 4

    def __post_init__(self) -> None:
        if self.max_rounds < 0:
            raise ValueError("max_rounds cannot be negative")
        if self.convergence_bytes < 0:
            raise ValueError("convergence_bytes cannot be negative")
        if self.max_frame_retries < 0:
            raise ValueError("max_frame_retries cannot be negative")


class LiveMigration:
    """One in-flight migration of a (VM, API) worker.

    Driven by :meth:`Hypervisor.live_migrate_vm` (or manually:
    ``begin()`` → ``precopy_round()``\\ * → ``cutover()``).  Aborting at
    any point leaves the source worker serving.

    Scanning a buffer for dirt costs no source time: digests are
    modeled as computed by a CRC engine on the DMA path, as the
    transfer cache's default.
    """

    #: wire size of one content-addressed ref (digest + size + id)
    ref_bytes = 34

    def __init__(self, hypervisor: "Hypervisor", vm_id: str,
                 api_name: str,
                 target_device_id: Optional[str] = None,
                 policy: Optional[MigrationPolicy] = None) -> None:
        self.hv = hypervisor
        self.vm_id = vm_id
        self.api_name = api_name
        self.policy = policy or MigrationPolicy()
        key = (vm_id, api_name)
        if key in hypervisor.lost_workers:
            raise MigrationError(
                f"source worker for VM {vm_id!r} API {api_name!r} "
                f"crashed ({hypervisor.lost_workers[key]}); restart it "
                f"before migrating"
            )
        source = hypervisor.workers.get(key)
        if source is None:
            raise KeyError(
                f"VM {vm_id!r} has no active worker for {api_name!r}")
        if vm_id not in hypervisor.vms:
            raise KeyError(f"unknown VM {vm_id!r}")
        self.source: "ApiServerWorker" = source
        #: destination pool member (None outside pool mode)
        self.member = self._resolve_member(target_device_id)
        self.dest: Optional["ApiServerWorker"] = None
        #: the VM's log of this API's calls, from :meth:`begin` on
        self.log: Optional[CallRecorder] = None
        self.channel = MigrationChannel(vm_id, self.policy,
                                        plan=hypervisor.fault_plan)
        self.report = MigrationReport(
            source_vm=vm_id, api=api_name,
            mode="live" if self.policy.max_rounds else "stop-the-world",
            target_device=self.member.device_id if self.member else "",
        )
        self.rounds = 0
        self.converged = False
        self.finished = False
        self.aborted = False
        self._began_at = 0.0
        self._frozen = False
        #: serial of the newest source record the destination has seen.
        #: Serials only grow, so a record made after a prune can never
        #: be mistaken for one already replayed
        self._replayed_through = 0
        #: releases (and the ids they killed) the destination must replay
        self._pending_releases: List[Tuple[Command, AbstractSet[int]]] = []
        #: guest id → digest of the bytes the destination holds for it
        self._staged: Dict[int, bytes] = {}

    # -- setup -------------------------------------------------------------

    def _resolve_member(self, target_device_id: Optional[str]):
        pool = self.hv.pool
        if pool is None:
            if target_device_id is not None:
                raise MigrationError(
                    "target_device_id requires a device pool")
            return None
        current = pool.assignments.get(self.vm_id)
        if target_device_id is not None:
            member = pool.device_by_id(target_device_id)
        else:
            candidates = [d for d in pool.devices if d is not current]
            if not candidates:
                raise MigrationError(
                    "pool has no member to migrate to")
            member = min(candidates,
                         key=lambda d: (d.utilization(), d.device_id))
        if member is current:
            raise MigrationError(
                f"VM {self.vm_id!r} already lives on "
                f"{member.device_id!r}")
        reservation = pool._reservation(self.vm_id)
        if not member.fits(reservation):
            raise MigrationError(
                f"{member.device_id!r} cannot reserve "
                f"{reservation:.0f} bytes for {self.vm_id!r}")
        return member

    def begin(self) -> "ApiServerWorker":
        """Spawn the destination worker and go on the VM's record: in
        flight, and following the VM's log."""
        if self.dest is not None:
            return self.dest
        state = self.hv.router.vms[self.vm_id]
        if self.api_name in state.migrating:
            raise MigrationError(f"VM {self.vm_id!r} API "
                                 f"{self.api_name!r} is already migrating")
        registration = self.hv.apis[self.api_name]
        self.dest = self.hv._spawn_worker(self.vm_id, registration,
                                          pool_device=self.member)
        # background replay happens in "parallel" with the serving
        # source: the destination's clock starts at the source's now
        self.dest.clock.advance_to(self.source.clock.now,
                                   "migration_begin")
        self._began_at = self.dest.clock.now
        state.migrating[self.api_name] = self
        self.log = state.logs[self.api_name]
        recorder = _flightrec.active()
        if recorder.enabled:
            recorder.note(
                "migration.begin", now=self.dest.clock.now,
                vm=self.vm_id, api=self.api_name,
                target=self.report.target_device or "<fresh>",
            )
        return self.dest

    def released(self, command: Command, dead: AbstractSet[int],
                 consumed: int) -> None:
        """A release the VM's log applied (:meth:`CallRecorder.record`):
        the destination holds the reference it drops, and replays it,
        if it replayed the record the release used up."""
        for gid in dead:
            self._staged.pop(gid, None)
        if 0 < consumed <= self._replayed_through:
            own_payloads(command.in_buffers)  # kept past the call
            self._pending_releases.append((copy.deepcopy(command), dead))

    # -- background replay -------------------------------------------------

    def _replay_suffix(self) -> int:
        """Replay releases and new log entries accumulated since the
        last round; returns how many calls were replayed."""
        assert self.dest is not None
        replayed = 0
        for command, dead in self._pending_releases:
            reply = self.dest.execute(command,
                                      release_time=self.dest.clock.now)
            if reply.error is not None:
                raise MigrationError(
                    f"replaying release {command.function} on the "
                    f"destination failed: {reply.error}"
                )
            for gid in dead:
                self.dest.handles.free(gid)
            replayed += 1
        self._pending_releases.clear()
        # a record superseded since the last round is either already on
        # the destination (its replacement is in this suffix) or was
        # never needed
        for entry in self.log.since(self._replayed_through):
            replay_entry(self.dest, entry)
            self._replayed_through = entry.serial
            replayed += 1
            # the replayed call may have (re)written destination
            # buffers — record what the destination now holds, so the
            # next pre-copy round ships only genuinely dirty contents
            for gid in entry.created_ids() | entry.referenced:
                if gid in self.dest.handles:
                    obj = self.dest.handles.lookup(gid)
                    if _is_buffer_object(obj):
                        self._staged[gid] = digest_payload(
                            obj.data.tobytes())
        return replayed

    # -- buffer shipping ---------------------------------------------------

    def _live_source_buffers(self):
        for gid, obj in self.source.handles.items():
            if _is_buffer_object(obj):
                yield gid, obj

    def _ship_buffers(self, leg: str) -> Tuple[int, int, int]:
        """Ship every dirty live buffer; returns
        ``(payload_bytes, frames, elided_bytes)``."""
        assert self.dest is not None
        store = self.hv.router.vms[self.vm_id].store
        shipped = 0
        frames = 0
        elided = 0
        for gid, obj in self._live_source_buffers():
            data = obj.data.tobytes()
            digest = digest_payload(data)
            if self._staged.get(gid) == digest:
                continue  # destination already holds these bytes
            # device → host read on the (still serving) source
            self.source.clock.advance(obj.device.copy_cost(obj.size),
                                      f"migration_{leg}")
            # content-addressed dedup: bytes the per-VM store has seen
            # cross the channel as a ref, not a payload
            wire_bytes = len(data)
            payload = data
            if store is not None:
                if store.has(digest):
                    wire_bytes = min(self.ref_bytes, len(data))
                    elided += len(data) - wire_bytes
                    # destination-side restore resolves the ref through
                    # the store (counts as a store hit, like the router)
                    resolved = store.get(digest)
                    if resolved is not None:
                        payload = resolved
                else:
                    store.insert(data)
            self.dest.clock.advance_to(self.source.clock.now,
                                       "migration_sync")
            elapsed, _retries = self.channel.ship(
                leg, wire_bytes, self.dest.clock.now)
            self.dest.clock.advance(elapsed, f"migration_{leg}")
            # host → device write on the destination
            try:
                dest_obj = self.dest.handles.lookup(gid)
            except Exception as err:
                raise MigrationError(
                    f"source buffer {gid:#x} has no destination "
                    f"replica: {err}"
                ) from err
            if not _is_buffer_object(dest_obj) or \
                    dest_obj.size != len(payload):
                raise MigrationError(
                    f"destination replica of buffer {gid:#x} does not "
                    f"match the source ({len(payload)} B)"
                )
            import numpy as np

            dest_obj.data[:] = np.frombuffer(payload, dtype=np.uint8)
            self.dest.clock.advance(
                dest_obj.device.copy_cost(dest_obj.size),
                f"migration_{leg}")
            self._staged[gid] = digest
            shipped += len(data)
            frames += 1
        return shipped, frames, elided

    # -- the protocol ------------------------------------------------------

    def precopy_round(self) -> int:
        """One background round: replay the log suffix, ship the dirty
        set.  Returns the payload bytes shipped (the convergence
        signal).  The source keeps serving throughout."""
        self._unfinished()
        if self.dest is None:
            self.begin()
        tracer = _tele.active()
        started = self.dest.clock.now
        try:
            replayed = self._replay_suffix()
            shipped, frames, elided = self._ship_buffers("precopy")
        except (MigrationFrameLost, WorkerCrashed) as err:
            self._abort(f"pre-copy failed: {err}")
            raise MigrationAborted(str(err), self.report) from err
        except MigrationError as err:
            self._abort(f"pre-copy replay failed: {err}")
            raise MigrationAborted(str(err), self.report) from err
        self.rounds += 1
        self.report.rounds = self.rounds
        self.report.replayed_calls += replayed
        self.report.precopy_bytes += shipped
        self.report.precopy_frames += frames
        self.report.elided_bytes += elided
        self.converged = shipped <= self.policy.convergence_bytes
        if tracer.enabled:
            tracer.record_span(
                "migration.precopy", started, self.dest.clock.now,
                layer="migration", vm_id=self.vm_id, api=self.api_name,
                round=self.rounds, shipped_bytes=shipped,
                frames=frames, elided_bytes=elided, replayed=replayed,
            )
        return shipped

    def cutover(self) -> MigrationReport:
        """Freeze the VM, ship the final delta, re-bind the worker slot.

        On success the destination serves the very next guest call and
        the source is retired.  On failure the migration aborts and the
        source keeps serving (:class:`MigrationAborted`)."""
        self._unfinished()
        if self.dest is None:
            self.begin()
        key = (self.vm_id, self.api_name)
        vm = self.hv.vms[self.vm_id]
        # drain: queued async commands must reach the source (and the
        # VM's log) before the frozen window opens; the source may die
        # doing so
        vm.flush()
        self._unfinished()
        router = self.hv.router
        router.freeze_vm(self.vm_id, "migration cutover")
        self._frozen = True
        freeze_start = max(self.source.clock.now, self.dest.clock.now)
        self.dest.clock.advance_to(freeze_start, "migration_freeze")
        tracer = _tele.active()
        try:
            replayed = self._replay_suffix()
            delta_bytes, delta_frames, elided = \
                self._ship_buffers("cutover")
            # the commit frame: the destination's activation message.
            # Always crosses the channel — even an empty delta has a
            # cutover handshake, so downtime is never zero and chaos
            # plans can target the cutover leg itself.
            elapsed, _retries = self.channel.ship(
                "cutover", self.ref_bytes, self.dest.clock.now)
            self.dest.clock.advance(elapsed, "migration_cutover")
        except (MigrationFrameLost, WorkerCrashed) as err:
            self._abort(f"cutover failed: {err}")
            raise MigrationAborted(str(err), self.report) from err
        except MigrationError as err:
            self._abort(f"cutover replay failed: {err}")
            raise MigrationAborted(str(err), self.report) from err

        # -- commit: re-bind the (VM, API) slot to the destination -----
        del self.hv.router.vms[self.vm_id].migrating[self.api_name]
        self.hv.workers[key] = self.dest
        if self.member is not None and self.hv.pool is not None:
            self.hv.pool.migrate(self.vm_id, self.member)
        self.source.retire(
            f"migrated to "
            f"{self.report.target_device or 'a fresh worker'}")

        san = _sanitize.active()
        if san.enabled:
            # post-migration invariant: the destination holds exactly
            # the live handles the source held — nothing leaked,
            # nothing dropped, original guest ids preserved
            san.check_migration_handles(
                self.vm_id, self.api_name,
                source_ids=self.source.handles.snapshot_ids(),
                dest_ids=self.dest.handles.snapshot_ids(),
            )

        downtime = self.dest.clock.now - freeze_start
        router.thaw_vm(self.vm_id, resume_at=self.dest.clock.now)
        self._frozen = False
        self.finished = True
        self.report.replayed_calls += replayed
        self.report.delta_bytes = delta_bytes
        self.report.delta_buffers = delta_frames
        self.report.elided_bytes += elided
        self.report.restored_buffers = len(self._staged)
        self.report.snapshot_bytes = sum(
            obj.size for _, obj in self._live_source_buffers())
        self.report.downtime = downtime
        self.report.retransmits = self.channel.retransmits
        self.report.total_time = self.dest.clock.now - self._began_at
        self._file_report()
        if tracer.enabled:
            tracer.record_span(
                "migration.cutover", freeze_start, self.dest.clock.now,
                layer="migration", vm_id=self.vm_id, api=self.api_name,
                delta_bytes=delta_bytes, delta_buffers=delta_frames,
                downtime=downtime, replayed=replayed,
            )
        recorder = _flightrec.active()
        if recorder.enabled:
            recorder.incident(
                "migration-cutover", now=self.dest.clock.now,
                vm_id=self.vm_id, api=self.api_name,
                downtime=downtime, rounds=self.rounds,
                target=self.report.target_device or "<fresh>",
            )
        return self.report

    def _file_report(self) -> None:
        """Log the report with the fleet and on the VM's own record
        (a VM destroyed meanwhile keeps only the fleet entry)."""
        self.hv.migrations.append(self.report)
        vm = self.hv.router.vms.get(self.vm_id)
        if vm is not None:
            vm.migrations.append(self.report)

    def _unfinished(self) -> None:
        """Refuse to drive a finished migration: one aborted meanwhile
        (its VM destroyed, its source lost) raises
        :class:`MigrationAborted`."""
        if self.aborted:
            raise MigrationAborted(self.report.reason, self.report)
        if self.finished:
            raise MigrationError("migration already finished")

    # -- abort -------------------------------------------------------------

    def _abort(self, reason: str) -> None:
        """Discard the destination; the source keeps serving."""
        if self.finished:
            return
        self.finished = True
        self.aborted = True
        if self._frozen:
            self.hv.router.thaw_vm(self.vm_id)
            self._frozen = False
        if self.log is not None:  # it went on the VM's record: leave it
            del self.hv.router.vms[self.vm_id].migrating[self.api_name]
        if self.dest is not None:
            self._scrub_destination(reason)
        self.report.aborted = True
        self.report.reason = reason
        self.report.rounds = self.rounds
        self.report.retransmits = self.channel.retransmits
        self._file_report()
        recorder = _flightrec.active()
        if recorder.enabled:
            recorder.incident(
                "migration-aborted", now=self.source.clock.now,
                vm_id=self.vm_id, api=self.api_name, why=reason,
            )

    def abort(self, reason: str = "operator abort") -> MigrationReport:
        """Manually abandon the migration; the source keeps serving."""
        self._abort(reason)
        return self.report

    def _scrub_destination(self, reason: str) -> None:
        """Discard the half-built destination entirely."""
        assert self.dest is not None
        self.dest.crash(f"migration aborted: {reason}")
