"""The invocation router: AvA's recovered interposition point.

Every forwarded command crosses this module — there is no guest→server
path around it.  The router (paper §4.1, §4.3):

* **verifies** commands (known API and function, sane payload sizes) —
  guest input is untrusted bytes,
* **rate-limits** per VM via the token-bucket policy,
* **accounts** resource-usage estimates from the spec's ``consumes``
  annotations (e.g. bus bytes for copies) per VM,
* **schedules** the command's release to the per-VM API server worker,
* and logs per-VM metrics the administration interface exposes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.faults.errors import WorkerCrashed, WorkerLost
from repro.remoting.codec import (
    CodecError,
    Command,
    CommandBatch,
    NeedBytes,
    Reply,
    ReplyBatch,
)
from repro.remoting.wire import FrameLike, WireCodec
from repro.analysis import sanitizer as _sanitize
from repro.spec.expr import Evaluator, Expr
from repro.spec.model import ApiSpec, RecordKind
from repro.telemetry import flightrec as _flightrec
from repro.telemetry import tracer as _tele


@dataclass
class RoutingInfo:
    """What the router knows about one API function."""

    name: str
    record_kind: Optional[RecordKind] = None
    #: resource name → size/cost expression over the call's scalars
    resources: Dict[str, Expr] = field(default_factory=dict)


@dataclass
class RoutingTable:
    """Per-API routing data, distilled from the API spec.

    This is the "API command routing module for the hypervisor" CAvA
    generates: the hypervisor never loads the full spec, only this
    table.
    """

    api: str
    functions: Dict[str, RoutingInfo] = field(default_factory=dict)
    constants: Dict[str, float] = field(default_factory=dict)
    sizeof_table: Dict[str, int] = field(default_factory=dict)
    #: per-function sync classification ("sync"/"async"/"conditional")
    #: distilled from the spec — the happens-before contract CAVA309
    #: checks the generated routing module against
    ordering: Dict[str, str] = field(default_factory=dict)
    #: functions that can act as sync points (sync-capable calls)
    sync_points: List[str] = field(default_factory=list)

    @classmethod
    def from_spec(cls, spec: ApiSpec) -> "RoutingTable":
        table = cls(api=spec.name, constants=dict(spec.constants),
                    sizeof_table=spec.sizeof_table())
        for func in spec.functions.values():
            if func.unsupported:
                continue
            table.functions[func.name] = RoutingInfo(
                name=func.name,
                record_kind=func.record_kind,
                resources=dict(func.resources),
            )
            table.ordering[func.name] = func.sync_policy.classification()
            if func.sync_policy.modes()[0]:
                table.sync_points.append(func.name)
        table.sync_points.sort()
        return table


@dataclass
class VMMetrics:
    """Per-VM accounting the router maintains."""

    commands: int = 0
    rejected: int = 0
    payload_bytes: int = 0
    rate_delay: float = 0.0
    #: commands answered with a server-lost error (worker crashed)
    server_lost: int = 0
    #: cached refs resolved from the per-VM transfer store
    xfer_hits: int = 0
    #: cached refs that missed (answered with a NeedBytes frame)
    xfer_misses: int = 0
    #: payload bytes that never crossed the channel thanks to hits
    xfer_bytes_elided: int = 0
    #: commands refused because the VM was frozen for migration cutover
    frozen_rejected: int = 0
    #: virtual seconds post-cutover commands waited for the thaw point
    migration_stall: float = 0.0
    #: resource name → accumulated estimate (from `consumes` annotations)
    resources: Dict[str, float] = field(default_factory=dict)
    per_function: Dict[str, int] = field(default_factory=dict)


@dataclass
class BreakerState:
    """Circuit-breaker bookkeeping for one frame source (VM channel)."""

    #: arrival times of recent malformed frames (pruned to the window)
    strikes: List[float] = field(default_factory=list)
    #: rejected outright until this virtual time
    open_until: float = 0.0
    #: how many times the breaker opened for this source
    tripped: int = 0


class RouterError(Exception):
    """Command rejected by router verification."""


class Router:
    """Hypervisor-resident command router.

    ``worker_resolver(vm_id, api)`` returns the API server worker a
    verified command is dispatched to; the hypervisor provides it.
    """

    def __init__(
        self,
        worker_resolver: Callable[[str, str], Any],
        codec: WireCodec,
        rate_limiter: Optional[Any] = None,
        policy: Optional[Any] = None,
        interposition_cost: float = 0.4e-6,
        max_payload_bytes: int = 256 * 1024 * 1024,
        on_worker_lost: Optional[Callable[[str, str, str], None]] = None,
        breaker_threshold: int = 8,
        breaker_window: float = 1e-3,
        breaker_cooldown: float = 5e-3,
        max_batch_commands: int = 4096,
        store_resolver: Optional[Callable[[str], Any]] = None,
    ) -> None:
        self.worker_resolver = worker_resolver
        #: the wire codec frames cross the router through
        self.codec = codec
        #: ``store_resolver(vm_id)`` returns the VM's TransferStore (or
        #: ``None``); absent entirely when no CachePolicy is armed, so
        #: cached refs are rejected rather than silently dropped
        self.store_resolver = store_resolver
        self.rate_limiter = rate_limiter
        #: ResourcePolicy supplying per-VM resource quotas (optional)
        self.policy = policy
        self.interposition_cost = interposition_cost
        self.max_payload_bytes = max_payload_bytes
        #: notified as (vm_id, api, reason) when a worker dies mid-call
        self.on_worker_lost = on_worker_lost
        #: malformed frames within this window trip the source's breaker
        self.breaker_threshold = breaker_threshold
        self.breaker_window = breaker_window
        self.breaker_cooldown = breaker_cooldown
        #: inner-command bound per coalesced frame: guests have no
        #: business flushing larger batches, and unbundling is O(count)
        self.max_batch_commands = max_batch_commands
        #: batches rejected wholesale for exceeding that bound
        self.oversized_batches = 0
        self.tables: Dict[str, RoutingTable] = {}
        self.metrics: Dict[str, VMMetrics] = {}
        self.known_vms: set = set()
        #: rejections of commands claiming an *unknown* VM id — one
        #: bounded counter: untrusted bytes must not grow ``metrics``
        self.unknown_rejections = 0
        #: frames that failed decoding entirely (no attributable VM)
        self.malformed_frames = 0
        #: per-source circuit breakers, keyed by the transport-attested
        #: VM id (bounded: sources are hypervisor-created channels, not
        #: attacker-chosen bytes)
        self.breakers: Dict[str, BreakerState] = {}
        #: optional SLO monitor fed every routed reply (observation
        #: only — never touches scheduling or completion times)
        self.slo_monitor: Optional[Any] = None
        #: vm_id → reason, while the VM is frozen (migration cutover)
        self.frozen_vms: Dict[str, str] = {}
        #: vm_id → virtual time before which post-thaw commands may not
        #: release (the cutover window the guest must absorb)
        self.thaw_at: Dict[str, float] = {}

    # -- configuration -------------------------------------------------------

    def register_api(self, table: RoutingTable) -> None:
        self.tables[table.api] = table

    def register_vm(self, vm_id: str) -> None:
        self.known_vms.add(vm_id)
        self.metrics_for(vm_id)

    def metrics_for(self, vm_id: str) -> VMMetrics:
        entry = self.metrics.get(vm_id)
        if entry is None:
            entry = self.metrics[vm_id] = VMMetrics()
        return entry

    # -- migration freeze window ----------------------------------------------

    def freeze_vm(self, vm_id: str,
                  reason: str = "migration cutover") -> None:
        """Open the frozen window: the VM's commands are refused.

        Belt and braces for the single-threaded simulation — nothing
        *should* issue while a cutover runs (the engine drains the VM's
        coalescing queues first), but a frame that does arrive gets a
        typed error instead of racing the handoff.
        """
        self.frozen_vms[vm_id] = reason

    def thaw_vm(self, vm_id: str,
                resume_at: Optional[float] = None) -> None:
        """Close the frozen window.

        ``resume_at`` (the destination clock at cutover completion)
        clamps subsequent releases: commands arriving before it wait,
        and that wait is accounted as ``migration_stall`` — the honest
        guest-visible downtime, charged where it lands instead of
        silently warping the guest clock.
        """
        self.frozen_vms.pop(vm_id, None)
        if resume_at is not None:
            self.thaw_at[vm_id] = max(
                self.thaw_at.get(vm_id, 0.0), resume_at)

    # -- verification ----------------------------------------------------------

    def _verify(self, command: Command) -> Tuple[RoutingInfo, int]:
        """The command's routing info and its payload bytes, or a
        :class:`RouterError`."""
        if command.vm_id not in self.known_vms:
            raise RouterError(f"unknown VM {command.vm_id!r}")
        table = self.tables.get(command.api)
        if table is None:
            raise RouterError(f"unknown API {command.api!r}")
        info = table.functions.get(command.function)
        if info is None:
            raise RouterError(
                f"API {command.api!r} does not route {command.function!r}"
            )
        payload = command.payload_bytes()
        if payload > self.max_payload_bytes:
            raise RouterError(
                f"payload {payload} B exceeds router limit "
                f"{self.max_payload_bytes} B"
            )
        for name, size in command.out_sizes.items():
            if not isinstance(size, int) or size < 0:
                raise RouterError(f"bad out-size for {name!r}: {size!r}")
            if size > self.max_payload_bytes:
                raise RouterError(
                    f"out-buffer {name!r} of {size} B exceeds router limit"
                )
        return info, payload

    def _estimate(self, command: Command, info: RoutingInfo,
                  table: RoutingTable) -> Dict[str, float]:
        """Evaluate the spec's `consumes` expressions for one command."""
        if not info.resources:
            return {}
        env: Dict[str, float] = dict(table.constants)
        env.update({
            key: value
            for key, value in command.scalars.items()
            if isinstance(value, (int, float))
        })
        for name, chunk in command.in_buffers.items():
            env.setdefault(name, float(len(chunk)))
        evaluator = Evaluator(env, table.sizeof_table)
        estimates: Dict[str, float] = {}
        for resource, expr in info.resources.items():
            try:
                estimates[resource] = evaluator.evaluate(expr)
            except Exception:
                continue  # estimate only; never fail the call over it
        return estimates

    def _check_quota(self, vm_id: str, entry: VMMetrics,
                     estimates: Dict[str, float]) -> Optional[str]:
        """The resource (if any) this command would push past its quota."""
        if self.policy is None or not estimates:
            return None
        limits = self.policy.policy_for(vm_id).resource_limits
        if not limits:
            return None
        for resource, amount in estimates.items():
            limit = limits.get(resource)
            if limit is not None and \
                    entry.resources.get(resource, 0.0) + amount > limit:
                return resource
        return None

    def _account(self, entry: VMMetrics, command: Command,
                 estimates: Dict[str, float], payload: int) -> None:
        entry.commands += 1
        entry.payload_bytes += payload
        entry.per_function[command.function] = (
            entry.per_function.get(command.function, 0) + 1
        )
        for resource, amount in estimates.items():
            entry.resources[resource] = (
                entry.resources.get(resource, 0.0) + amount
            )

    # -- the malformed-frame circuit breaker -----------------------------------

    def _strike(self, source: Optional[str], arrival: float) -> None:
        """Record a malformed frame from ``source``; maybe open its breaker."""
        if source is None:
            return
        state = self.breakers.setdefault(source, BreakerState())
        state.strikes = [
            t for t in state.strikes if t > arrival - self.breaker_window
        ]
        state.strikes.append(arrival)
        if len(state.strikes) >= self.breaker_threshold:
            state.open_until = arrival + self.breaker_cooldown
            state.tripped += 1
            state.strikes.clear()

    def _breaker_open(self, source: Optional[str], arrival: float) -> bool:
        if source is None:
            return False
        state = self.breakers.get(source)
        return state is not None and arrival < state.open_until

    # -- the transfer cache (content-addressed payload elision) ---------------

    def _store_for(self, vm_id: str) -> Optional[Any]:
        if self.store_resolver is None:
            return None
        return self.store_resolver(vm_id)

    def _resolve_refs(self, commands: List[Command], arrival: float,
                      vm_id: str, tracer: Any, san: Any) -> Optional[bytes]:
        """Resolve every cached ref in one frame, transactionally.

        Returns ``None`` when the frame is fully materialized (refs
        replaced by their stored payloads, literal payloads seeded into
        the store) and routing may proceed.  Otherwise returns an
        encoded answer for the whole frame — a :class:`NeedBytes`
        naming *every* unresolved ref (nothing executes; the guest
        retransmits once with payloads restored), or an error
        :class:`Reply` for refs that are hostile rather than merely
        stale.  All-or-nothing resolution keeps batch semantics simple:
        a frame either routes exactly as if it had carried full
        payloads, or it does not route at all.  ``tracer`` and ``san``
        are the frame's active tracer and sanitizer.
        """
        store = self._store_for(vm_id)
        has_refs = any(command.cached_refs for command in commands)
        if not has_refs and store is None:
            return None
        first_seq = commands[0].seq
        # ``vm_id`` is untrusted bytes: only VMs this hypervisor created
        # are accounted, so a forged id cannot grow ``metrics``
        entry = self.metrics_for(vm_id) if vm_id in self.known_vms \
            else None
        if has_refs and store is None:
            # refs without an armed cache are a protocol violation, not
            # a miss — a retransmission could never succeed either
            if entry is not None:
                entry.rejected += 1
            return self._refuse(
                "router: cached refs without a transfer store (cache not "
                "armed for this VM)", arrival, first_seq)
        missing: List[Any] = []
        resolved: List[Any] = []
        # (command index, param) -> digest of each payload served
        served: Dict[Tuple[int, str], bytes] = {}
        for index, command in enumerate(commands):
            for param, (digest, size, kind) in command.cached_refs.items():
                if size > self.max_payload_bytes:
                    if entry is not None:
                        entry.rejected += 1
                    return self._refuse(
                        f"router: cached ref {param!r} claims {size} B, "
                        f"beyond limit {self.max_payload_bytes} B",
                        arrival, first_seq)
                data = store.get(digest)
                if data is None or len(data) != size:
                    missing.append([command.seq, param, digest])
                else:
                    if san.enabled:
                        # never-stale: the served bytes must still hash
                        # to the digest the guest addressed them by
                        san.verify_digest(digest, data, vm_id=vm_id)
                    resolved.append((command, param, data, kind))
                    served[(index, param)] = digest
        if missing:
            if entry is not None:
                entry.xfer_misses += len(missing)
            if tracer.enabled:
                tracer.record_span(
                    "xfer.miss", arrival, arrival, layer="router",
                    vm_id=vm_id, function="<xfer>",
                    missing=len(missing),
                )
            return self.codec.encode_reply(
                NeedBytes(seq=first_seq, missing=missing,
                          complete_time=arrival)
            )
        for command, param, data, kind in resolved:
            if kind == "str":
                try:
                    command.scalars[param] = data.decode("utf-8")
                except UnicodeDecodeError:
                    if entry is not None:
                        entry.rejected += 1
                    return self._refuse(
                        f"router: cached ref {param!r} resolves to "
                        f"non-UTF-8 bytes for kind 'str'",
                        arrival, first_seq)
            else:
                command.in_buffers[param] = data
        hit_bytes = 0
        for command, param, data, kind in resolved:
            command.cached_refs = {}
            hit_bytes += len(data)
        if resolved and entry is not None:
            entry.xfer_hits += len(resolved)
            entry.xfer_bytes_elided += hit_bytes
        if resolved and tracer.enabled:
            tracer.record_span(
                "xfer.hit", arrival, arrival, layer="router",
                vm_id=vm_id, function="<xfer>",
                hits=len(resolved), bytes_elided=hit_bytes,
            )
        self._seed_store(commands, store, served)
        return None

    def _seed_store(self, commands: List[Command], store: Optional[Any],
                    served: Dict[Tuple[int, str], bytes]) -> None:
        """Remember this frame's payloads for future refs.

        Digests of literal payloads are computed server-side from the
        bytes actually received — the wire carries no digest for full
        payloads (frames from a cache-armed guest are byte-identical to
        uncached ones until the first elision), and a guest cannot
        poison the store with a digest its bytes do not hash to.  A
        payload a ref was just served from is refreshed in the same
        walk order under the digest the store served it by
        (``served``: ``(command index, param) -> digest``), not hashed
        again.
        """
        if store is None:
            return
        for index, command in enumerate(commands):
            for name, chunk in command.in_buffers.items():
                if store.min_bytes <= len(chunk) <= store.max_entry_bytes:
                    store.insert(chunk, served.get((index, name)))
            for name, value in command.scalars.items():
                if isinstance(value, str):
                    encoded = value.encode("utf-8")
                    if store.min_bytes <= len(encoded) \
                            <= store.max_entry_bytes:
                        store.insert(encoded, served.get((index, name)))

    # -- the data path -----------------------------------------------------------

    def _refuse(self, error: str, at: float, seq: int = -1) -> FrameLike:
        """One encoded error :class:`Reply` answering a whole frame (its
        time a float whatever ``at`` is: this is the path that must not
        fail)."""
        return self.codec.encode_reply(
            Reply(seq=seq, error=error, complete_time=float(at)))

    def deliver(self, wire: FrameLike, arrival: float,
                source: Optional[str] = None) -> FrameLike:
        """Verify, schedule and dispatch one encoded frame; returns the
        encoded reply.  Verification failures produce error replies (the
        guest sees a failed call, the host is untouched).

        A frame carries either one :class:`Command` (answered with one
        :class:`Reply`) or one :class:`CommandBatch` (unbundled and
        answered with one :class:`ReplyBatch`).  Each inner command of
        a batch is verified, rate-limited, and accounted individually
        under the existing per-VM policy — coalescing changes how
        commands cross the channel, never what the hypervisor enforces.

        ``source`` is the transport-attested VM id of the sending
        channel (not a decoded field — the frame may not decode at
        all); it feeds the malformed-frame circuit breaker.  ``arrival``
        may be any real number; every reply carries it as a float.
        """
        arrival = float(arrival)
        if self._breaker_open(source, arrival):
            if source in self.known_vms:
                self.metrics_for(source).rejected += 1
            return self._refuse(f"router: circuit open for VM {source!r} "
                                f"(malformed-frame flood)", arrival)
        try:
            message = self.codec.decode_command(wire)
        except CodecError as err:
            self.malformed_frames += 1
            self._strike(source, arrival)
            return self._refuse(f"router: malformed command ({err})",
                                arrival)
        batch = isinstance(message, CommandBatch)
        if not batch and not isinstance(message, Command):
            self.malformed_frames += 1
            self._strike(source, arrival)
            return self._refuse("router: expected a command", arrival)
        # a lone command is the one-command case of a batch: the frame
        # kinds differ only in the size bound, the span and the framing
        # of the answer
        commands = message.commands if batch else [message]
        if batch and len(commands) > self.max_batch_commands:
            self.oversized_batches += 1
            if source in self.known_vms:
                self.metrics_for(source).rejected += 1
            return self._refuse(
                f"router: batch of {len(commands)} commands exceeds limit "
                f"{self.max_batch_commands}", arrival)
        # looked up once per frame, not once per inner command
        tracer = _tele.active()
        san = _sanitize.active()
        answered = self._resolve_refs(commands, arrival, message.vm_id,
                                      tracer, san)
        if answered is not None:
            return answered
        replies = []
        at = arrival
        for index, command in enumerate(commands):
            # the frame is received (and the worker woken) once: inner
            # commands after the first pay the cheaper batched dispatch
            reply = self._route(command, at, tracer, san,
                                batched=index > 0)
            replies.append(reply)
            if self.slo_monitor is not None:
                self._observe(command, at, reply)
            # program order within the VM: the next command is released
            # no earlier than this one completed
            at = max(at, reply.complete_time)
        if batch:
            if tracer.enabled:
                tracer.record_span(
                    "router.batch", arrival, at, layer="router",
                    vm_id=message.vm_id, function="<batch>",
                    commands=len(commands),
                    errors=sum(1 for r in replies if r.error is not None),
                )
            answer, seq = ReplyBatch(replies=replies, complete_time=at), -1
        else:
            answer, seq, at = reply, message.seq, reply.complete_time
        try:
            return self.codec.encode_reply(answer, reply_to=message)
        except CodecError as err:
            # a reply the wire can't carry must not take the router down
            return self._refuse(f"router: reply encoding failed ({err})",
                                at, seq)

    def _route(self, command: Command, arrival: float, tracer: Any,
               san: Any, batched: bool = False) -> Reply:
        """Verify, schedule and dispatch one decoded command, under the
        frame's active ``tracer`` and sanitizer ``san``."""
        frozen = self.frozen_vms.get(command.vm_id)
        if frozen is not None:
            entry = self.metrics_for(command.vm_id)
            entry.rejected += 1
            entry.frozen_rejected += 1
            return Reply(seq=command.seq,
                         error=f"router: vm-frozen ({frozen})",
                         complete_time=arrival)
        try:
            info, payload = self._verify(command)
        except RouterError as err:
            # only account VMs this hypervisor actually created:
            # ``command.vm_id`` is untrusted bytes, and growing the
            # metrics table from it would be an unbounded-memory hole
            if command.vm_id in self.known_vms:
                self.metrics_for(command.vm_id).rejected += 1
            else:
                self.unknown_rejections += 1
            if tracer.enabled:
                tracer.record_span(
                    "router.policy", arrival, arrival, layer="router",
                    parent_id=command.span_id, vm_id=command.vm_id,
                    api=command.api, function=command.function,
                    rejected=str(err),
                )
            return Reply(seq=command.seq, error=f"router: {err}",
                         complete_time=arrival)

        # verified, so the VM is known: its counters, resolved once
        entry = self.metrics_for(command.vm_id)
        estimates = self._estimate(command, info, self.tables[command.api])
        exhausted = self._check_quota(command.vm_id, entry, estimates)
        if exhausted is not None:
            entry.rejected += 1
            if tracer.enabled:
                tracer.record_span(
                    "router.policy", arrival, arrival, layer="router",
                    parent_id=command.span_id, vm_id=command.vm_id,
                    api=command.api, function=command.function,
                    rejected=f"quota exhausted: {exhausted}",
                )
            return Reply(seq=command.seq,
                         error=f"router: resource quota exhausted for "
                               f"{exhausted!r}",
                         complete_time=arrival)

        verified_at = arrival + self.interposition_cost
        release = verified_at
        resume = self.thaw_at.get(command.vm_id)
        if resume is not None:
            if release < resume:
                # the first calls after a live-migration cutover absorb
                # the frozen window here, visibly, instead of the guest
                # clock being warped underneath the application
                entry.migration_stall += resume - release
                release = resume
            else:
                del self.thaw_at[command.vm_id]
        if self.rate_limiter is not None:
            allowed = self.rate_limiter.next_allowed(command.vm_id, release)
            entry.rate_delay += allowed - release
            release = allowed

        self._account(entry, command, estimates, payload)

        if tracer.enabled:
            # the interposition window: verification + resource accounting
            policy_attrs = {
                f"est.{name}": value for name, value in estimates.items()
            }
            tracer.record_span(
                "router.policy", arrival, verified_at, layer="router",
                parent_id=command.span_id, vm_id=command.vm_id,
                api=command.api, function=command.function,
                payload_bytes=payload, **policy_attrs,
            )
            # the scheduling decision: token-bucket release of the command
            tracer.record_span(
                "router.queue", verified_at, release, layer="router",
                parent_id=command.span_id, vm_id=command.vm_id,
                api=command.api, function=command.function,
                rate_delay=release - verified_at,
                scheduler=("token-bucket" if self.rate_limiter is not None
                           else "pass-through"),
            )

        try:
            worker = self.worker_resolver(command.vm_id, command.api)
        except WorkerLost as err:
            return self._server_lost_reply(entry, command, release,
                                           str(err), tracer)
        if worker is None:
            return Reply(seq=command.seq,
                         error=f"router: no API server for VM "
                               f"{command.vm_id!r} API {command.api!r}",
                         complete_time=release)
        if san.enabled:
            # the device-side dispatch record: this is where guest
            # program order either survived the channel or did not
            san.record_dispatch(command.vm_id, command.api, command.seq,
                                command.mode, command.function)
        try:
            # plain positional call on the per-command path keeps worker
            # doubles with the historical execute() signature working
            if batched:
                reply = worker.execute(command, release, batched=True)
            else:
                reply = worker.execute(command, release)
            if san.enabled:
                san.check_reply_time(command.vm_id, command.api,
                                     release, reply.complete_time)
            return reply
        except WorkerCrashed as err:
            # the worker process died mid-call: tear it down (the
            # hypervisor invalidates its handle table) and answer with a
            # clean server-lost error — other VMs' workers are untouched
            if self.on_worker_lost is not None:
                self.on_worker_lost(command.vm_id, command.api, str(err))
            return self._server_lost_reply(entry, command, release,
                                           str(err), tracer)

    def _observe(self, command: Command, arrival: float,
                 reply: Reply) -> None:
        """Feed one routed reply to the SLO monitor (and the flight
        recorder, when one is installed) — pure observation, nothing
        about routing or timing changes."""
        latency = max(0.0, reply.complete_time - arrival)
        error = reply.error is not None
        self.slo_monitor.record(
            vm_id=command.vm_id, function=command.function,
            latency=latency, error=error, now=reply.complete_time,
        )
        recorder = _flightrec.active()
        if recorder.enabled:
            recorder.note(
                "router.reply", now=reply.complete_time,
                vm=command.vm_id, function=command.function,
                latency=latency, error=reply.error,
            )

    def _server_lost_reply(self, entry: VMMetrics, command: Command,
                           release: float, reason: str,
                           tracer: Any) -> Reply:
        entry.server_lost += 1
        if tracer.enabled:
            tracer.record_span(
                "router.server-lost", release, release, layer="router",
                parent_id=command.span_id, vm_id=command.vm_id,
                api=command.api, function=command.function,
                reason=reason,
            )
        return Reply(seq=command.seq,
                     error=f"router: server-lost ({reason})",
                     complete_time=release)
