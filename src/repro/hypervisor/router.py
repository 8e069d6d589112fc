"""The invocation router: AvA's recovered interposition point.

Every forwarded command crosses this module — there is no guest→server
path around it.  The router (paper §4.1, §4.3):

* **verifies** commands (known API and function, sane payload sizes) —
  guest input is untrusted bytes,
* **rate-limits** per VM via the token-bucket policy,
* **accounts** resource-usage estimates from the spec's ``consumes``
  annotations (e.g. bus bytes for copies) per VM,
* **schedules** the command's release to the per-VM API server worker,
* **records** each successful call the spec marks ``record(...)`` into
  the VM's migration log, and frees the handles that log reports dead,
* and logs per-VM metrics the administration interface exposes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.faults.errors import WorkerCrashed, WorkerLost
from repro.hypervisor.policy import ResourcePolicy, TokenBucket, VMPolicy
from repro.migration.recorder import CallRecorder
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
from repro.spec.model import RecordKind
from repro.telemetry import flightrec as _flightrec
from repro.telemetry import tracer as _tele


@dataclass
class RoutingInfo:
    """What the router knows about one API function."""

    name: str
    record_kind: Optional[RecordKind] = None
    #: the return value meaning the call took effect (None: undeclared)
    success: Optional[float] = None
    #: the parameters keying its migration record (``supersedes(...)``)
    supersedes: Tuple[str, ...] = ()
    #: resource name → the spec's `consumes` estimate as the generator
    #: compiled it: a float, or a function of the call's named arguments
    resources: Dict[str, Any] = field(default_factory=dict)
    #: some estimate depends on the call's arguments; otherwise every
    #: call bills ``resources`` as they stand
    per_call: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.per_call = any(callable(estimate)
                            for estimate in self.resources.values())


@dataclass
class RoutingTable:
    """Per-API routing data, distilled from the API spec.

    This is the "API command routing module for the hypervisor" CAvA
    generates: the hypervisor never loads the full spec, only this
    table.
    """

    api: str
    functions: Dict[str, RoutingInfo] = field(default_factory=dict)
    #: per-function sync classification ("sync"/"async"/"conditional")
    #: distilled from the spec — the happens-before contract CAVA309
    #: checks the generated routing module against
    ordering: Dict[str, str] = field(default_factory=dict)
    #: functions that can act as sync points (sync-capable calls)
    sync_points: List[str] = field(default_factory=list)

    def new_log(self) -> CallRecorder:
        """An empty migration log for this API's calls."""
        return CallRecorder({name: info.supersedes for name, info
                             in self.functions.items() if info.supersedes})

    def estimate(self, info: RoutingInfo,
                 command: Command) -> Dict[str, Any]:
        """``info``'s `consumes` estimates for ``command``: a compiled
        one is called with the call's numeric scalars and in-buffer
        lengths; one that fails is left out (an estimate never fails
        the call)."""
        args: Dict[str, Any] = {
            key: value for key, value in command.scalars.items()
            if isinstance(value, (int, float))}
        for name, chunk in command.in_buffers.items():
            args.setdefault(name, float(len(chunk)))
        estimates: Dict[str, Any] = {}
        for resource, estimate in info.resources.items():
            if callable(estimate):
                try:
                    estimate = estimate(**args)
                except Exception:
                    continue
            estimates[resource] = estimate
        return estimates


@dataclass
class VMState:
    """Everything the router keeps for one live VM: created by
    :meth:`Router.register_vm` and dropped whole by
    :meth:`Router.drop_vm`, so a recycled id starts from zero."""

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
    #: the malformed-frame breaker: arrival times of recent malformed
    #: frames from this VM's channel (pruned to the window), the virtual
    #: time it is rejected outright until, and how often it opened
    strikes: List[float] = field(default_factory=list)
    open_until: float = 0.0
    tripped: int = 0
    #: the VM's TransferStore, when its cache policy is armed; refs
    #: from a VM without one are rejected, not silently dropped
    store: Optional[Any] = None
    #: the freeze reason while a migration cutover holds the VM
    frozen: Optional[str] = None
    #: post-cutover release floor, until a command arrives past it
    resume: Optional[float] = None
    #: the :attr:`ResourcePolicy.version` the stages below were armed
    #: under (see :meth:`Router._arm`); -1 arms them on the first command
    version: int = -1
    #: the VM's policy when it has a command rate (its bucket applies)
    rate: Optional[VMPolicy] = None
    #: the VM's command-rate bucket, kept across policy changes
    bucket: TokenBucket = field(default_factory=TokenBucket)
    #: the VM's resource quotas, when it has any
    limits: Optional[Dict[str, float]] = None
    #: this VM's migration reports, completed and aborted
    migrations: List[Any] = field(default_factory=list)
    #: API name → the VM's migration log of that API's calls, which the
    #: router records every successful reply of a ``record`` function
    #: into (a command that reaches a worker another way is not logged)
    logs: Dict[str, CallRecorder] = field(default_factory=dict)
    #: API name → its migration in flight, from ``begin()`` to cutover
    #: or abort
    migrating: Dict[str, Any] = field(default_factory=dict)


#: a frame's commands → whether any carries cached refs
_CACHED_REFS = attrgetter("cached_refs")


class RouterError(Exception):
    """Command rejected by router verification."""


class Router:
    """Hypervisor-resident command router.

    ``worker_resolver(vm_id, api)`` returns the API server worker a
    verified command is dispatched to; the hypervisor provides it.
    """

    #: seconds of verification and accounting every command pays
    interposition_cost = 0.4e-6
    max_payload_bytes = 256 * 1024 * 1024
    #: malformed frames within the window trip the sender's breaker,
    #: which then refuses its frames for the cooldown
    breaker_threshold = 8
    breaker_window = 1e-3
    breaker_cooldown = 5e-3
    #: inner-command bound per coalesced frame: guests have no
    #: business flushing larger batches, and unbundling is O(count)
    max_batch_commands = 4096

    def __init__(
        self,
        worker_resolver: Callable[[str, str], Any],
        codec: WireCodec,
        policy: Optional[ResourcePolicy] = None,
        on_worker_lost: Optional[Callable[[str, str, str], None]] = None,
    ) -> None:
        self.worker_resolver = worker_resolver
        #: the wire codec frames cross the router through
        self.codec = codec
        #: ResourcePolicy supplying per-VM command rates and resource
        #: quotas (optional)
        self.policy = policy
        #: notified as (vm_id, api, reason) when a worker dies mid-call
        self.on_worker_lost = on_worker_lost
        #: batches rejected wholesale for exceeding that bound
        self.oversized_batches = 0
        self.tables: Dict[str, RoutingTable] = {}
        #: one record per live VM, and nothing for any other id
        self.vms: Dict[str, VMState] = {}
        #: rejections of commands claiming an *unknown* VM id — one
        #: bounded counter: untrusted bytes must not grow ``vms``
        self.unknown_rejections = 0
        #: frames that failed decoding, or named a VM other than the
        #: channel's (no VM is billed for them)
        self.malformed_frames = 0
        #: optional SLO monitor fed every routed reply (observation
        #: only — never touches scheduling or completion times)
        self.slo_monitor: Optional[Any] = None

    # -- configuration -------------------------------------------------------

    def register_api(self, table: RoutingTable) -> None:
        self.tables[table.api] = table
        for state in self.vms.values():
            state.logs.setdefault(table.api, table.new_log())

    def register_vm(self, vm_id: str, store: Optional[Any] = None) -> None:
        """Give ``vm_id`` a fresh record, with an empty log per API;
        ``store`` is its TransferStore when its cache policy is armed."""
        self.vms[vm_id] = VMState(store=store, logs={
            api: table.new_log() for api, table in self.tables.items()})

    def drop_vm(self, vm_id: str) -> None:
        """Forget ``vm_id``: its frames are an unknown VM's from now on."""
        self.vms.pop(vm_id, None)

    def metrics_for(self, vm_id: str) -> VMState:
        """The live VM's record; a ``KeyError`` for any other id."""
        return self.vms[vm_id]

    # -- migration freeze window ----------------------------------------------

    def freeze_vm(self, vm_id: str,
                  reason: str = "migration cutover") -> None:
        """Open the frozen window: the VM's commands are refused.

        Belt and braces for the single-threaded simulation — nothing
        *should* issue while a cutover runs (the engine drains the VM's
        coalescing queues first), but a frame that does arrive gets a
        typed error instead of racing the handoff.
        """
        self.vms[vm_id].frozen = reason

    def thaw_vm(self, vm_id: str,
                resume_at: Optional[float] = None) -> None:
        """Close the frozen window.

        ``resume_at`` (the destination clock at cutover completion)
        clamps subsequent releases: commands arriving before it wait,
        and that wait is accounted as ``migration_stall`` — the honest
        guest-visible downtime, charged where it lands instead of
        silently warping the guest clock.
        """
        state = self.vms[vm_id]
        state.frozen = None
        if resume_at is not None:
            state.resume = max(state.resume or 0.0, resume_at)

    def _arm(self, vm_id: str, state: VMState) -> None:
        """Decide which policy stages ``vm_id``'s commands run, once per
        policy change."""
        state.version = ResourcePolicy.version
        if self.policy is not None:
            vm_policy = self.policy.policy_for(vm_id)
            state.rate = (vm_policy if vm_policy.command_rate is not None
                          else None)
            state.limits = vm_policy.resource_limits or None

    # -- verification ----------------------------------------------------------

    def _verify(self, command: Command) -> Tuple[RoutingInfo, int]:
        """The command's routing info and its payload bytes, or a
        :class:`RouterError`."""
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

    # -- the malformed-frame circuit breaker -----------------------------------

    def _malformed(self, state: Optional[VMState], error: str,
                   arrival: float) -> FrameLike:
        """Refuse a frame no VM is billed for: one ``malformed_frames``,
        and one strike on the sender's record (when it has one) that may
        open its breaker."""
        self.malformed_frames += 1
        if state is not None:
            window = arrival - self.breaker_window
            state.strikes = [t for t in state.strikes if t > window]
            state.strikes.append(arrival)
            if len(state.strikes) >= self.breaker_threshold:
                state.open_until = arrival + self.breaker_cooldown
                state.tripped += 1
                state.strikes.clear()
        return self._refuse(error, arrival)

    # -- the transfer cache (content-addressed payload elision) ---------------

    def _resolve_refs(self, commands: List[Command], arrival: float,
                      vm_id: str, state: VMState, tracer: Any,
                      san: Any) -> Optional[bytes]:
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
        payloads, or it does not route at all.  Called only for a frame
        that carries refs or whose VM has a transfer store: ``state`` is
        the live VM's record; ``tracer`` and ``san`` are the frame's
        active tracer and sanitizer.
        """
        first_seq = commands[0].seq
        store = state.store
        if store is None:
            # refs without an armed cache are a protocol violation, not
            # a miss — a retransmission could never succeed either
            state.rejected += 1
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
                    state.rejected += 1
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
            state.xfer_misses += len(missing)
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
                    state.rejected += 1
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
        if resolved:
            state.xfer_hits += len(resolved)
            state.xfer_bytes_elided += hit_bytes
            if tracer.enabled:
                tracer.record_span(
                    "xfer.hit", arrival, arrival, layer="router",
                    vm_id=vm_id, function="<xfer>",
                    hits=len(resolved), bytes_elided=hit_bytes,
                )
        self._seed_store(commands, store, served)
        return None

    def _seed_store(self, commands: List[Command], store: Any,
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
        again.  A payload the store keeps is replaced by the store's
        bytes, so the call and the migration log use that one copy.
        """
        for index, command in enumerate(commands):
            in_buffers = command.in_buffers
            for name, chunk in in_buffers.items():
                if store.min_bytes <= len(chunk) <= store.max_entry_bytes:
                    kept = store.insert(chunk, served.get((index, name)))
                    if kept is not None:
                        in_buffers[name] = kept
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

        ``source`` is the VM id of the sending channel, attested by the
        transport (not a decoded field — the frame may not decode at
        all).  A frame naming any other VM is refused as malformed, and
        so is a batch holding a command that names a VM other than the
        batch's own; malformed frames strike the sender's breaker.  A
        frame with no ``source`` (a hand-built channel) is resolved by
        the VM it names.  ``arrival`` may be any real number; every
        reply carries it as a float.
        """
        arrival = float(arrival)
        # the sender's record, looked up once per frame
        state = None if source is None else self.vms.get(source)
        if state is not None and arrival < state.open_until:
            state.rejected += 1
            return self._refuse(f"router: circuit open for VM {source!r} "
                                f"(malformed-frame flood)", arrival)
        try:
            message = self.codec.decode_command(wire)
        except CodecError as err:
            return self._malformed(
                state, f"router: malformed command ({err})", arrival)
        batch = isinstance(message, CommandBatch)
        if not batch and not isinstance(message, Command):
            return self._malformed(state, "router: expected a command",
                                   arrival)
        # a lone command is the one-command case of a batch: the frame
        # kinds differ only in the size bound, the span and the framing
        # of the answer
        commands = message.commands if batch else [message]
        if batch and len(commands) > self.max_batch_commands:
            self.oversized_batches += 1
            if state is not None:
                state.rejected += 1
            return self._refuse(
                f"router: batch of {len(commands)} commands exceeds limit "
                f"{self.max_batch_commands}", arrival)
        # every command of the frame is the sender's, checked before
        # anything executes
        vm_id = message.vm_id
        if source is None:
            state = self.vms.get(vm_id)
        elif vm_id != source:
            return self._malformed(
                state, f"router: frame names VM {vm_id!r}, sent by "
                       f"{source!r}", arrival)
        if batch:
            for command in commands:
                if command.vm_id != vm_id:
                    return self._malformed(
                        state, f"router: frame names VM "
                               f"{command.vm_id!r}, sent by {vm_id!r}",
                        arrival)
        # looked up once per frame, not once per inner command
        tracer = _tele.active()
        at = arrival
        if state is None:
            # an unknown id is untrusted bytes: each command is refused,
            # counted in one bounded counter, and observed by nobody
            self.unknown_rejections += len(commands)
            error = f"unknown VM {vm_id!r}"
            replies = [self._deny(command, arrival, error, tracer,
                                  rejected=error) for command in commands]
        else:
            if state.version != ResourcePolicy.version:
                self._arm(vm_id, state)
            san = _sanitize.active()
            if state.store is not None or any(map(_CACHED_REFS, commands)):
                answered = self._resolve_refs(commands, arrival, vm_id,
                                              state, tracer, san)
                if answered is not None:
                    return answered
            replies = []
            for index, command in enumerate(commands):
                # the frame is received (and the worker woken) once:
                # inner commands after the first pay the cheaper batched
                # dispatch
                reply = self._route(command, state, at, tracer, san,
                                    batched=index > 0)
                replies.append(reply)
                if self.slo_monitor is not None:
                    self._observe(command, at, reply)
                # program order within the VM: the next command is
                # released no earlier than this one completed
                at = max(at, reply.complete_time)
        if batch:
            if tracer.enabled:
                tracer.record_span(
                    "router.batch", arrival, at, layer="router",
                    vm_id=vm_id, function="<batch>",
                    commands=len(commands),
                    errors=sum(1 for r in replies if r.error is not None),
                )
            answer, seq = ReplyBatch(replies=replies, complete_time=at), -1
        else:
            [answer], seq = replies, message.seq
            at = answer.complete_time
        try:
            return self.codec.encode_reply(answer, reply_to=message)
        except CodecError as err:
            # a reply the wire can't carry must not take the router down
            return self._refuse(f"router: reply encoding failed ({err})",
                                at, seq)

    @staticmethod
    def _deny(command: Command, at: float, error: str, tracer: Any = None,
              span: str = "router.policy", **attrs: Any) -> Reply:
        """Refuse one command with ``router: error`` at ``at``; under an
        enabled ``tracer``, a zero-length ``span`` carrying ``attrs``
        records why."""
        if tracer is not None and tracer.enabled:
            tracer.record_span(
                span, at, at, layer="router", parent_id=command.span_id,
                vm_id=command.vm_id, api=command.api,
                function=command.function, **attrs)
        return Reply(seq=command.seq, error=f"router: {error}",
                     complete_time=at)

    def _route(self, command: Command, state: VMState, arrival: float,
               tracer: Any, san: Any, batched: bool = False) -> Reply:
        """Verify, schedule and dispatch one decoded command of the live
        VM whose armed record is ``state``, under the frame's active
        ``tracer`` and sanitizer ``san``; only the record's armed policy
        stages run."""
        if state.frozen is not None:
            state.rejected += 1
            state.frozen_rejected += 1
            return self._deny(command, arrival,
                              f"vm-frozen ({state.frozen})")
        try:
            info, payload = self._verify(command)
        except RouterError as err:
            state.rejected += 1
            return self._deny(command, arrival, str(err), tracer,
                              rejected=str(err))
        estimates = info.resources
        if info.per_call:
            estimates = self.tables[command.api].estimate(info, command)
        if state.limits is not None:
            for resource, amount in estimates.items():
                limit = state.limits.get(resource)
                if limit is not None and \
                        state.resources.get(resource, 0.0) + amount > limit:
                    state.rejected += 1
                    return self._deny(
                        command, arrival,
                        f"resource quota exhausted for {resource!r}",
                        tracer, rejected=f"quota exhausted: {resource}")

        verified_at = arrival + self.interposition_cost
        release = verified_at
        if state.resume is not None:
            if release < state.resume:
                # the first calls after a live-migration cutover absorb
                # the frozen window here, visibly, instead of the guest
                # clock being warped underneath the application
                state.migration_stall += state.resume - release
                release = state.resume
            else:
                # the window has passed: the stage is disarmed
                state.resume = None
        if state.rate is not None:
            allowed = state.bucket.next_allowed(state.rate, release)
            state.rate_delay += allowed - release
            release = allowed

        state.commands += 1
        state.payload_bytes += payload
        per_function = state.per_function
        per_function[command.function] = (
            per_function.get(command.function, 0) + 1)
        for resource, amount in estimates.items():
            state.resources[resource] = (
                state.resources.get(resource, 0.0) + amount)

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
                rate_delay=release - verified_at, scheduler="token-bucket",
            )

        try:
            worker = self.worker_resolver(command.vm_id, command.api)
        except WorkerLost as err:
            state.server_lost += 1
            return self._deny(command, release, f"server-lost ({err})",
                              tracer, "router.server-lost", reason=str(err))
        if worker is None:
            return self._deny(command, release,
                              f"no API server for VM {command.vm_id!r} "
                              f"API {command.api!r}")
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
            if reply.error is None and info.record_kind is not None:
                # the log decides what died; the table and a migration follow
                dead, consumed = state.logs[command.api].record(
                    command, reply, info.record_kind, info.success)
                if consumed or dead:
                    for gid in dead:
                        worker.handles.free(gid)
                    migration = state.migrating.get(command.api)
                    if migration is not None:
                        migration.released(command, dead, consumed)
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
            state.server_lost += 1
            return self._deny(command, release, f"server-lost ({err})",
                              tracer, "router.server-lost", reason=str(err))

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
