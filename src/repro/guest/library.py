"""The guest invocation runtime behind every generated stub.

Generated guest libraries contain the API-specific logic (argument
classification, size expressions, sync conditions — all inlined by
CAvA); this runtime supplies the API-agnostic machinery:

* building and costing the :class:`~repro.remoting.codec.Command`,
* submitting through the hypervisor transport,
* sync semantics (block until completion + reply leg) vs async
  semantics (return the type's success value immediately; §4.2),
* applying reply outputs to the caller's buffers/boxes in place,
* deferred async error delivery — an async call's failure surfaces on
  the next synchronous call, the fidelity loss the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.guest.batching import BatchPolicy
from repro.guest.driver import GuestDriver
from repro.remoting.buffers import (
    OutBox,
    borrow_bytes,
    own_bytes,
    own_payloads,
    read_bytes,
    write_back,
)
from repro.remoting.codec import CodecError, Command, CommandBatch, Reply
from repro.remoting.speccodec import _SPLICE_THRESHOLD
from repro.remoting.xfercache import TransferCache
from repro.telemetry import flightrec as _flightrec
from repro.telemetry import tracer as _tele
from repro.transport.base import BatchDeliveryResult

#: payloads the transfer cache elided from one command, kept guest-side
#: so a NeedBytes answer can restore them: param → (kind, original,
#: digest, size, position in its section)
Elided = Dict[str, Tuple[str, Any, bytes, int, int]]


class RemotingError(Exception):
    """Infrastructure failure of the forwarding path itself.

    Native API errors travel as ordinary return codes; this exception is
    reserved for breakage of the remoting machinery (router rejection,
    server fault, marshaling bug) — cases where a real guest library
    would have no honest error code to return.
    """


@dataclass
class _StagedCall:
    """One async command parked in the coalescing queue."""

    command: Command
    function: str
    out_targets: Dict[str, Tuple[str, Any]]
    success: Any
    retry_safe: bool
    #: payloads elided by the transfer cache
    elided: Elided = field(default_factory=dict)
    #: digests of eligible payloads this command carried in full
    sent_digests: List[Tuple[bytes, int]] = field(default_factory=list)


class GuestRuntime:
    """Per-VM, per-API invocation runtime."""

    def __init__(
        self,
        driver: GuestDriver,
        api_name: str,
        marshal_call_cost: float = 0.6e-6,
        marshal_byte_cost: float = 0.002e-9,
        retry_policy: Optional[Any] = None,
        batch_policy: Optional[BatchPolicy] = None,
        xfer_cache: Optional[TransferCache] = None,
    ) -> None:
        self.driver = driver
        self.api_name = api_name
        self.marshal_call_cost = marshal_call_cost
        self.marshal_byte_cost = marshal_byte_cost
        #: RetryPolicy for transport timeouts; None disables retries
        #: (the default, so the fault-free path is cost-identical)
        self.retry_policy = retry_policy
        #: BatchPolicy for async coalescing; None (or enabled=False)
        #: keeps the per-call async path bit-identical
        self.batch_policy = batch_policy
        #: TransferCache for content-addressed payload elision; None (or
        #: a disabled policy) keeps wire frames bit-identical
        self.xfer_cache = xfer_cache
        #: deferred error from an earlier async call (delivered later)
        self.pending_async_error: Optional[float] = None
        #: guest callback registry: id → callable (§4.2 callbacks)
        self._callbacks: Dict[int, Any] = {}
        self._next_callback_id = 1
        #: counters for tests and the harness
        self.calls_sync = 0
        self.calls_async = 0
        #: transport-failure recovery counters
        self.retries = 0
        self.giveups = 0
        #: coalescing queue state and counters
        self._queue: List[_StagedCall] = []
        self._queued_bytes = 0
        self.batches_flushed = 0
        self.commands_coalesced = 0
        self._callback_armed = False

    @property
    def clock(self):
        return self.driver.clock

    # -- tracing hooks generated stubs call ------------------------------------

    def trace_begin(self, function: str):
        """Open the per-call ``function`` span (no-op when tracing is off).

        Generated guest stubs call this on entry, so *generated code is
        traced code*: the span tree for every forwarded call is rooted at
        the guest stub, exactly where a real application enters the API.
        """
        tracer = _tele.active()
        if not tracer.enabled:
            return None
        parent = tracer.container(
            self.driver.vm_id, self.api_name, self.clock.now
        )
        return tracer.start_span(
            function,
            self.clock.now,
            layer="guest",
            kind="function",
            vm_id=self.driver.vm_id,
            api=self.api_name,
            function=function,
            parent_id=parent.span_id if parent is not None else None,
        )

    def trace_end(self, span) -> None:
        """Close a span opened by :meth:`trace_begin` at guest-now."""
        if span is not None and not span.finished:
            _tele.active().end_span(span, self.clock.now)

    # -- helpers generated stubs call ------------------------------------------

    @staticmethod
    def handle_list(values: Optional[List[Any]],
                    count: Optional[int] = None) -> Optional[List[int]]:
        """Marshal a guest-side handle array (list of guest ids)."""
        if values is None:
            return None
        items = list(values) if count is None else list(values)[: int(count)]
        result = []
        for item in items:
            if item is None:
                result.append(0)
            elif isinstance(item, int):
                result.append(item)
            else:
                raise RemotingError(
                    f"handle array contains a non-handle {type(item).__name__}"
                )
        return result

    def register_callback(self, fn: Any) -> Optional[int]:
        """Marshal a guest function pointer as a callback-registry id.

        The same callable registers once; the host forwards invocations
        back with replies, deferred to the call's completion — the same
        fidelity contract as async error delivery (§4.2).
        """
        if fn is None:
            return None
        if not callable(fn):
            raise RemotingError(
                f"callback parameter expects a callable, got "
                f"{type(fn).__name__}"
            )
        # a callback-bearing call must see its reply leg: flag the next
        # submission so a staged version flushes immediately
        self._callback_armed = True
        for cb_id, existing in self._callbacks.items():
            if existing is fn:
                return cb_id
        cb_id = self._next_callback_id
        self._next_callback_id += 1
        self._callbacks[cb_id] = fn
        return cb_id

    def _deliver_callbacks(self, reply: Reply, function: str) -> None:
        for entry in reply.callbacks:
            cb_id, args = entry[0], entry[1]
            fn = self._callbacks.get(cb_id)
            if fn is None:
                raise RemotingError(
                    f"{function}: host invoked unknown callback {cb_id}"
                )
            fn(*args)

    @staticmethod
    def read_buffer(value: Any, nbytes: int, param: str) -> Any:
        """The call's view of an ``in`` buffer: owned ``bytes`` below the
        splice threshold, the caller's memory borrowed until the call
        returns at or above it (see :func:`borrow_bytes`)."""
        if nbytes < 0:
            raise RemotingError(
                f"size expression for parameter {param!r} evaluated to "
                f"{nbytes} (< 0)"
            )
        data = (read_bytes if nbytes < _SPLICE_THRESHOLD
                else borrow_bytes)(value, limit=nbytes)
        if len(data) < nbytes:
            raise RemotingError(
                f"parameter {param!r}: caller buffer has {len(data)} bytes, "
                f"spec says the call reads {nbytes}"
            )
        return data

    # -- submission ----------------------------------------------------------------

    def submit(
        self,
        function: str,
        mode: str,
        scalars: Dict[str, Any],
        handles: Dict[str, Any],
        in_buffers: Dict[str, bytes],
        out_sizes: Dict[str, int],
        out_targets: Dict[str, Tuple[str, Any]],
        ret_kind: str = "scalar",
        success: Any = 0,
    ) -> Any:
        """Forward one call.  ``out_targets`` maps parameter names to
        (kind, target) pairs with kind in {"buffer", "scalar_box",
        "handle_box", "handle_array"}."""
        tracer = _tele.active()
        span = None
        owns_span = False
        if tracer.enabled:
            span = tracer.current()
            if span is None or span.kind != "function":
                # caller bypassed the generated stub (hand-written tests,
                # exploratory use): open the root span here instead
                span = self.trace_begin(function)
                owns_span = True
        try:
            return self._submit(
                function, mode, scalars, handles, in_buffers, out_sizes,
                out_targets, ret_kind, success, tracer, span,
            )
        finally:
            if owns_span:
                self.trace_end(span)

    def _submit(
        self,
        function: str,
        mode: str,
        scalars: Dict[str, Any],
        handles: Dict[str, Any],
        in_buffers: Dict[str, bytes],
        out_sizes: Dict[str, int],
        out_targets: Dict[str, Tuple[str, Any]],
        ret_kind: str,
        success: Any,
        tracer: Any,
        span: Any,
    ) -> Any:
        clock = self.driver.clock
        # did marshaling this call register a guest callback?  (stubs
        # call register_callback immediately before submit)
        wants_callback = self._callback_armed
        self._callback_armed = False
        if self._queue and mode == "sync" and (
                self.batch_policy is None
                or self.batch_policy.flush_before_sync):
            # synchronization point: queued async work crosses the
            # channel ahead of the blocking call, preserving program
            # order and the deferred-error contract.  (flush_before_sync
            # is only ever False in sanitizer tests that seed ordering
            # violations on purpose.)
            self._flush("sync")
        elided: Elided = {}
        sent_digests: List[Tuple[bytes, int]] = []
        cached_refs: Dict[str, List[Any]] = {}
        if self.xfer_cache is not None and self.xfer_cache.policy.enabled:
            (in_buffers, scalars, elided, sent_digests,
             cached_refs) = self._elide_payloads(in_buffers, scalars, clock)
        payload = (sum(map(len, in_buffers.values()))
                   if in_buffers else 0)
        marshal_start = clock.now
        clock.advance(
            self.marshal_call_cost + payload * self.marshal_byte_cost,
            "marshal",
        )
        command = Command(
            seq=self.driver.next_seq(),
            vm_id=self.driver.vm_id,
            api=self.api_name,
            function=function,
            mode=mode,
            scalars=scalars,
            handles=handles,
            in_buffers=in_buffers,
            out_sizes=out_sizes,
            issue_time=clock.now,
            cached_refs=cached_refs,
        )
        if span is not None:
            span.attrs.update(
                seq=command.seq, mode=mode, payload_bytes=payload,
            )
            # propagate the trace context on the wire: host-side layers
            # parent their spans on these ids, not on shared state
            command.trace_id = tracer.trace_id
            command.span_id = span.span_id
            tracer.record_span(
                "marshal", marshal_start, clock.now,
                layer="guest", bytes=payload,
            )
        if (mode == "async" and self.batch_policy is not None
                and self.batch_policy.enabled):
            self.calls_async += 1
            self._stage(command, function, out_targets, ret_kind,
                        success, wants_callback, payload, tracer, span,
                        elided, sent_digests)
            return success

        try:
            result = self.driver.transport.deliver(
                command, clock.now, asynchronous=(mode == "async")
            )
            if result.timed_out or result.need_bytes is not None:
                result = self._recover(
                    lambda now: self.driver.transport.deliver(
                        command, now, asynchronous=(mode == "async")),
                    result, [(command, elided)],
                    self._retryable(mode, ret_kind, out_targets),
                    {"function": function, "seq": command.seq}, span)
        except CodecError as err:
            # an argument the wire cannot carry is the forwarding
            # path's failure, not an API error code
            raise RemotingError(f"{function}: {err}") from err
        cache = self.xfer_cache
        if result.need_bytes is not None:
            # the resent frame carried every payload in full, so a
            # second NeedBytes is a protocol violation: surface it as a
            # remoting error, never as wrong bytes
            result = replace(result, need_bytes=None, reply=Reply(
                seq=command.seq,
                error=("transfer cache: full-payload retransmission "
                       "answered NeedBytes again"),
                complete_time=result.completed_at))
        elif (elided and not command.cached_refs and cache is not None
                and not result.timed_out):
            # resent in full (the refs are gone), and it arrived: the
            # store holds the once-elided payloads again
            for _kind, _original, digest, size, _at in elided.values():
                cache.note_delivered(digest, size)
        if cache is not None and not result.timed_out:
            for digest, size in sent_digests:
                cache.note_delivered(digest, size)
        clock.advance_to(result.sent_at, "transport")

        if mode == "async":
            self.calls_async += 1
            self._note_async_outcome(result.reply, success)
            # Outputs that did come back are applied eagerly: semantically
            # the data "lands by the time the guest synchronizes", which a
            # well-formed guest cannot distinguish.  Errors remain the
            # fidelity loss async forwarding cannot repair (§4.2).
            if result.reply.error is None:
                self._apply_outputs(result.reply, out_targets, function)
                self._deliver_callbacks(result.reply, function)
            return success

        self.calls_sync += 1
        reply = result.reply
        if reply.error is not None:
            if span is not None:
                span.attrs["error"] = reply.error
            raise RemotingError(f"{function}: {reply.error}")
        # wait for host completion, then pay the reply leg and unmarshal
        wait_start = clock.now
        clock.advance_to(result.completed_at, "host_wait")
        recv_start = clock.now
        clock.advance(result.reply_cost, "transport")
        reply_bytes = reply.payload_bytes()
        unmarshal_start = clock.now
        clock.advance(
            self.marshal_call_cost + reply_bytes * self.marshal_byte_cost,
            "marshal",
        )
        if span is not None:
            if recv_start > wait_start:
                tracer.record_span(
                    "wait.reply", wait_start, recv_start, layer="guest",
                    server_span=reply.span_id,
                )
            tracer.record_span(
                "transport.recv", recv_start, unmarshal_start,
                layer="transport", bytes=reply_bytes,
            )
            tracer.record_span(
                "unmarshal", unmarshal_start, clock.now,
                layer="guest", bytes=reply_bytes,
            )
            span.attrs["reply_bytes"] = reply_bytes
        self._apply_outputs(reply, out_targets, function)
        self._deliver_callbacks(reply, function)
        value = self._map_return(reply, ret_kind)
        if self.pending_async_error is not None and ret_kind == "scalar":
            deferred, self.pending_async_error = self.pending_async_error, None
            if value == success:
                return deferred
        return value

    # -- the transfer cache (guest half) ------------------------------------------

    def _elide_payloads(
        self,
        in_buffers: Dict[str, bytes],
        scalars: Dict[str, Any],
        clock: Any,
    ) -> Tuple[Dict[str, bytes], Dict[str, Any], Elided,
               List[Tuple[bytes, int]], Dict[str, List[Any]]]:
        """Replace cache-resident payloads with digest-only refs.

        Eligible ``in`` buffers and large string scalars (kernel and
        program sources) that the server store is believed to hold are
        dropped from the outgoing command and represented by cached
        refs; the original values are kept guest-side so a
        :class:`~repro.remoting.codec.NeedBytes` answer can restore
        them.  Returns the (possibly reduced) buffers and scalars, the
        kept originals, the digests of eligible payloads still sent in
        full, and the wire-form refs.
        """
        cache = self.xfer_cache
        cost = 0.0
        elided: Elided = {}
        sent_digests: List[Tuple[bytes, int]] = []
        refs: Dict[str, List[Any]] = {}
        kept_buffers: Dict[str, bytes] = {}
        for name, chunk in in_buffers.items():
            ref, decide_cost, digest = cache.consider(name, chunk, "buf")
            cost += decide_cost
            if ref is not None:
                elided[name] = ("buf", chunk, digest, len(chunk),
                                list(in_buffers).index(name))
                refs[name] = ref.to_wire()
            else:
                kept_buffers[name] = chunk
                if digest is not None:
                    sent_digests.append((digest, len(chunk)))
        reduced_scalars: Optional[Dict[str, Any]] = None
        for name, value in scalars.items():
            if not isinstance(value, str):
                continue
            encoded = value.encode("utf-8")
            ref, decide_cost, digest = cache.consider(name, encoded, "str")
            cost += decide_cost
            if ref is not None:
                if reduced_scalars is None:
                    reduced_scalars = dict(scalars)
                del reduced_scalars[name]
                elided[name] = ("str", value, digest, len(encoded),
                                list(scalars).index(name))
                refs[name] = ref.to_wire()
            elif digest is not None:
                sent_digests.append((digest, len(encoded)))
        if cost > 0.0:
            clock.advance(cost, "xfercache")
        return (kept_buffers,
                reduced_scalars if reduced_scalars is not None else scalars,
                elided, sent_digests, refs)

    @staticmethod
    def _restore_elided(
        command: Command,
        elided: Elided,
    ) -> None:
        """Put every elided payload back into a command, dropping refs.

        Each goes back where the stub put it, so the resent frame is the
        one an uncached call sends: its sections stay in spec order.
        """
        for name, (kind, original, _digest, _size, at) in elided.items():
            section = "in_buffers" if kind == "buf" else "scalars"
            items = list(getattr(command, section).items())
            items.insert(at, (name, original))
            setattr(command, section, dict(items))
        command.cached_refs = {}

    def _recover(self, redeliver: Callable[[float], Any], result: Any,
                 restores: List[Tuple[Command, Any]], retryable: bool,
                 ident: Dict[str, Any], span: Any = None) -> Any:
        """Recover a frame (one command or a batch) whose exchange failed.

        A timed-out frame is retransmitted with backoff when every
        command in it is idempotent (``retryable``); a frame whose
        cached refs missed is resent once in full, and that
        retransmission retried the same way.  ``redeliver(now)`` sends
        the frame again; ``ident`` is how logs name it — a command by
        ``function`` and ``seq``, a batch by ``what="batch"`` and its
        first ``seq``; ``restores`` pairs each command of the frame with
        its elided payloads.  Whatever the last attempt came back with
        is the caller's to interpret.
        """
        if result.timed_out and retryable:
            result = self._retry(redeliver, result, ident, span)
        if result.need_bytes is not None:
            result = self._resend_in_full(redeliver, result, restores,
                                          ident)
            if result.timed_out and retryable:
                result = self._retry(redeliver, result, ident, span)
        return result

    def _resend_in_full(self, redeliver: Callable[[float], Any],
                        result: Any, restores: List[Tuple[Command, Any]],
                        ident: Dict[str, Any]) -> Any:
        """The router asked for elided payloads back: retransmit once.

        A ``NeedBytes`` answer guarantees *nothing* executed host-side
        (the router resolves a frame's refs transactionally), so
        re-delivery is always safe — no idempotence restriction, the
        crucial difference from a timeout.  The retransmitted frame
        carries every elided payload in full, so it cannot miss again.
        """
        clock = self.driver.clock
        cache = self.xfer_cache
        needed = result.need_bytes
        # live through the failed exchange: command leg, host detection,
        # and the (digest-sized) NeedBytes reply leg — charged where the
        # result carries a cost for it: a command's does, a batch's not
        clock.advance_to(result.sent_at, "transport")
        clock.advance_to(result.completed_at, "host_wait")
        reply_cost = getattr(result, "reply_cost", 0.0)
        if reply_cost > 0.0:
            clock.advance(reply_cost, "transport")
        if cache is not None:
            cache.forget([entry[2] for entry in needed.missing])
            cache.retransmits += 1
        for command, elided in restores:
            self._restore_elided(command, elided)
        tracer = _tele.active()
        if tracer.enabled:
            tracer.record_span(
                "xfer.retransmit", clock.now, clock.now, layer="guest",
                vm_id=self.driver.vm_id, api=self.api_name,
                function=ident.get("function", "<batch>"),
                seq=ident["seq"], missing=len(needed.missing),
            )
        return redeliver(clock.now)

    # -- async command coalescing -------------------------------------------------

    def _stage(
        self,
        command: Command,
        function: str,
        out_targets: Dict[str, Tuple[str, Any]],
        ret_kind: str,
        success: Any,
        wants_callback: bool,
        payload: int,
        tracer: Any,
        span: Any,
        elided: Optional[Elided] = None,
        sent_digests: Optional[List[Tuple[bytes, int]]] = None,
    ) -> None:
        """Park an async command in the coalescing queue.

        The call returns its success value to the guest immediately (as
        any async call does); the command crosses the channel at the
        next flush, as part of one batched wire frame.
        """
        policy = self.batch_policy
        clock = self.driver.clock
        # the queue outlives the call: what it holds of the caller's
        # memory (payloads, and originals kept for a NeedBytes resend)
        # is copied here, as of the call
        if command.in_buffers or elided:
            own_payloads(command.in_buffers)
            for name, (kind, original, digest, size,
                       at) in (elided or {}).items():
                if kind == "buf":
                    elided[name] = (kind, own_bytes(original), digest, size,
                                    at)
        # re-execution after a lost batch must not mint handles the
        # guest would leak — same idempotence rule as sync retries
        retry_safe = (ret_kind != "handle" and not any(
            kind in ("handle_box", "handle_array")
            for kind, _target in out_targets.values()))
        queue_start = clock.now
        clock.advance(policy.queue_cost, "transport")
        if span is not None:
            tracer.record_span(
                "batch.queue", queue_start, clock.now, layer="guest",
                queued=len(self._queue) + 1, bytes=payload,
            )
        self._queue.append(_StagedCall(command, function, out_targets,
                                       success, retry_safe,
                                       elided=elided or {},
                                       sent_digests=sent_digests or []))
        self._queued_bytes += payload
        needs_reply = wants_callback or any(
            target is not None for _kind, target in out_targets.values())
        if needs_reply:
            # outputs/callbacks must land by the time the guest could
            # observe them: take the reply leg now
            self._flush("reply-leg")
        elif (len(self._queue) >= policy.max_commands
              or self._queued_bytes >= policy.max_bytes):
            self._flush("threshold")

    def flush(self, reason: str = "explicit") -> None:
        """Flush any queued async commands as one coalesced frame."""
        if self._queue:
            self._flush(reason)

    def _flush(self, reason: str) -> None:
        clock = self.driver.clock
        staged, self._queue = self._queue, []
        payload_bytes, self._queued_bytes = self._queued_bytes, 0
        batch = CommandBatch(
            vm_id=self.driver.vm_id,
            commands=[entry.command for entry in staged],
            flush_time=clock.now,
        )
        flush_start = clock.now
        try:
            result = self.driver.transport.deliver_batch(batch, clock.now)
            if result.timed_out or result.need_bytes is not None:
                # if recovery fails too, the result surfaces below as
                # the usual deferred async error
                result = self._recover(
                    lambda now: self.driver.transport.deliver_batch(batch,
                                                                    now),
                    result,
                    [(entry.command, entry.elided) for entry in staged],
                    (self.retry_policy is not None
                     and all(entry.retry_safe for entry in staged)),
                    {"what": "batch", "seq": (batch.commands[0].seq
                                              if batch.commands else -1)})
        except CodecError as err:
            # a staged argument the wire cannot carry: the frame never
            # left, and the batch fails as a whole, like a lost one
            result = BatchDeliveryResult(sent_at=flush_start,
                                         completed_at=flush_start,
                                         error=f"codec: {err}")
        clock.advance_to(result.sent_at, "transport")
        self.batches_flushed += 1
        self.commands_coalesced += len(staged)
        tracer = _tele.active()
        if tracer.enabled:
            tracer.record_span(
                "batch.flush", flush_start, clock.now, layer="guest",
                vm_id=self.driver.vm_id, api=self.api_name,
                function="<batch>", commands=len(staged), reason=reason,
                payload_bytes=payload_bytes, timed_out=result.timed_out,
            )
        if result.failed or len(result.replies) != len(staged):
            # the whole frame (or its reply) was lost or rejected: every
            # staged call failed, surfacing on the next sync call (§4.2)
            if self.pending_async_error is None:
                self.pending_async_error = -1001.0
            return
        if self.xfer_cache is not None:
            for entry in staged:
                for digest, size in entry.sent_digests:
                    self.xfer_cache.note_delivered(digest, size)
                for _kind, _orig, digest, size, _at in entry.elided.values():
                    if not entry.command.cached_refs:
                        # the batch was retransmitted in full
                        self.xfer_cache.note_delivered(digest, size)
        for entry, reply in zip(staged, result.replies):
            self._note_async_outcome(reply, entry.success)
            if reply.error is None:
                self._apply_outputs(reply, entry.out_targets,
                                    entry.function)
                self._deliver_callbacks(reply, entry.function)

    # -- transport-failure recovery ---------------------------------------------

    def _retryable(self, mode: str, ret_kind: str,
                   out_targets: Dict[str, Tuple[str, Any]]) -> bool:
        """Only idempotent calls may be retransmitted.

        A lost frame leaves the guest unsure whether the call executed
        host-side; retransmission is safe only when re-execution cannot
        mint fresh handles the guest would then leak (sync calls that
        neither return nor output handles).  Async submissions are never
        retried — their errors already arrive late by design (§4.2).
        """
        if self.retry_policy is None or mode != "sync":
            return False
        if ret_kind == "handle":
            return False
        return not any(kind in ("handle_box", "handle_array")
                       for kind, _target in out_targets.values())

    def _retry(self, redeliver: Callable[[float], Any], result: Any,
               ident: Dict[str, Any], span: Any = None) -> Any:
        """Retransmit a timed-out idempotent frame with backoff."""
        policy = self.retry_policy
        clock = self.driver.clock
        tracer = _tele.active()
        for attempt in range(policy.max_retries):
            if not result.timed_out:
                return result
            backoff = policy.backoff_for(attempt)
            # sit out the timeout window, then back off and retransmit
            clock.advance_to(result.completed_at, "retry")
            backoff_start = clock.now
            clock.advance(backoff, "retry")
            self.retries += 1
            if tracer.enabled:
                # a lost command's cause is its synthesized reply's
                # error; a lost batch carries it on the result
                cause = (result.reply.error if hasattr(result, "reply")
                         else result.error)
                tracer.record_span(
                    "retry", backoff_start, clock.now, layer="guest",
                    attempt=attempt + 1, seq=ident["seq"],
                    backoff=backoff, cause=cause,
                )
            result = redeliver(clock.now)
        if result.timed_out:
            self.giveups += 1
            if span is not None:
                span.attrs["gave_up_after"] = policy.max_retries
            recorder = _flightrec.active()
            if recorder.enabled:
                recorder.incident(
                    "giveup", now=clock.now,
                    vm_id=self.driver.vm_id, api=self.api_name, **ident,
                )
        return result

    # -- reply handling ---------------------------------------------------------

    def _note_async_outcome(self, reply: Reply, success: Any) -> None:
        if reply.error is not None:
            # infrastructure fault on an async call: surface it later too
            if self.pending_async_error is None:
                self.pending_async_error = -1001.0
        elif reply.return_value not in (None, success):
            if self.pending_async_error is None:
                value = reply.return_value
                self.pending_async_error = (
                    value if isinstance(value, (int, float)) else -1001.0
                )

    def _apply_outputs(
        self,
        reply: Reply,
        out_targets: Dict[str, Tuple[str, Any]],
        function: str,
    ) -> None:
        for name, (kind, target) in out_targets.items():
            if target is None:
                continue
            if kind == "buffer":
                chunk = reply.out_payloads.get(name)
                if chunk is not None:
                    write_back(target, chunk)
            elif kind == "scalar_box":
                if name in reply.out_scalars:
                    target[0] = reply.out_scalars[name]
            elif kind == "handle_box":
                if name in reply.new_handles:
                    target[0] = reply.new_handles[name]
            elif kind == "handle_array":
                ids = reply.new_handles.get(name)
                if ids is not None:
                    for index, guest_id in enumerate(ids):
                        target[index] = guest_id
            else:
                raise RemotingError(
                    f"{function}: unknown output kind {kind!r} for {name!r}"
                )

    def _map_return(self, reply: Reply, ret_kind: str) -> Any:
        if ret_kind == "handle":
            return reply.new_handles.get("__ret__")
        if ret_kind == "none":
            return None
        return reply.return_value
