"""Fault injection at the transport's crossing step.

``FaultyTransport`` stands in for a real transport and replaces one
step of the shared exchange (:meth:`Transport._cross`, where an encoded
frame is handed to the router and the answer read back) with one that
consults a :class:`~repro.faults.plan.FaultPlan`: command frames may be
dropped, corrupted, delayed, or duplicated in flight, and reply frames
dropped or delayed.  Encoding, counters, pricing and the send span stay
the base class's, and the legs and span attributes are the wrapped
transport's, so a fault-free frame is priced exactly as it would be
without it.

Failure semantics mirror a real channel:

* a **dropped** frame (either leg) surfaces as a guest-side timeout —
  a result marked ``timed_out``, so the guest runtime's retry
  machinery can tell a lost frame from an API error;
* a **corrupted** command frame really reaches the router as damaged
  bytes (exercising the codec's trust boundary); the router's
  malformed-command reply is then surfaced as a retransmittable
  timeout, the way a CRC failure would be;
* a **duplicated** frame is delivered to the router twice — the paper's
  at-least-once hazard — with the stale reply discarded;
* a **delayed** frame just arrives late.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Tuple

from repro.faults.plan import FaultPlan
from repro.remoting.codec import CommandBatch, NeedBytes, Reply
from repro.remoting.wire import FrameLike, frame_bytes
from repro.telemetry import tracer as _tele
from repro.transport.base import Transport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.remoting.codec import Command


class FaultyTransport(Transport):
    """Wraps an inner transport, injecting faults from a plan."""

    def __init__(self, inner: Transport, plan: FaultPlan) -> None:
        super().__init__(inner.router)
        self.inner = inner
        self.vm_id = inner.vm_id
        self.plan = plan
        self.name = f"faulty+{inner.name}"
        # priced and traced as the wrapped transport
        self.send, self.enqueue, self.reply = (
            inner.send, inner.enqueue, inner.reply)
        self.span_attrs = inner.span_attrs

    # -- the fault-injecting crossing step ---------------------------------

    # the entry points are the base class's, named here so that
    # instrumentation wrapping each class's ``deliver``/``deliver_batch``
    # where it finds them (the observatory) meets every frame once
    deliver = Transport.deliver
    deliver_batch = Transport.deliver_batch

    def _trace_fault(self, kind: str, leg: str, command: "Command",
                     time: float) -> None:
        tracer = _tele.active()
        if tracer.enabled:
            tracer.record_span(
                f"fault.{kind}", time, time, layer="transport",
                parent_id=command.span_id, vm_id=command.vm_id,
                api=command.api, function=command.function,
                kind_detail=leg, seq=command.seq,
            )

    def _cross(self, frame: Any, wire: FrameLike,
               sent_at: float) -> Tuple[float, Any, float, int, bool]:
        """Carry one frame across under the plan; faults hit it whole.

        A batch is one frame on the wire, so a decision applies to it
        atomically: a dropped batch loses every inner command (and
        times out as one unit the guest may retransmit); a duplicated
        batch re-executes every inner command — the at-least-once
        hazard, batched.
        """
        plan = self.plan
        batch = isinstance(frame, CommandBatch)
        # the plan logs a batch under a stand-in identity (the first
        # inner command's seq, a synthetic function name)
        ident = _BatchFrame(frame) if batch else frame
        command_noun, reply_noun = (("batch frame", "reply batch") if batch
                                    else ("command frame", "reply frame"))

        def inject(kind: str, leg: str, time: float) -> None:
            plan.record(kind, leg, ident, time)
            self._trace_fault(kind, leg, ident, time)

        def lost(why: str) -> Tuple[float, Any, float, int, bool]:
            # a lost frame surfaces as a guest-side timeout: an error
            # reply the guest runtime can tell from an API error
            expires = sent_at + plan.timeout
            reply = Reply(
                seq=ident.seq, complete_time=expires,
                error=(f"transport: timeout after "
                       f"{plan.timeout * 1e6:.0f}us ({why})"))
            return sent_at, reply, expires, 0, True

        decision = plan.decide_command(ident)
        if decision.delay:
            inject("delay", "command", sent_at)
            sent_at += decision.delay
        if decision.drop:
            inject("drop", "command", sent_at)
            return lost(f"{command_noun} dropped")
        if decision.corrupt:
            # bit damage needs contiguous bytes: materialize a vectored
            # frame before flipping (the copy is the fault's, not ours)
            wire = plan.corrupt_bytes(frame_bytes(wire))
            inject("corrupt", "command", sent_at)
        if decision.duplicate:
            # at-least-once delivery: the frame arrives twice; the first
            # copy executes too, and its reply is discarded as stale
            inject("duplicate", "command", sent_at)
            self.router.deliver(wire, sent_at, source=self.vm_id)
        sent_at, answer, completed_at, reply_bytes, _ = super()._cross(
            frame, wire, sent_at)

        if isinstance(answer, Reply):
            if decision.corrupt and answer.error is not None:
                # the router detected the damage (failed CRC, in
                # effect): nothing executed, so retransmission is safe
                return lost(f"{command_noun} corrupted in flight")
            if batch:
                # batch-level rejection: the frame was never unbundled,
                # and its one-reply answer is not subject to faults
                return sent_at, answer, completed_at, reply_bytes, False
        # whatever else the router answered (a NeedBytes included) is an
        # ordinary host→guest frame, so reply-leg faults apply to it
        reply_decision = plan.decide_reply(ident)
        if reply_decision.drop:
            # unless it was a NeedBytes, the frame *did* execute
            # host-side; only the answer was lost
            inject("drop", "reply", completed_at)
            return lost("need-bytes reply dropped"
                        if isinstance(answer, NeedBytes)
                        else f"{reply_noun} dropped")
        if reply_decision.delay:
            inject("delay", "reply", completed_at)
            completed_at += reply_decision.delay
        return sent_at, answer, completed_at, reply_bytes, False


class _BatchFrame:
    """Command-shaped identity of a whole batch frame for fault logs."""

    def __init__(self, batch: "CommandBatch") -> None:
        self.vm_id = batch.vm_id
        self.function = f"<batch:{len(batch)}>"
        self.seq = batch.commands[0].seq if batch.commands else -1
        self.api = batch.commands[0].api if batch.commands else ""
        self.span_id = None
