"""Transport abstraction: encoded commands in, encoded replies out.

A transport's job in this reproduction is deliberately honest: it really
encodes the :class:`~repro.remoting.codec.Command` to wire bytes, really
hands those bytes to the router, and really decodes the reply bytes —
so a marshaling bug breaks tests rather than hiding behind an in-memory
shortcut.  Timing comes from each transport's prices, constants of the
class that charges them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.remoting.codec import (
    Command,
    CommandBatch,
    NeedBytes,
    Reply,
    ReplyBatch,
)
from repro.remoting.wire import FrameLike, WireCodec
from repro.telemetry import tracer as _tele

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.hypervisor.router import Router


class TransportError(Exception):
    """Transport-level failure (oversized frame, closed channel...)."""


@dataclass(frozen=True)
class Leg:
    """The price of one leg of a frame's trip across a channel:
    ``frame + units × per_unit + nbytes × per_byte`` seconds.

    A unit is what the channel moves a frame in (a ring drain batch, a
    network packet) of ``unit_bytes`` each; a frame counts at least one.
    """

    frame: float
    per_byte: float
    per_unit: float = 0.0
    unit_bytes: int = 1

    def price(self, nbytes: int) -> float:
        units = -(-nbytes // self.unit_bytes) or 1
        return self.frame + units * self.per_unit + nbytes * self.per_byte


@dataclass
class DeliveryResult:
    """Outcome of one forwarded frame: a lone command or a coalesced
    :class:`CommandBatch`.

    ``replies``      — one reply per command, in command order; empty
                       when the frame failed as a whole.
    ``sent_at``      — guest time when the last byte left the guest.
    ``completed_at`` — host time when execution finished.
    ``reply_cost``   — transport seconds for a lone command's reply leg
                       (charged to the guest only if it synchronously
                       waits); a batch's is 0.
    ``timed_out``    — no answer arrived before the transport's timeout
                       (frame lost or damaged in flight); ``error``
                       says why and, when every command is idempotent,
                       the guest runtime may retransmit.
    ``error``        — why the frame failed as a whole: lost in flight,
                       or a batch the router refused without unbundling.
    ``need_bytes``   — the router answered with a
                       :class:`~repro.remoting.codec.NeedBytes`: cached
                       refs missed the transfer store and nothing
                       executed; the guest runtime restores the elided
                       payloads and re-delivers once.
    """

    replies: List[Reply]
    sent_at: float
    completed_at: float
    reply_cost: float = 0.0
    timed_out: bool = False
    error: Optional[str] = None
    need_bytes: Optional[NeedBytes] = None

    @property
    def failed(self) -> bool:
        """The frame as a whole never produced per-command replies."""
        return (self.timed_out or self.error is not None
                or self.need_bytes is not None)


class Transport:
    """Base class: the shared delivery mechanics.  A subclass declares
    three legs: ``send`` prices a sync command, ``enqueue`` an async one
    or a batch frame (queued without a doorbell round trip, §4.2), and
    ``reply`` a lone command's answer."""

    name = "abstract"
    #: the VM whose frames this channel carries (set by ``create_vm``),
    #: the router's sender; None on a hand-built channel
    vm_id: Optional[str] = None
    send: Leg
    enqueue: Leg
    reply: Leg

    def __init__(self, router: "Router") -> None:
        self.router = router
        #: the codec this channel marshals frames with: the router's, so
        #: both ends of the channel agree
        self.codec: WireCodec = router.codec
        #: bytes moved guest→host / host→guest (metrics)
        self.tx_bytes = 0
        self.rx_bytes = 0
        self.messages = 0

    def span_attrs(self, nbytes: int) -> Dict[str, Any]:
        """Transport-specific attributes for the ``transport.send`` span.

        Subclasses add what explains their cost shape (doorbells, ring
        slots, packets).
        """
        return {}

    # -- delivery ------------------------------------------------------------

    def deliver(self, command: Command, guest_now: float,
                asynchronous: bool = False) -> DeliveryResult:
        """Forward one command through the router and collect the reply.

        ``guest_now`` is the guest's virtual time at submission; the
        returned timestamps let the guest runtime implement sync and
        async semantics without the transport caring which it is.
        """
        return self._exchange(
            command, guest_now,
            self.enqueue if asynchronous else self.send,
            "async" if asynchronous else "sync")

    def deliver_batch(self, batch: CommandBatch,
                      guest_now: float) -> DeliveryResult:
        """Forward one coalesced frame of async commands, as one frame.

        The whole batch crosses the channel in a single delivery, priced
        as one asynchronous submission of its summed bytes (one
        doorbell-equivalent fixed charge, not one per command), and the
        router answers with a single :class:`ReplyBatch`.
        """
        return self._exchange(batch, guest_now, self.enqueue, "batch")

    def _exchange(self, frame: Any, guest_now: float, leg: Leg,
                  submit: str) -> DeliveryResult:
        """Put one frame across the channel and read the answer.

        The one body behind both entry points: they differ only in the
        ``leg`` that prices the frame and the ``submit`` kind its span
        records.  Only a lone command pays for its reply leg.
        """
        wire = self.codec.encode_command(frame)
        nbytes = len(wire)
        self.tx_bytes += nbytes
        self.messages += 1
        sent_at = guest_now + leg.price(nbytes)
        tracer = _tele.active()
        if tracer.enabled:
            # a command's send hangs off the guest call that issued
            # it; a batch's flush names how many calls it carries
            span, whose = (
                ("transport.flush",
                 {"function": "<batch>", "commands": len(frame)})
                if isinstance(frame, CommandBatch) else
                ("transport.send",
                 {"parent_id": frame.span_id, "api": frame.api,
                  "function": frame.function}))
            tracer.record_span(
                span, guest_now, sent_at, layer="transport",
                vm_id=frame.vm_id, transport=self.name, wire_bytes=nbytes,
                **whose, submit=submit, **self.span_attrs(nbytes))
        sent_at, answer, completed_at, reply_bytes, lost = self._cross(
            frame, wire, sent_at)
        if lost:
            return DeliveryResult([], sent_at, completed_at, timed_out=True,
                                  error=answer.error)
        if submit == "batch":
            if isinstance(answer, ReplyBatch):
                return DeliveryResult(answer.replies, sent_at, completed_at)
            if isinstance(answer, NeedBytes):
                return DeliveryResult([], sent_at, completed_at,
                                      need_bytes=answer)
            # one Reply for the whole frame: the router rejected it
            # without unbundling
            return DeliveryResult(
                [], sent_at, completed_at,
                error=answer.error or "router returned an empty reply")
        reply_cost = self.reply.price(reply_bytes)
        if isinstance(answer, Reply):
            return DeliveryResult([answer], sent_at, completed_at,
                                  reply_cost)
        if isinstance(answer, NeedBytes):
            # the frame's cached refs missed: nothing executed; the
            # guest runtime restores the payloads and re-delivers
            return DeliveryResult([], sent_at, completed_at, reply_cost,
                                  need_bytes=answer)
        raise TransportError("router returned a non-reply message")

    def _cross(self, frame: Any, wire: FrameLike,
               sent_at: float) -> Tuple[float, Any, float, int, bool]:
        """The crossing step: hand the encoded frame to the router.

        Returns ``(sent_at, answer, completed_at, reply_bytes, lost)``;
        the fault injector overrides this step and nothing else, and
        only it reports ``lost`` (``answer`` is then the timeout
        :class:`Reply`) or moves the two timestamps.
        """
        # the channel, not the frame, attests who is sending: the router
        # refuses a frame naming another VM, and its circuit breaker
        # keys on this even when the frame won't decode.
        # The frame crosses as-is — a zero-copy codec's vectored
        # [header, *buffer_views] segments are never flattened here.
        reply_wire = self.router.deliver(wire, arrival=sent_at,
                                         source=self.vm_id)
        answer = self.codec.decode_reply(reply_wire, reply_to=frame)
        self.rx_bytes += len(reply_wire)
        if not isinstance(answer, (Reply, ReplyBatch, NeedBytes)):
            raise TransportError("router returned a non-reply message")
        return sent_at, answer, answer.complete_time, len(reply_wire), False
