"""Fault injection on the migration channel.

Live migration ships state over its own host-to-host channel (pre-copy
buffer frames, then the frozen-window delta).  That channel fails the
same ways the guest channel does, so the same seeded
:class:`~repro.faults.plan.FaultPlan` drives it: each migration frame
draws a drop / corrupt / delay / duplicate decision, and every injected
fault is recorded as a :class:`~repro.faults.plan.FaultEvent` with leg
``"precopy"`` or ``"cutover"`` so chaos runs can assert coverage per
migration leg.

Recovery is bounded retransmission: drops time out, corruptions are
detected by the frame CRC (the same framing guarantee
:meth:`FaultPlan.corrupt_bytes` models) and retransmitted, duplicates
are idempotent re-deliveries (content-addressed frames re-stage the
same bytes), delays just cost channel time.  When one frame exhausts
:attr:`MigrationPolicy.max_frame_retries`, the engine aborts the whole
migration back to a serving source — a half-shipped destination is
discarded, never handed traffic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from repro.faults.plan import FaultPlan
from repro.remoting.codec import Command

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.migration.live import MigrationPolicy


class MigrationFrameLost(Exception):
    """One migration frame exhausted its retransmission budget."""


def migration_frame(vm_id: str, leg: str, seq: int,
                    nbytes: int) -> Command:
    """The synthetic command a migration frame draws its fate as.

    Migration frames never enter the router — this exists so the fault
    plan's per-frame RNG stream and event log treat them like any other
    frame crossing a channel.
    """
    return Command(seq=seq, vm_id=vm_id, api="__migration__",
                   function=f"__{leg}__",
                   scalars={"nbytes": nbytes})


class MigrationChannel:
    """The (possibly chaotic) channel migration frames cross.

    ``ship`` returns the virtual seconds one frame spent on the wire,
    including injected faults and their bounded recovery.  With no
    fault plan armed the cost is exactly
    ``frame_latency + nbytes / channel_bps`` per frame.  The prices
    model a host-to-host channel with PCIe-class bandwidth.
    """

    #: channel bandwidth, bytes/second
    channel_bps = 12e9
    #: per-frame channel latency, seconds
    frame_latency = 10e-6
    #: sender timeout before retransmitting a dropped frame, seconds
    frame_timeout = 200e-6

    def __init__(self, vm_id: str, policy: "MigrationPolicy",
                 plan: Optional[FaultPlan] = None) -> None:
        self.vm_id = vm_id
        self.policy = policy
        self.plan = plan
        self._seq = 0
        #: frames retransmitted after an injected drop/corrupt
        self.retransmits = 0
        #: frames shipped (first attempts, not counting retries)
        self.frames = 0

    def transfer_time(self, nbytes: int) -> float:
        return self.frame_latency + nbytes / self.channel_bps

    def ship(self, leg: str, nbytes: int, now: float) -> Tuple[float, int]:
        """Ship one frame; returns ``(elapsed_seconds, retransmits)``.

        Raises :class:`MigrationFrameLost` once the frame has failed
        ``max_frame_retries`` times — the engine's abort trigger.
        """
        self._seq += 1
        self.frames += 1
        frame = migration_frame(self.vm_id, leg, self._seq, nbytes)
        elapsed = 0.0
        retries = 0
        while True:
            if self.plan is None:
                elapsed += self.transfer_time(nbytes)
                return elapsed, retries
            decision = self.plan.decide_command(frame)
            if decision.delay:
                self.plan.record("delay", leg, frame, now + elapsed)
                elapsed += decision.delay
            if decision.drop:
                # the receiver never acks; the sender times out and
                # retransmits
                self.plan.record("drop", leg, frame, now + elapsed)
                elapsed += self.frame_timeout
                retries += 1
                self.retransmits += 1
                if retries > self.policy.max_frame_retries:
                    raise MigrationFrameLost(
                        f"{leg} frame #{frame.seq} dropped "
                        f"{retries} times"
                    )
                continue
            elapsed += self.transfer_time(nbytes)
            if decision.corrupt:
                # frame CRC fails at the receiver; retransmit
                self.plan.record("corrupt", leg, frame, now + elapsed)
                retries += 1
                self.retransmits += 1
                if retries > self.policy.max_frame_retries:
                    raise MigrationFrameLost(
                        f"{leg} frame #{frame.seq} corrupted "
                        f"{retries} times"
                    )
                continue
            if decision.duplicate:
                # idempotent re-delivery: the duplicate re-stages the
                # same content-addressed bytes, costing only wire time
                self.plan.record("duplicate", leg, frame, now + elapsed)
                elapsed += self.transfer_time(nbytes)
            return elapsed, retries
