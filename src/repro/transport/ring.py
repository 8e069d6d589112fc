"""A bounded shared-memory ring transport.

Commands are copied into fixed-size ring slots; a message larger than one
slot occupies several and pays one doorbell per slot batch.  This models
the SVGA-style FIFO queue the paper cites as the interposition-preserving
transport design, and gives the transport ablation a distinct cost shape:
cheap small commands, visibly stepped costs for bulk payloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.transport.base import Leg, Transport


@dataclass(frozen=True)
class SideBandLeg(Leg):
    """The ring's sync leg: a frame over ``ring_bytes`` goes side-band."""

    ring_bytes: int = 0

    def price(self, nbytes: int) -> float:
        if nbytes > self.ring_bytes:
            # side-band bulk path: payloads that do not fit the FIFO are
            # placed in guest memory regions the command references
            # (SVGA's design) — pinning costs a little extra per byte
            # and three doorbells (submission, descriptor, completion)
            return 3 * self.per_unit + nbytes * self.per_byte * 1.25
        return super().price(nbytes)


class RingTransport(Transport):
    """SVGA-FIFO-like ring buffer transport."""

    name = "ring"
    #: ring geometry: bytes per slot, slots in the ring
    slot_bytes = 4096
    slots = 256
    #: seconds per doorbell (VM exit + consumer wakeup)
    doorbell_latency = 1.2e-6
    #: seconds per byte copied into (or out of) the ring
    copy_byte_cost = 0.012e-9
    #: one doorbell per 64-slot drain batch (the producer stalls while
    #: the consumer empties the ring), side-band past the ring's capacity
    send = SideBandLeg(0.0, copy_byte_cost, doorbell_latency,
                       64 * slot_bytes, slots * slot_bytes)
    #: async producers write slots without ringing the doorbell
    enqueue = Leg(0.2e-6, copy_byte_cost)
    reply = Leg(doorbell_latency, copy_byte_cost)

    @property
    def capacity_bytes(self) -> int:
        return self.slot_bytes * self.slots

    def span_attrs(self, nbytes: int):
        needed = max(1, math.ceil(nbytes / self.slot_bytes))
        return {
            "slots": needed,
            "sideband": needed > self.slots,
        }
