"""A bounded shared-memory ring transport.

Commands are copied into fixed-size ring slots; a message larger than one
slot occupies several and pays one doorbell per slot batch.  This models
the SVGA-style FIFO queue the paper cites as the interposition-preserving
transport design, and gives the transport ablation a distinct cost shape:
cheap small commands, visibly stepped costs for bulk payloads.
"""

from __future__ import annotations

import math

from repro.transport.base import Transport


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
    #: async producers write slots without ringing the doorbell
    enqueue_overhead = 0.2e-6

    @property
    def capacity_bytes(self) -> int:
        return self.slot_bytes * self.slots

    def _slot_count(self, nbytes: int) -> int:
        return max(1, math.ceil(nbytes / self.slot_bytes))

    def send_cost(self, nbytes: int) -> float:
        needed = self._slot_count(nbytes)
        if needed > self.slots:
            # side-band bulk path: payloads that do not fit the FIFO are
            # placed in guest memory regions the command references
            # (SVGA's design) — pinning costs a little extra per byte
            # and two doorbells (descriptor + completion)
            return (
                3 * self.doorbell_latency
                + nbytes * self.copy_byte_cost * 1.25
            )
        # one doorbell for the submission, plus one per 64-slot drain
        # batch beyond the first: the producer stalls while the consumer
        # empties the ring, so huge messages pay extra doorbells
        doorbells = 1 + (needed - 1) // 64
        return (
            doorbells * self.doorbell_latency
            + nbytes * self.copy_byte_cost
        )

    def recv_cost(self, nbytes: int) -> float:
        return self.doorbell_latency + nbytes * self.copy_byte_cost

    def enqueue_cost(self, nbytes: int) -> float:
        return self.enqueue_overhead + nbytes * self.copy_byte_cost

    def span_attrs(self, nbytes: int):
        needed = self._slot_count(nbytes)
        return {
            "slots": needed,
            "sideband": needed > self.slots,
        }
