"""The default hypercall-style transport.

Models a para-virtual doorbell + shared page pair (virtio-like): a fixed
per-message latency covering the VM exit and hypervisor wakeup, plus a
per-byte copy cost into host-visible memory.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.transport.base import Leg, Transport

if TYPE_CHECKING:  # pragma: no cover
    from repro.hypervisor.router import Router


class InProcTransport(Transport):
    """Shared-memory doorbell transport (the paper's default config)."""

    name = "inproc"

    def __init__(
        self,
        router: "Router",
        latency: float = 1.8e-6,
        byte_cost: float = 0.008e-9,
        enqueue_overhead: float = 0.15e-6,
    ) -> None:
        super().__init__(router)
        if latency < 0 or byte_cost < 0:
            raise ValueError("transport costs cannot be negative")
        # per-byte cost models shared-page forwarding: bulk payloads are
        # handed over by page mapping, not copied through the channel
        self.send = self.reply = Leg(latency, byte_cost)
        self.enqueue = Leg(enqueue_overhead, byte_cost)

    def span_attrs(self, nbytes: int):
        return {"doorbell_us": self.send.frame * 1e6}
