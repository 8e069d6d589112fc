"""The default hypercall-style transport.

Models a para-virtual doorbell + shared page pair (virtio-like): a fixed
per-message latency covering the VM exit and hypervisor wakeup, plus a
per-byte copy cost into host-visible memory.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.transport.base import Transport

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
        self.latency = latency
        # per-byte cost models shared-page forwarding: bulk payloads are
        # handed over by page mapping, not copied through the channel
        self.byte_cost = byte_cost
        self.enqueue_overhead = enqueue_overhead

    def send_cost(self, nbytes: int) -> float:
        return self.latency + nbytes * self.byte_cost

    def recv_cost(self, nbytes: int) -> float:
        return self.latency + nbytes * self.byte_cost

    def enqueue_cost(self, nbytes: int) -> float:
        return self.enqueue_overhead + nbytes * self.byte_cost

    def span_attrs(self, nbytes: int):
        return {"doorbell_us": self.latency * 1e6}
