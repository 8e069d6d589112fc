"""Pluggable, hypervisor-interposable transports.

The paper's key interposition argument: forwarding must flow through
hypervisor-managed channels so the hypervisor can "monitor and control
all device accesses".  Every transport here delivers encoded commands to
the :class:`~repro.hypervisor.router.Router` — never directly to the API
server — and differs only in its prices (a :class:`Leg` each for the
sync send, the async enqueue and the reply) and framing mechanics:

* :class:`InProcTransport` — hypercall-like shared-memory doorbell (the
  default, KVM-virtio-ish costs),
* :class:`RingTransport` — a bounded shared-memory ring with per-chunk
  doorbells (large payloads pay for multiple ring slots),
* :class:`NetworkTransport` — TCP-like costs for disaggregated
  accelerators (the LegoOS-style configuration the paper sketches).
"""

from repro.transport.base import DeliveryResult, Leg, Transport, TransportError
from repro.transport.inproc import InProcTransport
from repro.transport.ring import RingTransport
from repro.transport.network import NetworkTransport

__all__ = [
    "DeliveryResult",
    "InProcTransport",
    "Leg",
    "NetworkTransport",
    "RingTransport",
    "Transport",
    "TransportError",
]
