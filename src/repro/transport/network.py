"""TCP-like transport for disaggregated accelerators.

The paper notes AvA's pluggable transport lets VMs use accelerators on
other machines (the LegoOS configuration).  This transport prices that:
tens of microseconds of one-way latency and NIC-bounded bandwidth, so the
Figure 5 experiment re-run over it shows which workloads tolerate
disaggregation (compute-bound) and which do not (chatty / copy-heavy).
"""

from __future__ import annotations

from repro.transport.base import Leg, Transport


class NetworkTransport(Transport):
    """Datacenter-network transport (disaggregated accelerator)."""

    name = "network"
    #: one-way latency, seconds
    latency = 25e-6
    #: effective bandwidth, bytes/second (~40 GbE)
    bandwidth = 5e9
    #: bytes per packet
    mtu = 9000
    #: seconds of NIC and stack work per packet
    per_packet_cost = 0.6e-6
    send = reply = Leg(latency, 1 / bandwidth, per_packet_cost, mtu)
    #: a pipelined async frame pays its packets and wire time; its
    #: one-way latency overlaps the sends after it
    enqueue = Leg(0.0, 1 / bandwidth, per_packet_cost, mtu)

    def span_attrs(self, nbytes: int):
        return {
            "packets": max(1, -(-nbytes // self.mtu)),
            "latency_us": self.latency * 1e6,
        }
