"""The simulated QuickAssist offload engine.

Timing model: a fixed per-request setup cost (descriptor + doorbell on
the real part) plus input bytes over the engine's compress or decompress
throughput.  Concurrent guests serialize on the device timeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional, Tuple

from repro.native import SimulatedDevice


@dataclass(frozen=True)
class QATDeviceSpec:
    """Static capabilities of the simulated engine."""

    name: str = "AvA Simulated QuickAssist DC"
    #: compression throughput, input bytes per second
    compress_bps: float = 4e9
    #: decompression throughput, input bytes per second
    decompress_bps: float = 8e9
    #: fixed per-request overhead, seconds
    request_overhead: float = 6e-6
    #: concurrent session limit per instance, counted per native session
    max_sessions: int = 64

    #: the fields a pool's :class:`~repro.hypervisor.pool.DeviceClass`
    #: scales by its compute factor (the engine has no transfer link or
    #: memory of its own)
    compute_fields: ClassVar[Tuple[str, ...]] = ("compress_bps",
                                                 "decompress_bps")
    transfer_fields: ClassVar[Tuple[str, ...]] = ()
    capacity_field: ClassVar[Optional[str]] = None


class SimulatedQAT(SimulatedDevice):
    """One QAT instance: the request cost plus its byte statistics."""

    spec_class = QATDeviceSpec

    def __init__(self, spec: Optional[QATDeviceSpec] = None,
                 trace: bool = False) -> None:
        super().__init__(spec, trace)
        # statistics exposed via cpaDcGetStats
        self.bytes_consumed = 0
        self.bytes_produced = 0

    def request_cost(self, input_bytes: int, decompress: bool) -> float:
        rate = (self.spec.decompress_bps if decompress
                else self.spec.compress_bps)
        return self.spec.request_overhead + input_bytes / rate
