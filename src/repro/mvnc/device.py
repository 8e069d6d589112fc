"""The simulated Neural Compute Stick device.

Timing model: input and output tensors cross a USB3 link; inference runs
on a fixed-function accelerator at a modest FP16 flop rate.  Queued
inferences serialize on the device timeline — the NCSDK model is
explicitly asynchronous (``LoadTensor`` queues work, ``GetResult``
blocks for the oldest completion).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, ClassVar, Deque, Dict, Optional, Tuple

import numpy as np

from repro.mvnc.graph import GraphDefinition, GraphExecutor, estimate_flops
from repro.native import SimulatedDevice


@dataclass(frozen=True)
class NCSDeviceSpec:
    """Static capabilities of the simulated stick."""

    name: str = "AvA Simulated Movidius NCS"
    #: FP16 throughput of the accelerator, flops per second
    flops: float = 100e9
    #: effective USB3 transfer bandwidth, bytes per second
    usb_bandwidth: float = 350e6
    #: fixed per-transfer USB overhead, seconds
    usb_overhead: float = 120e-6
    #: fixed firmware dispatch overhead per inference, seconds
    dispatch_overhead: float = 300e-6
    #: on-stick memory for graphs, bytes
    graph_memory_bytes: int = 320 * 1024 * 1024

    #: the fields a pool's :class:`~repro.hypervisor.pool.DeviceClass`
    #: scales by its compute and transfer factors (the stick's graph
    #: memory is fixed)
    compute_fields: ClassVar[Tuple[str, ...]] = ("flops",)
    transfer_fields: ClassVar[Tuple[str, ...]] = ("usb_bandwidth",)
    capacity_field: ClassVar[Optional[str]] = None


@dataclass
class PendingInference:
    """One queued LoadTensor awaiting GetResult."""

    output: np.ndarray
    complete_at: float
    user_param: Any


class AllocatedGraph:
    """A graph resident on the stick, with its inference FIFO."""

    def __init__(self, device: "SimulatedNCS", owner: Any,
                 definition: GraphDefinition, blob_size: int) -> None:
        self.device = device
        #: the native session whose ledger entry holds the blob
        self.owner = owner
        self.definition = definition
        self.executor = GraphExecutor(definition)
        self.blob_size = blob_size
        self.flops_estimate = estimate_flops(definition)
        self.pending: Deque[PendingInference] = deque()
        self.options: Dict[int, Any] = {}
        #: device time spent on this graph's inferences (profiling)
        self.inference_time_total: float = 0.0
        self.deallocated = False

    def infer_cost(self, input_bytes: int, output_bytes: int) -> float:
        spec = self.device.spec
        transfer = (
            2 * spec.usb_overhead
            + (input_bytes + output_bytes) / spec.usb_bandwidth
        )
        compute = spec.dispatch_overhead + self.flops_estimate / spec.flops
        return transfer + compute


class SimulatedNCS(SimulatedDevice):
    """The stick: graph memory is its ledger, inferences its timeline."""

    spec_class = NCSDeviceSpec
    memory_field = "graph_memory_bytes"

    @property
    def name(self) -> str:
        # NCSDK names sticks by bus index; each simulated stick is the
        # first on its own bus
        return f"{self.spec.name} #0"
