"""The simulated GPU: capabilities, memory, and the timing model.

The device executes kernels *for real* (vectorized numpy implementations
looked up in the kernel registry) but charges **virtual time** from a
roofline-style cost model: a kernel costs the maximum of its compute time
(flops / device flop rate) and its memory time (bytes touched / device
bandwidth), plus a fixed launch overhead.  Host↔device copies cost
bytes / PCIe bandwidth plus a fixed DMA setup overhead.

The timeline and memory ledger are :class:`~repro.native.SimulatedDevice`'s:
queue operations serialize on the timeline, which is what makes
contention between VMs measurable in the scheduling experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional, Tuple

from repro.native import SimulatedDevice
from repro.opencl.errors import CLError
from repro.opencl import types


@dataclass(frozen=True)
class DeviceSpec:
    """Static capabilities of a simulated accelerator."""

    name: str = "AvA Simulated GTX 1080"
    vendor: str = "repro"
    device_type: int = types.CL_DEVICE_TYPE_GPU
    compute_units: int = 20
    clock_mhz: int = 1733
    #: peak arithmetic throughput, single-precision flops per second
    flops: float = 8.9e12
    #: device-memory bandwidth, bytes per second
    mem_bandwidth: float = 320e9
    #: host↔device interconnect bandwidth, bytes per second (PCIe 3 x16)
    pcie_bandwidth: float = 12e9
    #: fixed kernel-launch overhead, seconds
    launch_overhead: float = 5e-6
    #: fixed DMA setup overhead per copy, seconds
    dma_overhead: float = 8e-6
    global_mem_bytes: int = 8 * 1024**3
    local_mem_bytes: int = 48 * 1024
    max_work_group_size: int = 1024

    #: the fields a pool's :class:`~repro.hypervisor.pool.DeviceClass`
    #: scales by its compute and transfer factors, and sets to its memory
    compute_fields: ClassVar[Tuple[str, ...]] = ("flops", "mem_bandwidth")
    transfer_fields: ClassVar[Tuple[str, ...]] = ("pcie_bandwidth",)
    capacity_field: ClassVar[Optional[str]] = "global_mem_bytes"

    @classmethod
    def gtx1080(cls) -> "DeviceSpec":
        return cls()

    @classmethod
    def small_gpu(cls, mem_bytes: int = 64 * 1024**2) -> "DeviceSpec":
        """A memory-constrained device for the swapping experiments."""
        return cls(
            name="AvA Simulated Small GPU",
            global_mem_bytes=mem_bytes,
            flops=1.0e12,
            mem_bandwidth=80e9,
        )


@dataclass
class KernelCost:
    """Cost-model inputs declared by a registered kernel implementation."""

    flops_per_item: float = 1.0
    bytes_per_item: float = 4.0
    #: multiplier for kernels with poor device utilization (divergence,
    #: atomics, low occupancy); 1.0 = roofline-perfect
    efficiency: float = 1.0


class SimulatedGPU(SimulatedDevice):
    """A simulated GPU: the roofline and copy cost functions.

    The memory ledger only tracks *byte counts* (allocation bookkeeping
    for out-of-memory behaviour); the actual data lives in numpy arrays
    owned by the runtime's buffer objects.
    """

    spec_class = DeviceSpec
    memory_field = "global_mem_bytes"

    def out_of_memory(self, message: str) -> Exception:
        return CLError(types.CL_MEM_OBJECT_ALLOCATION_FAILURE, message)

    # -- cost model ----------------------------------------------------------

    def copy_cost(self, nbytes: int) -> float:
        """Virtual seconds for a host↔device copy of ``nbytes``."""
        if nbytes < 0:
            raise ValueError("copy size cannot be negative")
        return self.spec.dma_overhead + nbytes / self.spec.pcie_bandwidth

    def device_copy_cost(self, nbytes: int) -> float:
        """Virtual seconds for a device-to-device copy."""
        if nbytes < 0:
            raise ValueError("copy size cannot be negative")
        # read + write through device memory
        return self.spec.launch_overhead + 2 * nbytes / self.spec.mem_bandwidth

    def kernel_cost(self, cost: KernelCost, work_items: int) -> float:
        """Roofline estimate for one kernel launch over ``work_items``."""
        if work_items <= 0:
            raise ValueError("work size must be positive")
        compute = work_items * cost.flops_per_item / self.spec.flops
        memory = work_items * cost.bytes_per_item / self.spec.mem_bandwidth
        busy = max(compute, memory) / max(cost.efficiency, 1e-6)
        return self.spec.launch_overhead + busy
