"""Unit tests for the simulated GPU device and cost model."""

import pytest

from repro.opencl.device import DeviceSpec, KernelCost, SimulatedGPU
from repro.opencl.errors import CLError


class TestMemoryLedger:
    APP = object()  # a ledger owner (a native session, in the runtime)

    def test_allocate_and_free(self):
        gpu = SimulatedGPU()
        gpu.allocate(self.APP, 1024)
        assert gpu.allocated_bytes == 1024
        gpu.free(self.APP, 1024)
        assert gpu.allocated_bytes == 0

    def test_out_of_memory(self):
        gpu = SimulatedGPU(DeviceSpec.small_gpu(mem_bytes=1000))
        gpu.allocate(self.APP, 800)
        with pytest.raises(CLError):
            gpu.allocate(self.APP, 300)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            SimulatedGPU().allocate(self.APP, 0)

    def test_overfree_rejected(self):
        gpu = SimulatedGPU()
        gpu.allocate(self.APP, 100)
        with pytest.raises(ValueError, match="does not hold"):
            gpu.free(self.APP, 500)
        with pytest.raises(ValueError, match="does not hold"):
            gpu.free(object(), 100)
        assert gpu.allocated_bytes == 100


class TestCostModel:
    def test_copy_cost_linear(self):
        gpu = SimulatedGPU()
        small = gpu.copy_cost(1024)
        large = gpu.copy_cost(1024 * 1024)
        assert large > small
        # slope equals PCIe bandwidth
        slope = (large - small) / (1024 * 1024 - 1024)
        assert slope == pytest.approx(1 / gpu.spec.pcie_bandwidth)

    def test_copy_cost_has_fixed_overhead(self):
        gpu = SimulatedGPU()
        assert gpu.copy_cost(0) == pytest.approx(gpu.spec.dma_overhead)

    def test_negative_copy_rejected(self):
        with pytest.raises(ValueError):
            SimulatedGPU().copy_cost(-1)

    def test_kernel_cost_compute_bound(self):
        gpu = SimulatedGPU()
        heavy = KernelCost(flops_per_item=10000.0, bytes_per_item=1.0)
        items = 1_000_000
        cost = gpu.kernel_cost(heavy, items)
        expected = gpu.spec.launch_overhead + items * 10000.0 / gpu.spec.flops
        assert cost == pytest.approx(expected)

    def test_kernel_cost_memory_bound(self):
        gpu = SimulatedGPU()
        streaming = KernelCost(flops_per_item=1.0, bytes_per_item=1000.0)
        items = 1_000_000
        cost = gpu.kernel_cost(streaming, items)
        expected = (
            gpu.spec.launch_overhead
            + items * 1000.0 / gpu.spec.mem_bandwidth
        )
        assert cost == pytest.approx(expected)

    def test_efficiency_scales_cost(self):
        gpu = SimulatedGPU()
        base = KernelCost(flops_per_item=100.0)
        slow = KernelCost(flops_per_item=100.0, efficiency=0.5)
        items = 10000
        busy_base = gpu.kernel_cost(base, items) - gpu.spec.launch_overhead
        busy_slow = gpu.kernel_cost(slow, items) - gpu.spec.launch_overhead
        assert busy_slow == pytest.approx(2 * busy_base)

    def test_kernel_cost_rejects_nonpositive_work(self):
        with pytest.raises(ValueError):
            SimulatedGPU().kernel_cost(KernelCost(), 0)


class TestTimeline:
    def test_execute_serializes(self):
        gpu = SimulatedGPU()
        first = gpu.occupy(1.0, not_before=0.0)
        second = gpu.occupy(1.0, not_before=0.0)
        assert first.end == pytest.approx(1.0)
        assert second.start == pytest.approx(1.0)
        assert second.end == pytest.approx(2.0)

    def test_not_before_delays_start(self):
        gpu = SimulatedGPU()
        timer = gpu.occupy(1.0, not_before=5.0)
        assert timer.start == pytest.approx(5.0)
        assert gpu.timeline == pytest.approx(6.0)

    def test_busy_time_accumulates(self):
        gpu = SimulatedGPU()
        gpu.occupy(1.0, not_before=0.0)
        gpu.occupy(2.0, not_before=10.0)
        assert gpu.busy_time == pytest.approx(3.0)

    def test_utilization(self):
        gpu = SimulatedGPU()
        gpu.occupy(1.0, not_before=0.0)
        gpu.occupy(1.0, not_before=3.0)
        assert gpu.utilization() == pytest.approx(2.0 / 4.0)

    def test_utilization_zero_when_idle(self):
        assert SimulatedGPU().utilization() == 0.0

    def test_op_counts(self):
        gpu = SimulatedGPU()
        gpu.occupy(0.1, 0.0, "kernel")
        gpu.occupy(0.1, 0.0, "kernel")
        gpu.occupy(0.1, 0.0, "h2d_copy")
        assert gpu.op_counts == {"kernel": 2, "h2d_copy": 1}

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            SimulatedGPU().occupy(-0.1, 0.0)
