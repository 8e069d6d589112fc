"""Tests for trace extraction and the native-session binders."""

import pytest

from repro.harness.traces import extract_device_trace, trace_summary
from repro.opencl.device import SimulatedGPU
from repro.stack import VirtualStack
from repro.workloads import GaussianWorkload, LavaMDWorkload, NWWorkload


class TestTraceExtraction:
    def test_trace_covers_device_busy_time(self):
        items = extract_device_trace(GaussianWorkload(scale=0.2))
        summary = trace_summary(items)
        assert summary["commands"] > 50
        assert summary["busy"] > 0
        assert 0 < summary["intensity"] <= 1.0

    def test_trace_durations_positive(self):
        items = extract_device_trace(NWWorkload(scale=0.1))
        assert all(item.duration > 0 for item in items)
        assert all(item.think_time >= 0 for item in items)

    def test_trace_reflects_workload_shape(self):
        chatty = trace_summary(extract_device_trace(NWWorkload(scale=0.2)))
        coarse = trace_summary(
            extract_device_trace(LavaMDWorkload(scale=0.5))
        )
        assert chatty["commands"] > 10 * coarse["commands"]
        assert coarse["mean_duration"] > chatty["mean_duration"]

    def test_tracing_device_records_tuples(self):
        gpu = SimulatedGPU(trace=True)
        gpu.occupy(1e-3, 0.0, "kernel")
        gpu.occupy(2e-3, 0.0, "h2d_copy")
        assert gpu.trace == [(0.0, 1e-3, "kernel"),
                             (1e-3, 3e-3, "h2d_copy")]

    def test_non_tracing_device_stores_nothing(self):
        gpu = SimulatedGPU()
        gpu.occupy(1e-3, 0.0)
        assert gpu.trace is None

    def test_failed_workload_rejected(self):
        class Broken:
            name = "broken"

            def run(self, cl):
                from repro.workloads.base import WorkloadResult

                return WorkloadResult("broken", {}, False)

        with pytest.raises(ValueError, match="verification"):
            extract_device_trace(Broken())


class TestDeviceFactories:
    def test_shared_gpus_hypervisor_consolidates(self):
        """With a shared device, both VMs' work lands on one timeline."""
        gpu = SimulatedGPU()
        hv = VirtualStack.build("opencl",
                                devices={"opencl": lambda: gpu}).hypervisor
        vm_a = hv.create_vm("vm-a")
        vm_b = hv.create_vm("vm-b")
        assert GaussianWorkload(scale=0.1).run(
            vm_a.library("opencl")).verified
        ops_after_a = sum(gpu.op_counts.values())
        assert GaussianWorkload(scale=0.1).run(
            vm_b.library("opencl")).verified
        assert sum(gpu.op_counts.values()) > ops_after_a
        worker_a = hv.worker("vm-a", "opencl")
        worker_b = hv.worker("vm-b", "opencl")
        assert worker_a.native_session.devices[0] is \
            worker_b.native_session.devices[0]
