"""Tests for buffer-granularity memory swapping vs the page baseline."""

import numpy as np
import pytest

from repro.opencl import runtime as rt
from repro.opencl.device import DeviceSpec, SimulatedGPU
from repro.opencl.errors import CLError
from repro.server.swap import ObjectSwapManager, PageSwapManager


def small_session(manager, mem_bytes=1 << 20):
    gpu = SimulatedGPU(DeviceSpec.small_gpu(mem_bytes=mem_bytes))
    return rt.session([gpu], memory_manager=manager)


def make_buffers(sess, count, size):
    ctx = rt.Context(sess, sess.devices)
    queue = rt.CommandQueue(ctx, sess.devices[0])
    return queue, [rt.MemObject(ctx, 0, size, sess.devices[0])
                   for i in range(count)]


class TestObjectSwap:
    def test_oversubscription_does_not_oom(self):
        manager = ObjectSwapManager()
        with small_session(manager) as sess:
            # 8 × 256 KiB into 1 MiB of device memory
            queue, mems = make_buffers(sess, 8, 256 * 1024)
            assert manager.stats.evictions >= 4

    def test_without_swap_this_ooms(self):
        with small_session(rt.MemoryManager(), mem_bytes=1 << 20) as sess:
            with pytest.raises(CLError):
                make_buffers(sess, 8, 256 * 1024)

    def test_data_survives_eviction_and_return(self):
        manager = ObjectSwapManager()
        with small_session(manager) as sess:
            queue, mems = make_buffers(sess, 2, 256 * 1024)
            rt.enqueue_write(queue, mems[0], 0, 4, b"\x01\x02\x03\x04",
                             blocking=True)
            # force mems[0] out by touching enough other data
            _, extra = make_buffers(sess, 4, 256 * 1024)
            assert not mems[0].resident
            payload, _ = rt.enqueue_read(queue, mems[0], 0, 4, blocking=True)
            assert payload == b"\x01\x02\x03\x04"
            assert mems[0].resident

    def test_swap_in_charges_time(self):
        manager = ObjectSwapManager()
        with small_session(manager) as sess:
            queue, mems = make_buffers(sess, 8, 256 * 1024)
            target = mems[0]
            assert not target.resident
            before = sess.clock.now
            rt.enqueue_read(queue, target, 0, 4, blocking=True)
            assert sess.clock.now - before >= \
                sess.devices[0].copy_cost(256 * 1024)

    def test_lru_victim_selection(self):
        manager = ObjectSwapManager()
        with small_session(manager, mem_bytes=3 * 256 * 1024) as sess:
            queue, mems = make_buffers(sess, 3, 256 * 1024)
            # touch 0 and 1 so 2 is LRU... then allocate one more
            rt.enqueue_read(queue, mems[0], 0, 4, blocking=True)
            rt.enqueue_read(queue, mems[1], 0, 4, blocking=True)
            rt.enqueue_read(queue, mems[2], 0, 4, blocking=True)
            rt.enqueue_read(queue, mems[1], 0, 4, blocking=True)
            rt.enqueue_read(queue, mems[0], 0, 4, blocking=True)
            make_buffers(sess, 1, 256 * 1024)
            assert not mems[2].resident
            assert mems[0].resident

    def test_buffer_larger_than_capacity_fails(self):
        manager = ObjectSwapManager()
        with small_session(manager, mem_bytes=1024) as sess:
            ctx = rt.Context(sess, sess.devices)
            with pytest.raises(CLError):
                rt.MemObject(ctx, 0, 4096, sess.devices[0])

    def test_free_releases_residency(self):
        manager = ObjectSwapManager()
        with small_session(manager) as sess:
            queue, mems = make_buffers(sess, 2, 256 * 1024)
            mems[0].release()
            assert mems[0] not in manager._resident
            assert sess.devices[0].allocated_bytes == 256 * 1024


class TestPageSwapBaseline:
    def test_page_granularity_many_ops(self):
        object_manager = ObjectSwapManager()
        page_manager = PageSwapManager(page_bytes=4096)
        for manager in (object_manager, page_manager):
            with small_session(manager) as sess:
                queue, mems = make_buffers(sess, 8, 256 * 1024)
                for mem in mems:  # touch everything → thrash
                    rt.enqueue_read(queue, mem, 0, 4, blocking=True)
        assert page_manager.stats.total_ops > \
            object_manager.stats.total_ops * 10

    def test_object_granularity_lower_stall(self):
        object_manager = ObjectSwapManager()
        page_manager = PageSwapManager(page_bytes=4096)
        for manager in (object_manager, page_manager):
            with small_session(manager) as sess:
                queue, mems = make_buffers(sess, 8, 256 * 1024)
                for _ in range(3):
                    for mem in mems:
                        rt.enqueue_read(queue, mem, 0, 4, blocking=True)
        assert object_manager.stats.stall_seconds < \
            page_manager.stats.stall_seconds

    def test_page_size_validation(self):
        with pytest.raises(ValueError):
            PageSwapManager(page_bytes=0)

    def test_bytes_accounted_equally(self):
        object_manager = ObjectSwapManager()
        page_manager = PageSwapManager()
        for manager in (object_manager, page_manager):
            with small_session(manager) as sess:
                queue, mems = make_buffers(sess, 8, 256 * 1024)
                rt.enqueue_read(queue, mems[0], 0, 4, blocking=True)
        assert object_manager.stats.bytes_in == page_manager.stats.bytes_in


class TestSwapUnderForwarding:
    def test_guest_workload_survives_tiny_device(self):
        """A guest sees no OOM on an oversubscribed device (the paper's
        'avoids exposing out-of-memory conditions' property)."""
        from repro.stack import VirtualStack
        from repro.opencl.device import DeviceSpec, SimulatedGPU
        from repro.workloads import NWWorkload

        hv = VirtualStack.build(
            "opencl",
            devices={"opencl": lambda: SimulatedGPU(
                DeviceSpec.small_gpu(mem_bytes=192 * 1024)
            )},
            memory_manager_factory=lambda: ObjectSwapManager(),
        ).hypervisor
        vm = hv.create_vm("vm-tight")
        # nw at n=128 needs ~66KB score + 64KB similarity + slack
        result = NWWorkload(scale=0.5).run(vm.library("opencl"))
        assert result.verified

    def test_swapping_tenants_share_one_ledger(self):
        """Swap managers bill the device's one ledger: two tenants of a
        1 MiB device hold 1 MiB between them, and a tenant that cannot
        evict enough of its own buffers is refused, not oversubscribed."""
        from repro.opencl import types
        from repro.remoting.buffers import OutBox
        from repro.stack import VirtualStack

        size = 256 * 1024
        gpu = SimulatedGPU(DeviceSpec.small_gpu(mem_bytes=1 << 20))
        hv = VirtualStack.build(
            "opencl", devices={"opencl": lambda: gpu},
            memory_manager_factory=ObjectSwapManager,
        ).hypervisor

        def tenant(vm_id):
            cl = hv.create_vm(vm_id).library("opencl")
            plats, devs, err = [None], [None], OutBox()
            cl.clGetPlatformIDs(1, plats, None)
            cl.clGetDeviceIDs(plats[0], types.CL_DEVICE_TYPE_GPU, 1, devs,
                              None)
            ctx = cl.clCreateContext(None, 1, devs, None, None, err)
            return cl, ctx, cl.clCreateCommandQueue(ctx, devs[0], 0, err)

        def write(cl, ctx, queue):
            err = OutBox()
            mem = cl.clCreateBuffer(ctx, 0, size, None, err)
            if err.value == types.CL_SUCCESS:
                assert cl.clEnqueueWriteBuffer(
                    queue, mem, types.CL_TRUE, 0, size, bytes(size), 0,
                    None, None) == types.CL_SUCCESS
            return mem, err.value

        a, b = tenant("vm-a"), tenant("vm-b")
        held = [write(*a) for _ in range(4)]
        assert [code for _mem, code in held] == [types.CL_SUCCESS] * 4
        assert gpu.allocated_bytes == gpu.capacity
        refused = [write(*b) for _ in range(4)]
        assert [code for _mem, code in refused] == \
            [types.CL_MEM_OBJECT_ALLOCATION_FAILURE] * 4
        assert gpu.allocated_bytes == gpu.capacity
        # what one tenant frees, the other may take
        a[0].clReleaseMemObject(held[0][0])
        assert write(*b)[1] == types.CL_SUCCESS
        assert gpu.allocated_bytes == gpu.capacity
