"""Unit tests for the mini-OpenCL runtime object model and queue ops."""

import numpy as np
import pytest

from repro.opencl import runtime as rt
from repro.opencl import types
from repro.opencl.device import DeviceSpec, SimulatedGPU
from repro.opencl.errors import CLError
from repro.vclock import VirtualClock


@pytest.fixture()
def sess():
    with rt.session() as s:
        yield s


def make_context(sess):
    return rt.Context(sess, sess.devices)


def make_queue(sess):
    ctx = make_context(sess)
    return rt.CommandQueue(ctx, sess.devices[0])


PROGRAM_SRC = (
    "__kernel void vector_add(__global float* a, __global float* b, "
    "__global float* c, int n) {}"
)


class TestSessionStack:
    def test_current_session_requires_push(self):
        with pytest.raises(RuntimeError):
            rt.Session.current()

    def test_nested_sessions(self):
        with rt.session() as outer:
            assert rt.Session.current() is outer
            with rt.session() as inner:
                assert rt.Session.current() is inner
            assert rt.Session.current() is outer

    def test_session_requires_device(self):
        with pytest.raises(ValueError):
            rt.Session(devices=[])


class TestRefcounting:
    def test_retain_release(self, sess):
        ctx = make_context(sess)
        ctx.retain()
        assert not ctx.release()
        assert ctx.release()
        assert ctx.released

    def test_use_after_release(self, sess):
        ctx = make_context(sess)
        ctx.release()
        with pytest.raises(CLError):
            ctx.retain()

    def test_mem_release_frees_device_memory(self, sess):
        ctx = make_context(sess)
        device = sess.devices[0]
        before = device.allocated_bytes
        mem = rt.MemObject(ctx, 0, 4096, device)
        assert device.allocated_bytes == before + 4096
        mem.release()
        assert device.allocated_bytes == before


class TestMemObject:
    def test_data_initialized_zero(self, sess):
        ctx = make_context(sess)
        mem = rt.MemObject(ctx, 0, 128, sess.devices[0])
        assert mem.data.shape == (128,)
        assert not mem.data.any()

    def test_zero_size_rejected(self, sess):
        ctx = make_context(sess)
        with pytest.raises(CLError):
            rt.MemObject(ctx, 0, 0, sess.devices[0])

    def test_oom_raises(self):
        gpu = SimulatedGPU(DeviceSpec.small_gpu(mem_bytes=1024))
        with rt.session([gpu]) as s:
            ctx = make_context(s)
            rt.MemObject(ctx, 0, 1000, gpu)
            with pytest.raises(CLError):
                rt.MemObject(ctx, 0, 1000, gpu)


class TestTransfers:
    def test_write_then_read_round_trip(self, sess):
        queue = make_queue(sess)
        mem = rt.MemObject(queue.context, 0, 16, sess.devices[0])
        rt.enqueue_write(queue, mem, 0, 16, bytes(range(16)), blocking=True)
        payload, _ = rt.enqueue_read(queue, mem, 0, 16, blocking=True)
        assert payload == bytes(range(16))

    def test_offset_write(self, sess):
        queue = make_queue(sess)
        mem = rt.MemObject(queue.context, 0, 8, sess.devices[0])
        rt.enqueue_write(queue, mem, 4, 4, b"abcd", blocking=True)
        payload, _ = rt.enqueue_read(queue, mem, 0, 8, blocking=True)
        assert payload == b"\0\0\0\0abcd"

    def test_out_of_range_rejected(self, sess):
        queue = make_queue(sess)
        mem = rt.MemObject(queue.context, 0, 8, sess.devices[0])
        with pytest.raises(CLError):
            rt.enqueue_write(queue, mem, 4, 8, bytes(8), blocking=True)
        with pytest.raises(CLError):
            rt.enqueue_read(queue, mem, 0, 9, blocking=True)

    def test_blocking_advances_caller_clock(self, sess):
        queue = make_queue(sess)
        mem = rt.MemObject(queue.context, 0, 1 << 20, sess.devices[0])
        before = sess.clock.now
        rt.enqueue_write(queue, mem, 0, 1 << 20, bytes(1 << 20), blocking=True)
        waited = sess.clock.now - before
        assert waited >= sess.devices[0].copy_cost(1 << 20)

    def test_nonblocking_returns_immediately(self, sess):
        queue = make_queue(sess)
        mem = rt.MemObject(queue.context, 0, 1 << 20, sess.devices[0])
        before = sess.clock.now
        event = rt.enqueue_write(queue, mem, 0, 1 << 20, bytes(1 << 20),
                                 blocking=False)
        assert sess.clock.now == before
        assert event.end > before
        rt.finish(queue)
        assert sess.clock.now == pytest.approx(event.end)

    def test_copy_between_buffers(self, sess):
        queue = make_queue(sess)
        src = rt.MemObject(queue.context, 0, 8, sess.devices[0])
        dst = rt.MemObject(queue.context, 0, 8, sess.devices[0])
        rt.enqueue_write(queue, src, 0, 8, b"12345678", blocking=True)
        rt.enqueue_copy(queue, src, dst, 0, 0, 8)
        payload, _ = rt.enqueue_read(queue, dst, 0, 8, blocking=True)
        assert payload == b"12345678"

    def test_fill_pattern(self, sess):
        queue = make_queue(sess)
        mem = rt.MemObject(queue.context, 0, 8, sess.devices[0])
        rt.enqueue_fill(queue, mem, b"\x07\x09", 0, 8)
        payload, _ = rt.enqueue_read(queue, mem, 0, 8, blocking=True)
        assert payload == b"\x07\x09" * 4

    def test_fill_size_must_be_pattern_multiple(self, sess):
        queue = make_queue(sess)
        mem = rt.MemObject(queue.context, 0, 8, sess.devices[0])
        with pytest.raises(CLError):
            rt.enqueue_fill(queue, mem, b"\x01\x02\x03", 0, 8)


class TestProgramsAndKernels:
    def test_build_success(self, sess):
        ctx = make_context(sess)
        prog = rt.Program(ctx, PROGRAM_SRC)
        prog.build()
        assert prog.build_status == types.CL_BUILD_SUCCESS
        assert prog.kernel_names == ["vector_add"]

    def test_build_failure_sets_log(self, sess):
        ctx = make_context(sess)
        prog = rt.Program(ctx, "__kernel void missing_impl_xyz(int a) {}")
        with pytest.raises(CLError):
            prog.build()
        assert prog.build_status == types.CL_BUILD_ERROR
        assert "missing_impl_xyz" in prog.build_log

    def test_kernel_requires_built_program(self, sess):
        ctx = make_context(sess)
        prog = rt.Program(ctx, PROGRAM_SRC)
        with pytest.raises(CLError):
            rt.Kernel(prog, "vector_add")

    def test_kernel_unknown_name(self, sess):
        ctx = make_context(sess)
        prog = rt.Program(ctx, PROGRAM_SRC)
        prog.build()
        with pytest.raises(CLError):
            rt.Kernel(prog, "nope")

    def test_set_arg_validation(self, sess):
        ctx = make_context(sess)
        prog = rt.Program(ctx, PROGRAM_SRC)
        prog.build()
        kernel = rt.Kernel(prog, "vector_add")
        mem = rt.MemObject(ctx, 0, 64, sess.devices[0])
        kernel.set_arg(0, mem)
        with pytest.raises(CLError):
            kernel.set_arg(0, 3.14)  # buffer slot, scalar given
        with pytest.raises(CLError):
            kernel.set_arg(3, mem)  # scalar slot, buffer given
        with pytest.raises(CLError):
            kernel.set_arg(9, mem)  # bad index

    def test_handle_resolver_used_for_int_buffer_args(self):
        mem_holder = {}

        def resolver(guest_id):
            return mem_holder[guest_id]

        with rt.session(handle_resolver=resolver) as s:
            ctx = rt.Context(s, s.devices)
            prog = rt.Program(ctx, PROGRAM_SRC)
            prog.build()
            kernel = rt.Kernel(prog, "vector_add")
            mem = rt.MemObject(ctx, 0, 64, s.devices[0])
            mem_holder[1234] = mem
            kernel.set_arg(0, 1234)
            assert kernel.args[0] is mem

    def test_int_buffer_arg_without_resolver_rejected(self, sess):
        ctx = make_context(sess)
        prog = rt.Program(ctx, PROGRAM_SRC)
        prog.build()
        kernel = rt.Kernel(prog, "vector_add")
        with pytest.raises(CLError):
            kernel.set_arg(0, 1234)


class TestNDRange:
    def _ready_kernel(self, sess, n=16):
        queue = make_queue(sess)
        ctx = queue.context
        prog = rt.Program(ctx, PROGRAM_SRC)
        prog.build()
        kernel = rt.Kernel(prog, "vector_add")
        bufs = [rt.MemObject(ctx, 0, 4 * n, sess.devices[0]) for _ in range(3)]
        bufs[0].data.view(np.float32)[:] = 1.0
        bufs[1].data.view(np.float32)[:] = 2.0
        for i, buf in enumerate(bufs):
            kernel.set_arg(i, buf)
        kernel.set_arg(3, n)
        return queue, kernel, bufs

    def test_launch_computes(self, sess):
        queue, kernel, bufs = self._ready_kernel(sess)
        rt.enqueue_ndrange(queue, kernel, [16])
        assert (bufs[2].data.view(np.float32) == 3.0).all()

    def test_launch_requires_all_args(self, sess):
        queue = make_queue(sess)
        prog = rt.Program(queue.context, PROGRAM_SRC)
        prog.build()
        kernel = rt.Kernel(prog, "vector_add")
        with pytest.raises(CLError):
            rt.enqueue_ndrange(queue, kernel, [16])

    def test_bad_work_dimension(self, sess):
        queue, kernel, _ = self._ready_kernel(sess)
        with pytest.raises(CLError):
            rt.enqueue_ndrange(queue, kernel, [1, 1, 1, 1])

    def test_local_size_divisibility(self, sess):
        queue, kernel, _ = self._ready_kernel(sess)
        with pytest.raises(CLError):
            rt.enqueue_ndrange(queue, kernel, [16], [5])

    def test_work_group_limit(self, sess):
        queue, kernel, _ = self._ready_kernel(sess)
        limit = sess.devices[0].spec.max_work_group_size
        with pytest.raises(CLError):
            rt.enqueue_ndrange(queue, kernel, [limit * 4], [limit * 2])

    def test_event_profiling_times(self, sess):
        queue, kernel, _ = self._ready_kernel(sess)
        event = rt.enqueue_ndrange(queue, kernel, [16])
        assert event.end > event.start >= event.queued
        assert event.duration > 0

    def test_queue_serializes_on_device(self, sess):
        queue, kernel, _ = self._ready_kernel(sess)
        first = rt.enqueue_ndrange(queue, kernel, [16])
        second = rt.enqueue_ndrange(queue, kernel, [16])
        assert second.start >= first.end
