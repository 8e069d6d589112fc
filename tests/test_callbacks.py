"""Tests for callback forwarding (§4.2: "the specification language
supports structures, nested arrays, callbacks")."""

import pytest

from repro.codegen.classify import ParamClass, classify_param
from repro.guest.batching import BatchPolicy
from repro.guest.library import GuestRuntime, RemotingError
from repro.migration import MigrationPolicy
from repro.opencl import api as cl_api
from repro.opencl import session, types
from repro.remoting.buffers import OutBox
from repro.remoting.codec import Reply
from repro.spec import parse_spec
from repro.stack import VirtualStack, load_spec
from tests.wire_oracle import decode_message, encode_message

SRC = (
    "__kernel void vector_add(__global float* a, __global float* b, "
    "__global float* c, int n) {}"
)


def build_env(cl):
    plats = [None]
    cl.clGetPlatformIDs(1, plats, None)
    devs = [None]
    cl.clGetDeviceIDs(plats[0], types.CL_DEVICE_TYPE_GPU, 1, devs, None)
    err = OutBox()
    ctx = cl.clCreateContext(None, 1, devs, None, None, err)
    return ctx, err


class TestSpecLevel:
    def test_callback_annotation_parses(self):
        spec = parse_spec(
            "api(x);\nint build(int prog, void *pfn_notify) "
            "{ parameter(pfn_notify) { callback; } }"
        )
        param = spec.function("build").param("pfn_notify")
        assert param.is_callback
        assert classify_param(spec, param) is ParamClass.CALLBACK

    def test_opencl_spec_declares_build_callback(self):
        spec = load_spec("opencl")
        assert spec.function("clBuildProgram").param(
            "pfn_notify").is_callback

    def test_reply_callbacks_round_trip_wire(self):
        reply = Reply(seq=1, callbacks=[[3, [0, "done"]], [4, []]])
        again = decode_message(encode_message(reply))
        assert again.callbacks == [[3, [0, "done"]], [4, []]]


class TestNativePath:
    def test_build_notifier_called_with_status(self):
        events = []
        with session():
            ctx, err = build_env(cl_api)
            prog = cl_api.clCreateProgramWithSource(ctx, 1, SRC, None, err)
            code = cl_api.clBuildProgram(prog, 0, None, "", events.append,
                                         None)
        assert code == types.CL_SUCCESS
        assert events == [types.CL_BUILD_SUCCESS]

    def test_notifier_fires_on_failure_too(self):
        events = []
        with session():
            ctx, err = build_env(cl_api)
            prog = cl_api.clCreateProgramWithSource(
                ctx, 1, "__kernel void no_impl_anywhere(int a) {}", None,
                err)
            code = cl_api.clBuildProgram(prog, 0, None, "", events.append,
                                         None)
        assert code == types.CL_BUILD_PROGRAM_FAILURE
        assert events == [types.CL_BUILD_ERROR]


class TestForwardedPath:
    def test_callback_forwarded_through_stack(self):
        hv = VirtualStack.build("opencl").hypervisor
        vm = hv.create_vm("vm-cb")
        cl = vm.library("opencl")
        ctx, err = build_env(cl)
        prog = cl.clCreateProgramWithSource(ctx, 1, SRC, None, err)

        events = []
        code = cl.clBuildProgram(prog, 0, None, "", events.append, None)
        assert code == types.CL_SUCCESS
        # the upcall was recorded host-side and replayed guest-side
        assert events == [types.CL_BUILD_SUCCESS]

    def test_callback_none_stays_none(self):
        hv = VirtualStack.build("opencl").hypervisor
        vm = hv.create_vm("vm-cb-none")
        cl = vm.library("opencl")
        ctx, err = build_env(cl)
        prog = cl.clCreateProgramWithSource(ctx, 1, SRC, None, err)
        assert cl.clBuildProgram(prog, 0, None, "", None,
                                 None) == types.CL_SUCCESS

    def test_non_callable_rejected_at_guest_boundary(self):
        hv = VirtualStack.build("opencl").hypervisor
        vm = hv.create_vm("vm-cb-bad")
        cl = vm.library("opencl")
        ctx, err = build_env(cl)
        prog = cl.clCreateProgramWithSource(ctx, 1, SRC, None, err)
        with pytest.raises(RemotingError, match="callable"):
            cl.clBuildProgram(prog, 0, None, "", "not-a-function", None)

    def test_same_callable_registers_once(self):
        hv = VirtualStack.build("opencl").hypervisor
        vm = hv.create_vm("vm-cb-dedup")
        cl = vm.library("opencl")
        ctx, err = build_env(cl)
        runtime = vm.runtimes["opencl"]

        def notifier(status):
            pass

        first = runtime.register_callback(notifier)
        second = runtime.register_callback(notifier)
        assert first == second

    def test_failed_marshal_does_not_arm_the_next_call(self):
        """A callback registered by a call that then fails to marshal
        belongs to that call: the next async call is staged as usual,
        not flushed at once for a reply leg nobody asked for."""
        hv = VirtualStack.build("opencl",
                                batch_policy=BatchPolicy()).hypervisor
        vm = hv.create_vm("vm-cb-leak")
        cl = vm.library("opencl")
        ctx, err = build_env(cl)
        prog = cl.clCreateProgramWithSource(ctx, 1, SRC, None, err)
        kernel = cl.clCreateKernel(prog, "vector_add", err)
        runtime = vm.runtimes["opencl"]
        with pytest.raises(RemotingError, match="user_data"):
            cl.clBuildProgram(prog, 0, None, None, lambda status: None,
                              object())
        flushed = runtime.batches_flushed
        assert cl.clSetKernelArg(kernel, 3, 4, 7) == types.CL_SUCCESS
        assert len(runtime._queue) == 1
        assert runtime.batches_flushed == flushed

    def test_unknown_callback_id_raises(self):
        runtime = GuestRuntime.__new__(GuestRuntime)
        runtime._callbacks = {}
        with pytest.raises(RemotingError, match="unknown callback"):
            runtime._deliver_callbacks(
                Reply(seq=1, callbacks=[[99, []]]), "f"
            )

    def test_migration_replays_build_and_refires_callback(self):
        """clBuildProgram is a modify record; replay re-invokes the
        notifier — visible, documented record/replay semantics."""
        hv = VirtualStack.build("opencl").hypervisor
        vm = hv.create_vm("vm-cb-mig")
        cl = vm.library("opencl")
        ctx, err = build_env(cl)
        prog = cl.clCreateProgramWithSource(ctx, 1, SRC, None, err)
        events = []
        cl.clBuildProgram(prog, 0, None, "", events.append, None)
        assert len(events) == 1
        hv.live_migrate_vm("vm-cb-mig", "opencl",
                           policy=MigrationPolicy(max_rounds=0))
        # replay happened server-side; the deferred upcalls of replayed
        # commands are not re-delivered to the guest (no reply path)
        assert len(events) == 1
        # and the rebuilt program still makes kernels
        kernel = cl.clCreateKernel(prog, "vector_add", err)
        assert err.value == types.CL_SUCCESS
        assert kernel is not None
