"""Tests for router resource quotas and the spec properties `cava lint`
checks."""

import os

import numpy as np
import pytest

from repro.analysis import lint_path, lint_spec
from repro.guest.library import RemotingError
from repro.hypervisor.policy import ResourcePolicy, VMPolicy
from repro.opencl import types
from repro.remoting.buffers import OutBox
from repro.spec import parse_spec
from repro.spec.cparser import parse_header
from repro.spec.infer import infer_preliminary_spec
from repro.spec.model import RecordKind
from repro.stack import VirtualStack, default_specs_dir, load_spec


class TestResourceQuotas:
    def _hypervisor(self, limits):
        policy = ResourcePolicy()
        policy.set_policy("vm-q", VMPolicy(resource_limits=limits))
        return VirtualStack.build("opencl", policy=policy).hypervisor

    def _open_context(self, cl):
        plats = [None]
        cl.clGetPlatformIDs(1, plats, None)
        devs = [None]
        cl.clGetDeviceIDs(plats[0], types.CL_DEVICE_TYPE_GPU, 1, devs, None)
        err = OutBox()
        return cl.clCreateContext(None, 1, devs, None, None, err)

    def test_device_memory_quota_enforced(self):
        hv = self._hypervisor({"device_memory": 1 << 20})
        vm = hv.create_vm("vm-q")
        cl = vm.library("opencl")
        ctx = self._open_context(cl)
        err = OutBox()
        # within quota: fine
        first = cl.clCreateBuffer(ctx, 0, 512 * 1024, None, err)
        assert first is not None
        # this one would exceed 1 MiB cumulative: rejected by the router
        with pytest.raises(RemotingError, match="quota exhausted"):
            cl.clCreateBuffer(ctx, 0, 768 * 1024, None, err)
        assert hv.router.metrics_for("vm-q").rejected == 1

    def test_bus_bytes_quota(self):
        hv = self._hypervisor({"bus_bytes": 64 * 1024})
        vm = hv.create_vm("vm-q")
        cl = vm.library("opencl")
        ctx = self._open_context(cl)
        err = OutBox()
        mem = cl.clCreateBuffer(ctx, 0, 16 * 1024, None, err)
        # the create consumed 16 KiB of bus budget; writes use the rest
        plats = [None]
        cl.clGetPlatformIDs(1, plats, None)
        devs = [None]
        cl.clGetDeviceIDs(plats[0], types.CL_DEVICE_TYPE_GPU, 1, devs, None)
        queue = cl.clCreateCommandQueue(ctx, devs[0], 0, err)
        payload = np.zeros(4096, dtype=np.float32)  # 16 KiB per write
        for _ in range(3):
            code = cl.clEnqueueWriteBuffer(queue, mem, types.CL_TRUE, 0,
                                           16 * 1024, payload, 0, None, None)
            assert code == types.CL_SUCCESS
        with pytest.raises(RemotingError, match="bus_bytes"):
            cl.clEnqueueWriteBuffer(queue, mem, types.CL_TRUE, 0, 16 * 1024,
                                    payload, 0, None, None)

    def test_other_vm_unaffected_by_quota(self):
        hv = self._hypervisor({"device_memory": 1024})
        vm_quota = hv.create_vm("vm-q")
        vm_free = hv.create_vm("vm-free")
        ctx_free = self._open_context(vm_free.library("opencl"))
        err = OutBox()
        mem = vm_free.library("opencl").clCreateBuffer(
            ctx_free, 0, 1 << 20, None, err
        )
        assert mem is not None

    def test_unlimited_by_default(self):
        hv = VirtualStack.build("opencl").hypervisor
        vm = hv.create_vm("vm-any")
        cl = vm.library("opencl")
        ctx = self._open_context(cl)
        err = OutBox()
        assert cl.clCreateBuffer(ctx, 0, 64 << 20, None, err) is not None


class TestSpecVerifier:
    """The checks `cava lint` makes of each function's properties."""

    def test_shipped_specs_verify_clean(self):
        for api in ("opencl", "mvnc"):
            report = lint_path(
                os.path.join(default_specs_dir(), f"{api}.cava"))
            assert report.gate("warning"), report.format()
            assert sum(report.checks_passed.values()) > 30

    def test_async_with_required_outputs_is_error(self):
        spec = parse_spec(
            "api(x);\n"
            "int f(float *out_data, int out_data_size) {\n"
            "  async;\n"
            "  parameter(out_data) { out; buffer(out_data_size); }\n"
            "}\n"
        )
        report = lint_spec(spec)
        assert not report.gate("error")
        assert any(d.code == "CAVA100" and "output" in d.message
                   for d in report.errors)

    def test_conditional_async_with_outputs_is_property(self):
        """Conditionally async with required outputs is sound: the data
        is defined by the next synchronization point."""
        spec = parse_spec(
            "api(x);\n"
            "int f(int blocking, float *out_data, int out_data_size) {\n"
            "  if (blocking == 1) sync; else async;\n"
            "  parameter(out_data) { out; buffer(out_data_size); }\n"
            "}\n"
        )
        report = lint_spec(spec)
        assert report.gate("warning"), report.format()

    def test_deallocates_on_non_handle_is_error(self):
        spec = parse_spec(
            "api(x);\nint f(int plain) "
            "{ parameter(plain) { deallocates; } }"
        )
        report = lint_spec(spec)
        assert any(d.code == "CAVA207" and "not a handle" in d.message
                   for d in report.errors)

    def test_orphan_handle_type_warned(self):
        spec = parse_spec(
            "api(x);\ntype(hdl) { handle; }\nint useIt(hdl h);"
        )
        report = lint_spec(spec)
        assert any(d.code == "CAVA206" and "never produced" in d.message
                   for d in report.warnings)

    def test_opaque_params_warned_not_errored(self):
        spec = parse_spec("api(x);\nint f(void *pfn_notify);")
        report = lint_spec(spec)
        assert report.gate("error")
        assert [d.code for d in report.warnings] == ["CAVA108"]

    def test_format_report_verbose(self):
        report = lint_path(os.path.join(default_specs_dir(), "opencl.cava"))
        text = report.format(verbose=True)
        assert "invariants checked" in text
        assert "suppressed CAVA108 clCreateImage" in text


class TestRecordVerbInference:
    def test_deallocate_is_destroy_not_create(self):
        header = parse_header(
            "typedef struct _g *g;\n"
            "int mvncDeallocateGraph(g graph_handle);\n"
            "int mvncAllocateGraph(int dev, g *graph_handle);\n"
        )
        spec = infer_preliminary_spec(header, "m")
        assert spec.function("mvncDeallocateGraph").record_kind \
            is RecordKind.DESTROY
        assert spec.function("mvncAllocateGraph").record_kind \
            is RecordKind.CREATE

    def test_mvnc_spec_kinds_correct(self):
        spec = load_spec("mvnc")
        assert spec.function("mvncDeallocateGraph").record_kind \
            is RecordKind.DESTROY
        assert spec.function("mvncCloseDevice").record_kind \
            is RecordKind.DESTROY
        assert spec.function("mvncOpenDevice").record_kind \
            is RecordKind.CREATE
        assert spec.function("mvncLoadTensor").record_kind is None
