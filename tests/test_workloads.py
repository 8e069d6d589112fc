"""Workload correctness: native, forwarded, and cross-mode equivalence.

Workloads run at reduced scale here — the benchmarks run them at full
scale.  Every workload must verify against its pure-numpy reference in
both modes, and produce *identical* outputs in both (the bug-for-bug
compatibility the guest library must preserve).
"""

import numpy as np
import pytest

from repro.opencl import api as cl_api
from repro.opencl import session
from repro.stack import VirtualStack
from repro.workloads import (
    OPENCL_WORKLOADS,
    BFSWorkload,
    GaussianWorkload,
    InceptionWorkload,
    KMeansWorkload,
    LUDWorkload,
    NWWorkload,
)

SMALL = 0.06  # scale factor keeping per-test wall time low


@pytest.fixture(scope="module")
def forwarded_cl():
    return VirtualStack.build("opencl").add_vm("vm-workloads").lib


@pytest.mark.parametrize("workload_cls", OPENCL_WORKLOADS,
                         ids=lambda c: c.name)
class TestAllWorkloads:
    def test_native_verifies(self, workload_cls):
        workload = workload_cls(scale=SMALL)
        with session():
            result = workload.run(cl_api)
        assert result.verified, result.detail

    def test_forwarded_verifies(self, workload_cls, forwarded_cl):
        workload = workload_cls(scale=SMALL)
        result = workload.run(forwarded_cl)
        assert result.verified, result.detail


class TestLUDBlockMultiple:
    """n that is not a multiple of the block size used to crash
    ``_lud_diagonal`` with IndexError (scale=0.1 gave n=51)."""

    @pytest.mark.parametrize("scale", [0.1, 0.05])
    def test_ragged_scales_verify(self, scale, forwarded_cl):
        workload = LUDWorkload(scale=scale)
        assert workload.n % workload.block == 0
        with session():
            native = workload.run(cl_api)
        forwarded = workload.run(forwarded_cl)
        assert native.verified, native.detail
        assert forwarded.verified, forwarded.detail

    def test_full_scale_size_unchanged(self):
        assert LUDWorkload(scale=1.0).n == 512


class TestCrossModeEquivalence:
    @pytest.mark.parametrize("workload_cls",
                             [BFSWorkload, GaussianWorkload, NWWorkload],
                             ids=lambda c: c.name)
    def test_identical_outputs(self, workload_cls, forwarded_cl):
        workload = workload_cls(scale=SMALL)
        with session():
            native = workload.run(cl_api)
        forwarded = workload.run(forwarded_cl)
        for key, value in native.outputs.items():
            assert np.array_equal(value, forwarded.outputs[key]), key


class TestDeterminism:
    def test_same_seed_same_result(self, forwarded_cl):
        first = KMeansWorkload(scale=SMALL, seed=7).run(forwarded_cl)
        second = KMeansWorkload(scale=SMALL, seed=7).run(forwarded_cl)
        assert np.array_equal(first.outputs["membership"],
                              second.outputs["membership"])

    def test_different_seed_different_graph(self):
        a = BFSWorkload(scale=SMALL, seed=1)
        b = BFSWorkload(scale=SMALL, seed=2)
        assert not np.array_equal(a.reference()["cost"],
                                  b.reference()["cost"])

    def test_reference_is_cached(self):
        workload = GaussianWorkload(scale=SMALL)
        assert workload.reference() is workload.reference()


class TestInception:
    def test_native_inception(self):
        from repro.mvnc import api as mvnc_api
        from repro.mvnc.api import NCSSession

        workload = InceptionWorkload(batch=2)
        with NCSSession.opened():
            result = workload.run(mvnc_api)
        assert result.verified, result.detail

    def test_graph_is_deep(self):
        workload = InceptionWorkload()
        kinds = [layer.kind for layer in workload.graph_def.layers]
        assert kinds.count("inception_block") >= 3
        assert "softmax" in kinds

    def test_scale_parameter_respected(self):
        small = BFSWorkload(scale=0.01)
        large = BFSWorkload(scale=1.0)
        assert small.n < large.n


class TestSobelImagePath:
    """clCreateImage exercised natively and through the stack."""

    def test_native_sobel(self):
        from repro.workloads.sobel import SobelWorkload

        with session():
            result = SobelWorkload(scale=0.25).run(cl_api)
        assert result.verified, result.detail

    def test_forwarded_sobel(self, forwarded_cl):
        from repro.workloads.sobel import SobelWorkload

        result = SobelWorkload(scale=0.25).run(forwarded_cl)
        assert result.verified, result.detail

    def test_image_host_ptr_opaque_over_stack(self, forwarded_cl):
        """The spec marks image host_ptr unsupported: non-None must fail
        loudly at the guest boundary, not silently truncate."""
        import numpy as np
        from repro.guest.library import RemotingError
        from repro.opencl import types as t
        from repro.remoting.buffers import OutBox
        from repro.workloads.base import open_env, close_env

        env = open_env(forwarded_cl)
        try:
            err = OutBox()
            with pytest.raises(RemotingError):
                forwarded_cl.clCreateImage(
                    env.context, t.CL_MEM_COPY_HOST_PTR, t.CL_R, t.CL_FLOAT,
                    8, 8, np.zeros(64, dtype=np.float32), err,
                )
        finally:
            close_env(env)
