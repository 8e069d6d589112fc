"""Tests for the dynamic-language extension: TPU silo + pyfront."""

import numpy as np
import pytest

from repro.analysis import lint_spec
from repro.codegen.pyfront import (
    Handle,
    InBuffer,
    NewHandle,
    OutBuffer,
    OutScalar,
    spec_from_module,
)
from repro.migration import MigrationPolicy
from repro.remoting.buffers import OutBox
from repro.spec.errors import SpecSemanticError
from repro.spec.model import RecordKind
from repro.stack import VirtualStack, load_spec
from repro.tpu import api
from repro.tpu.device import SimulatedTPU, TPUDeviceSpec
from repro.tpu.graphs import (
    OP_ADD,
    OP_MATMUL,
    OP_RELU,
    OP_SOFTMAX,
    OP_REDUCE_SUM,
    GraphError,
    TPUGraph,
)
from repro.workloads.tpu_mlp import TPUMLPWorkload


class TestDeviceModel:
    def test_matmul_cost_pads_to_tiles(self):
        tpu = SimulatedTPU()
        tiny = tpu.matmul_cost(1, 1, 1)
        full_tile = tpu.matmul_cost(128, 128, 128)
        assert tiny == full_tile  # padding waste

    def test_matmul_cost_scales_with_tiles(self):
        tpu = SimulatedTPU()
        assert tpu.matmul_cost(256, 128, 128) == pytest.approx(
            2 * tpu.matmul_cost(128, 128, 128)
        )

    def test_step_serialization(self):
        tpu = SimulatedTPU()
        first = tpu.occupy(tpu.step_cost(1e-3), not_before=0.0).end
        second = tpu.occupy(tpu.step_cost(1e-3), not_before=0.0).end
        assert second == pytest.approx(first + 1e-3 +
                                       tpu.spec.step_overhead)


class TestGraphs:
    def make_graph(self):
        return TPUGraph(device=SimulatedTPU())

    def test_matmul_shapes_checked(self):
        graph = self.make_graph()
        a = graph.placeholder(4, 8)
        b = graph.constant(np.zeros((9, 2), dtype=np.float32))
        with pytest.raises(GraphError):
            graph.binary(OP_MATMUL, a, b)

    def test_add_broadcast_row_vector(self):
        graph = self.make_graph()
        a = graph.placeholder(4, 8)
        bias = graph.constant(np.ones((1, 8), dtype=np.float32))
        node = graph.binary(OP_ADD, a, bias)
        assert graph.nodes_shape(node) == (4, 8)

    def test_run_requires_compile(self):
        graph = self.make_graph()
        a = graph.placeholder(2, 2)
        with pytest.raises(GraphError):
            graph.run({a: np.zeros((2, 2))}, a)

    def test_execution_matches_numpy(self):
        graph = self.make_graph()
        x = graph.placeholder(3, 4)
        w = graph.constant(np.arange(8, dtype=np.float32).reshape(4, 2))
        y = graph.unary(OP_SOFTMAX, graph.binary(OP_MATMUL, x, w))
        graph.compile()
        feed = np.random.default_rng(0).normal(size=(3, 4)).astype(
            np.float32)
        got = graph.run({x: feed}, y)
        logits = feed @ np.arange(8, dtype=np.float32).reshape(4, 2)
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        assert np.allclose(got, exp / exp.sum(axis=1, keepdims=True),
                           atol=1e-5)

    def test_reduce_sum_shape(self):
        graph = self.make_graph()
        x = graph.placeholder(3, 4)
        node = graph.unary(OP_REDUCE_SUM, x)
        assert graph.nodes_shape(node) == (3, 1)

    def test_unfed_placeholder_rejected(self):
        graph = self.make_graph()
        x = graph.placeholder(2, 2)
        y = graph.placeholder(2, 2)
        node = graph.binary(OP_ADD, x, y)
        graph.compile()
        with pytest.raises(GraphError):
            graph.run({x: np.zeros((2, 2))}, node)


class TestPyFront:
    def test_tpu_spec_from_module(self):
        spec = spec_from_module(api, "tpu", "tpu")
        assert len(spec.functions) == 11
        assert spec.validate() == []
        assert lint_spec(spec).gate("error")

    def test_handle_params_detected(self):
        spec = spec_from_module(api, "tpu", "tpu")
        assert spec.function("tpuCreateGraph").param(
            "device_handle").is_handle
        assert spec.function("tpuCreateGraph").param(
            "graph_handle").element_allocates

    def test_outbuffer_shrinks_to_produced(self):
        spec = spec_from_module(api, "tpu", "tpu")
        assert spec.function("tpuRun").param("out_data").shrinks_to == \
            "produced"

    def test_record_overrides_applied(self):
        spec = spec_from_module(api, "tpu", "tpu")
        assert spec.function("tpuConstant").record_kind is RecordKind.MODIFY
        assert spec.function("tpuRun").record_kind is None

    def test_deallocates_applied(self):
        spec = spec_from_module(api, "tpu", "tpu")
        assert spec.function("tpuDestroyGraph").param(
            "graph_handle").element_deallocates

    def test_module_helpers_excluded(self):
        spec = spec_from_module(api, "tpu", "tpu")
        assert sorted(spec.functions) == sorted(api.FUNCTION_NAMES)
        for plumbing in ("TPUSession", "_session", "set_box"):
            assert plumbing not in spec.functions

    def test_inbuffer_without_size_sibling_rejected(self):
        class FakeModule:
            __name__ = "fake"

            @staticmethod
            def fkDoIt(data: InBuffer) -> int:
                return 0

        with pytest.raises(SpecSemanticError, match="data_size"):
            spec_from_module(FakeModule, "fake", "fk")

    def test_unsupported_annotation_rejected(self):
        class FakeModule:
            __name__ = "fake"

            @staticmethod
            def fkDoIt(data: dict) -> int:
                return 0

        with pytest.raises(SpecSemanticError, match="unsupported"):
            spec_from_module(FakeModule, "fake", "fk")

    def test_empty_module_rejected(self):
        class FakeModule:
            __name__ = "fake"

        with pytest.raises(SpecSemanticError):
            spec_from_module(FakeModule, "fake", "fk")


class TestWorkload:
    def test_native_mlp(self):
        with api.TPUSession.opened():
            result = TPUMLPWorkload(steps=3).run(api)
        assert result.verified, result.detail

    def test_forwarded_mlp(self):
        hv = VirtualStack.build("tpu").hypervisor
        vm = hv.create_vm("vm-tpu")
        result = TPUMLPWorkload(steps=3).run(vm.library("tpu"))
        assert result.verified, result.detail

    def test_forwarding_overhead_small(self):
        from repro.vclock import VirtualClock

        workload = TPUMLPWorkload(steps=8)
        clock = VirtualClock("tpu-native")
        with api.TPUSession.opened(clock=clock):
            assert workload.run(api).verified
        native = clock.now

        hv = VirtualStack.build("tpu").hypervisor
        vm = hv.create_vm("vm-tpu-f")
        assert workload.run(vm.library("tpu")).verified
        ratio = vm.clock.now / native
        assert 1.0 <= ratio < 1.1, ratio

    def test_load_spec_integration(self):
        spec = load_spec("tpu")
        assert spec.name == "tpu"
        assert "tpuRun" in spec.functions

    def test_migration_of_tpu_graph(self):
        """Dynamic-API state also migrates by record/replay."""
        hv = VirtualStack.build("tpu").hypervisor
        vm = hv.create_vm("vm-tpu-m")
        tp = vm.library("tpu")
        device = OutBox()
        assert tp.tpuOpenDevice(device) == api.TPU_OK
        graph = OutBox()
        assert tp.tpuCreateGraph(device.value, graph) == api.TPU_OK
        x = OutBox()
        assert tp.tpuPlaceholder(graph.value, 2, 2, x) == api.TPU_OK
        w = np.eye(2, dtype=np.float32) * 3
        wnode = OutBox()
        assert tp.tpuConstant(graph.value, w, w.nbytes, 2, 2,
                              wnode) == api.TPU_OK
        y = OutBox()
        assert tp.tpuBinaryOp(graph.value, OP_MATMUL, x.value, wnode.value,
                              y) == api.TPU_OK
        flops = OutBox()
        assert tp.tpuCompile(graph.value, flops) == api.TPU_OK

        report = hv.live_migrate_vm("vm-tpu-m", "tpu",
                                    policy=MigrationPolicy(max_rounds=0))
        assert report.mode == "stop-the-world"
        assert report.replayed_calls >= 5

        feed = np.ones((2, 2), dtype=np.float32)
        out = np.zeros((2, 2), dtype=np.float32)
        produced = OutBox()
        assert tp.tpuRun(graph.value, x.value, feed, feed.nbytes, y.value,
                         out, out.nbytes, produced) == api.TPU_OK
        assert np.allclose(out, feed @ w)
