"""Tests for the simulated Movidius NCS: graph format, executor, API."""

import numpy as np
import pytest

from repro.mvnc import api
from repro.mvnc.device import NCSDeviceSpec, SimulatedNCS
from repro.mvnc.graph import (
    CONV,
    DENSE,
    FLATTEN,
    CONCAT_BLOCK,
    POOL_AVG,
    POOL_MAX,
    RELU,
    SOFTMAX,
    GraphDefinition,
    GraphError,
    GraphExecutor,
    Layer,
    estimate_flops,
)
from repro.remoting.buffers import OutBox


def tiny_graph(num_classes=4):
    """8x8x1 input → conv → relu → pool → flatten → dense → softmax."""
    rng = np.random.default_rng(7)
    return GraphDefinition(
        name="tiny",
        input_shape=(8, 8, 1),
        layers=[
            Layer(CONV, {"stride": 1},
                  {"w": rng.normal(size=(3, 3, 1, 4)).astype(np.float16),
                   "b": np.zeros(4, dtype=np.float16)}),
            Layer(RELU),
            Layer(POOL_MAX, {"size": 2, "stride": 2}),
            Layer(FLATTEN),
            Layer(DENSE, {}, {
                "w": rng.normal(size=(3 * 3 * 4, num_classes)).astype(np.float16),
                "b": np.zeros(num_classes, dtype=np.float16)}),
            Layer(SOFTMAX),
        ],
    )


class TestGraphFormat:
    def test_serialize_round_trip(self):
        graph = tiny_graph()
        again = GraphDefinition.deserialize(graph.serialize())
        assert again.name == "tiny"
        assert again.input_shape == (8, 8, 1)
        assert len(again.layers) == 6
        assert again.layers[0].weights["w"].shape == (3, 3, 1, 4)

    def test_bad_magic_rejected(self):
        with pytest.raises(GraphError):
            GraphDefinition.deserialize(b"not a graph at all")

    def test_weights_stored_fp16(self):
        graph = tiny_graph()
        again = GraphDefinition.deserialize(graph.serialize())
        assert again.layers[0].weights["w"].dtype == np.float16


class TestExecutor:
    def test_softmax_output_sums_to_one(self):
        graph = tiny_graph()
        result = GraphExecutor(graph).run(
            np.random.default_rng(0).normal(size=(8, 8, 1)).astype(np.float16)
        )
        assert result.output.shape == (4,)
        assert float(result.output.sum()) == pytest.approx(1.0, abs=1e-2)

    def test_flops_counted(self):
        graph = tiny_graph()
        result = GraphExecutor(graph).run(
            np.zeros((8, 8, 1), dtype=np.float16)
        )
        assert result.flops > 2 * 6 * 6 * 9 * 4  # at least the conv

    def test_shape_mismatch_rejected(self):
        with pytest.raises(GraphError):
            GraphExecutor(tiny_graph()).run(np.zeros((4, 4, 1)))

    def test_conv_channel_mismatch_names_layer(self):
        graph = GraphDefinition(
            name="bad", input_shape=(8, 8, 3),
            layers=[Layer(CONV, {}, {"w": np.zeros((3, 3, 1, 2),
                                                   dtype=np.float16)})],
        )
        with pytest.raises(GraphError, match="layer 0"):
            GraphExecutor(graph).run(np.zeros((8, 8, 3), dtype=np.float16))

    def test_dense_needs_flat_input(self):
        graph = GraphDefinition(
            name="bad", input_shape=(4, 4, 1),
            layers=[Layer(DENSE, {}, {"w": np.zeros((16, 2),
                                                    dtype=np.float16)})],
        )
        with pytest.raises(GraphError):
            GraphExecutor(graph).run(np.zeros((4, 4, 1), dtype=np.float16))

    def test_avg_pool(self):
        graph = GraphDefinition(
            name="pool", input_shape=(4, 4, 1),
            layers=[Layer(POOL_AVG, {"size": 2, "stride": 2})],
        )
        x = np.arange(16, dtype=np.float16).reshape(4, 4, 1)
        out = GraphExecutor(graph).run(x).output
        assert out.shape == (2, 2, 1)
        assert float(out[0, 0, 0]) == pytest.approx(2.5)

    def test_inception_block_concatenates_branches(self):
        rng = np.random.default_rng(1)
        graph = GraphDefinition(
            name="incept", input_shape=(8, 8, 2),
            layers=[Layer(
                CONCAT_BLOCK,
                {"branches": ["b1x1", "b3x3"]},
                {
                    "b1x1_w": rng.normal(size=(1, 1, 2, 3)).astype(np.float16),
                    "b3x3_w": rng.normal(size=(3, 3, 2, 5)).astype(np.float16),
                },
            )],
        )
        out = GraphExecutor(graph).run(
            rng.normal(size=(8, 8, 2)).astype(np.float16)
        ).output
        assert out.shape == (8, 8, 8)  # 3 + 5 channels, SAME padding

    def test_unknown_layer_kind(self):
        graph = GraphDefinition(name="x", input_shape=(2, 2, 1),
                                layers=[Layer("teleport")])
        with pytest.raises(GraphError):
            GraphExecutor(graph).run(np.zeros((2, 2, 1), dtype=np.float16))

    def test_estimate_flops_matches_run(self):
        graph = tiny_graph()
        estimate = estimate_flops(graph)
        run = GraphExecutor(graph).run(
            np.ones((8, 8, 1), dtype=np.float16)).flops
        assert estimate == run


@pytest.fixture()
def ncs():
    with api.NCSSession.opened([SimulatedNCS()]) as sess:
        yield sess


def open_device(sess):
    handle = OutBox()
    assert api.mvncOpenDevice(None, handle) == api.MVNC_OK
    return handle.value


def allocate(sess, device, graph=None):
    blob = (graph or tiny_graph()).serialize()
    handle = OutBox()
    code = api.mvncAllocateGraph(device, handle, blob, len(blob))
    assert code == api.MVNC_OK
    return handle.value


class TestDeviceLifecycle:
    def test_get_device_name(self, ncs):
        name = bytearray(64)
        assert api.mvncGetDeviceName(0, name, 64) == api.MVNC_OK
        assert b"Movidius" in bytes(name)

    def test_get_device_name_bad_index(self, ncs):
        assert api.mvncGetDeviceName(5, bytearray(8), 8) == \
            api.MVNC_DEVICE_NOT_FOUND

    def test_open_close(self, ncs):
        device = open_device(ncs)
        assert device.held(ncs).opened
        assert api.mvncCloseDevice(device) == api.MVNC_OK
        assert not device.held(ncs).opened

    def test_double_open_busy(self, ncs):
        open_device(ncs)
        box = OutBox()
        assert api.mvncOpenDevice(None, box) == api.MVNC_BUSY

    def test_forwarded_close_frees_the_guest_id(self):
        from repro.stack import VirtualStack

        hv = VirtualStack.build("mvnc").hypervisor
        mv = hv.create_vm("vm-close").library("mvnc")
        box = OutBox()
        assert mv.mvncOpenDevice(None, box) == api.MVNC_OK
        worker = hv.worker("vm-close", "mvnc")
        assert box.value in worker.handles
        assert mv.mvncCloseDevice(box.value) == api.MVNC_OK
        assert box.value not in worker.handles
        assert not hv.router.vms["vm-close"].logs["mvnc"].log

    def test_close_unopened(self, ncs):
        assert api.mvncCloseDevice(ncs.devices[0]) == api.MVNC_INVALID_PARAMETERS

    def test_open_charges_boot_time(self, ncs):
        before = ncs.clock.now
        open_device(ncs)
        assert ncs.clock.now - before >= 2e-3


class TestOpenStateBelongsToTheOwner:
    """Whether a stick is open is each native session's own fact: two
    tenants of one pooled stick both open it, and a session that ends
    leaves nothing open behind."""

    def pooled(self, *vm_ids):
        from repro.hypervisor.pool import DeviceClass
        from repro.stack import VirtualStack

        hv = VirtualStack.build("mvnc").hypervisor
        member = hv.add_device(DeviceClass.ncs())
        libs = [hv.create_vm(vm_id).library("mvnc") for vm_id in vm_ids]
        return hv, member.native_device("mvnc"), libs

    def test_second_tenant_opens_a_pooled_stick(self):
        _hv, stick, (mv_a, mv_b) = self.pooled("vm-a", "vm-b")
        box_a, box_b = OutBox(), OutBox()
        assert mv_a.mvncOpenDevice(None, box_a) == api.MVNC_OK
        assert mv_b.mvncOpenDevice(None, box_b) == api.MVNC_OK
        assert mv_b.mvncOpenDevice(None, OutBox()) == api.MVNC_BUSY
        assert mv_a.mvncCloseDevice(box_a.value) == api.MVNC_OK
        assert mv_b.mvncCloseDevice(box_b.value) == api.MVNC_OK

    def test_destroyed_opener_leaves_nothing_behind(self):
        hv, stick, (mv_a, mv_b) = self.pooled("vm-a", "vm-b")
        assert mv_a.mvncOpenDevice(None, OutBox()) == api.MVNC_OK
        hv.destroy_vm("vm-a")
        assert stick.holders == {}
        assert mv_b.mvncOpenDevice(None, OutBox()) == api.MVNC_OK

    def test_closed_session_drops_its_entry(self):
        stick = SimulatedNCS()
        for _ in range(2):
            with api.NCSSession.opened([stick]) as sess:
                open_device(sess)
                allocate(sess, stick)
                assert stick.held(sess).opened
            # leaving the block closed the session
            assert stick.holders == {} and stick.allocated_bytes == 0


class TestGraphLifecycle:
    def test_allocate_and_deallocate(self, ncs):
        device = open_device(ncs)
        graph = allocate(ncs, device)
        assert device.allocated_bytes > 0
        assert api.mvncDeallocateGraph(graph) == api.MVNC_OK
        assert device.allocated_bytes == 0

    def test_allocate_bad_blob(self, ncs):
        device = open_device(ncs)
        box = OutBox()
        assert api.mvncAllocateGraph(device, box, b"garbage", 7) == \
            api.MVNC_UNSUPPORTED_GRAPH_FILE

    def test_allocate_on_closed_device(self, ncs):
        device = ncs.devices[0]
        box = OutBox()
        blob = tiny_graph().serialize()
        assert api.mvncAllocateGraph(device, box, blob, len(blob)) == \
            api.MVNC_GONE

    def test_allocate_out_of_memory(self):
        spec = NCSDeviceSpec(graph_memory_bytes=64)
        with api.NCSSession.opened([SimulatedNCS(spec)]) as sess:
            device = open_device(sess)
            blob = tiny_graph().serialize()
            box = OutBox()
            assert api.mvncAllocateGraph(device, box, blob, len(blob)) == \
                api.MVNC_OUT_OF_MEMORY

    def test_double_deallocate(self, ncs):
        device = open_device(ncs)
        graph = allocate(ncs, device)
        api.mvncDeallocateGraph(graph)
        assert api.mvncDeallocateGraph(graph) == api.MVNC_INVALID_PARAMETERS


class TestInference:
    def _infer(self, ncs, graph):
        x = np.random.default_rng(3).normal(size=(8, 8, 1)).astype(np.float16)
        assert api.mvncLoadTensor(graph, x, x.nbytes, 77) == api.MVNC_OK
        out = np.zeros(4, dtype=np.float16)
        out_len = OutBox()
        user = OutBox()
        assert api.mvncGetResult(graph, out, out.nbytes, out_len, user) == \
            api.MVNC_OK
        return out, out_len.value, user.value

    def test_load_and_get_result(self, ncs):
        device = open_device(ncs)
        graph = allocate(ncs, device)
        out, length, user = self._infer(ncs, graph)
        assert length == 8
        assert user == 77
        assert float(out.sum()) == pytest.approx(1.0, abs=1e-2)

    def test_get_result_without_load(self, ncs):
        device = open_device(ncs)
        graph = allocate(ncs, device)
        assert api.mvncGetResult(graph, np.zeros(4, np.float16), 8, OutBox(),
                                 OutBox()) == api.MVNC_NO_DATA

    def test_wrong_input_size(self, ncs):
        device = open_device(ncs)
        graph = allocate(ncs, device)
        bad = np.zeros(10, dtype=np.float16)
        assert api.mvncLoadTensor(graph, bad, bad.nbytes, None) == \
            api.MVNC_INVALID_PARAMETERS

    def test_output_capacity_too_small(self, ncs):
        device = open_device(ncs)
        graph = allocate(ncs, device)
        x = np.zeros((8, 8, 1), dtype=np.float16)
        api.mvncLoadTensor(graph, x, x.nbytes, None)
        code = api.mvncGetResult(graph, np.zeros(1, np.float16), 2, OutBox(),
                                 OutBox())
        assert code == api.MVNC_INVALID_PARAMETERS
        # result must still be retrievable afterwards
        out = np.zeros(4, dtype=np.float16)
        assert api.mvncGetResult(graph, out, 8, OutBox(), OutBox()) == \
            api.MVNC_OK

    def test_fifo_ordering(self, ncs):
        device = open_device(ncs)
        graph = allocate(ncs, device)
        x = np.zeros((8, 8, 1), dtype=np.float16)
        api.mvncLoadTensor(graph, x, x.nbytes, 1)
        api.mvncLoadTensor(graph, x, x.nbytes, 2)
        user = OutBox()
        out = np.zeros(4, dtype=np.float16)
        api.mvncGetResult(graph, out, 8, OutBox(), user)
        assert user.value == 1
        api.mvncGetResult(graph, out, 8, OutBox(), user)
        assert user.value == 2

    def test_inference_advances_clock(self, ncs):
        device = open_device(ncs)
        graph = allocate(ncs, device)
        before = ncs.clock.now
        self._infer(ncs, graph)
        assert ncs.clock.now > before


class TestOptions:
    def test_output_size_option(self, ncs):
        device = open_device(ncs)
        graph = allocate(ncs, device)
        data = OutBox()
        assert api.mvncGetGraphOption(
            graph, api.MVNC_GRAPH_OPTION_OUTPUT_SIZE, data, OutBox()
        ) == api.MVNC_OK
        assert data.value == 8  # 4 classes × fp16

    def test_time_taken_accumulates(self, ncs):
        device = open_device(ncs)
        graph = allocate(ncs, device)
        data = OutBox()
        api.mvncGetGraphOption(graph, api.MVNC_GRAPH_OPTION_TIME_TAKEN, data,
                               OutBox())
        assert data.value == 0.0
        x = np.zeros((8, 8, 1), dtype=np.float16)
        api.mvncLoadTensor(graph, x, x.nbytes, None)
        api.mvncGetResult(graph, np.zeros(4, np.float16), 8, OutBox(),
                          OutBox())
        api.mvncGetGraphOption(graph, api.MVNC_GRAPH_OPTION_TIME_TAKEN, data,
                               OutBox())
        assert data.value > 0.0

    def test_global_log_level(self, ncs):
        assert api.mvncSetGlobalOption(api.MVNC_GLOBAL_OPTION_LOG_LEVEL, 2,
                                       4) == api.MVNC_OK
        data = OutBox()
        api.mvncGetGlobalOption(api.MVNC_GLOBAL_OPTION_LOG_LEVEL, data,
                                OutBox())
        assert data.value == 2

    def test_device_thermal_option(self, ncs):
        device = open_device(ncs)
        data = OutBox()
        assert api.mvncGetDeviceOption(
            device, api.MVNC_DEVICE_OPTION_THERMAL_STATS, data, OutBox()
        ) == api.MVNC_OK
        assert data.value > 0

    def test_readonly_graph_option_rejected(self, ncs):
        device = open_device(ncs)
        graph = allocate(ncs, device)
        assert api.mvncSetGraphOption(
            graph, api.MVNC_GRAPH_OPTION_TIME_TAKEN, 1, 4
        ) == api.MVNC_INVALID_PARAMETERS

    def test_function_count(self):
        assert len(api.FUNCTION_NAMES) == 13
        for name in api.FUNCTION_NAMES:
            assert callable(getattr(api, name))
