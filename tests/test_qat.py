"""Tests for the QuickAssist extension: native API, spec, forwarding."""

import zlib

import pytest

from repro.analysis import lint_spec
from repro.qat import api
from repro.qat.device import QATDeviceSpec, SimulatedQAT
from repro.remoting.buffers import OutBox
from repro.stack import VirtualStack, load_spec
from repro.workloads.compression import CompressionWorkload, make_corpus


@pytest.fixture()
def qat():
    with api.QATSession.opened([SimulatedQAT()]) as sess:
        yield sess


def start_instance(sess):
    box = OutBox()
    assert api.cpaDcStartInstance(0, box) == api.CPA_STATUS_SUCCESS
    return box.value


def open_session(instance, direction, level=6):
    box = OutBox()
    assert api.cpaDcInitSession(instance, box, level, direction) == \
        api.CPA_STATUS_SUCCESS
    return box.value


class TestInstances:
    def test_num_instances(self, qat):
        box = OutBox()
        assert api.cpaDcGetNumInstances(box) == api.CPA_STATUS_SUCCESS
        assert box.value == 1

    def test_start_bad_index(self, qat):
        assert api.cpaDcStartInstance(5, OutBox()) == \
            api.CPA_STATUS_INVALID_PARAM

    def test_double_start(self, qat):
        start_instance(qat)
        assert api.cpaDcStartInstance(0, OutBox()) == api.CPA_STATUS_RESOURCE

    def test_stop_with_open_sessions_refused(self, qat):
        instance = start_instance(qat)
        session = open_session(instance, api.CPA_DC_DIR_COMPRESS)
        assert api.cpaDcStopInstance(instance) == api.CPA_STATUS_RESOURCE
        api.cpaDcRemoveSession(session)
        assert api.cpaDcStopInstance(instance) == api.CPA_STATUS_SUCCESS


class TestOpenStateBelongsToTheOwner:
    """A started instance and its DC sessions are each native session's
    own: two tenants of one pooled engine both start it, and a tenant
    that goes away leaves nothing started behind."""

    def pooled(self, *vm_ids):
        from repro.hypervisor.pool import DeviceClass

        hv = VirtualStack.build("qat").hypervisor
        member = hv.add_device(DeviceClass.qat())
        libs = [hv.create_vm(vm_id).library("qat") for vm_id in vm_ids]
        return hv, member.native_device("qat"), libs

    def test_second_tenant_starts_a_pooled_instance(self):
        _hv, engine, (qa_a, qa_b) = self.pooled("vm-a", "vm-b")
        for qa in (qa_a, qa_b):
            instance, session = OutBox(), OutBox()
            assert qa.cpaDcStartInstance(0, instance) == \
                api.CPA_STATUS_SUCCESS
            assert qa.cpaDcInitSession(instance.value, session, 6,
                                       api.CPA_DC_DIR_COMPRESS) == \
                api.CPA_STATUS_SUCCESS
        assert qa_b.cpaDcStartInstance(0, OutBox()) == api.CPA_STATUS_RESOURCE

    def test_destroyed_tenant_leaves_nothing_behind(self):
        hv, engine, (qa_a, qa_b) = self.pooled("vm-a", "vm-b")
        instance = OutBox()
        assert qa_a.cpaDcStartInstance(0, instance) == api.CPA_STATUS_SUCCESS
        assert qa_a.cpaDcInitSession(instance.value, OutBox(), 6,
                                     api.CPA_DC_DIR_COMPRESS) == \
            api.CPA_STATUS_SUCCESS
        hv.destroy_vm("vm-a")
        assert engine.holders == {}
        instance = OutBox()
        assert qa_b.cpaDcStartInstance(0, instance) == api.CPA_STATUS_SUCCESS
        assert qa_b.cpaDcStopInstance(instance.value) == \
            api.CPA_STATUS_SUCCESS


class TestSessions:
    def test_bad_level(self, qat):
        instance = start_instance(qat)
        assert api.cpaDcInitSession(instance, OutBox(), 0,
                                    api.CPA_DC_DIR_COMPRESS) == \
            api.CPA_STATUS_INVALID_PARAM

    def test_bad_direction(self, qat):
        instance = start_instance(qat)
        assert api.cpaDcInitSession(instance, OutBox(), 6, 7) == \
            api.CPA_STATUS_INVALID_PARAM

    def test_session_limit(self):
        spec = QATDeviceSpec(max_sessions=2)
        with api.QATSession.opened([SimulatedQAT(spec)]) as sess:
            instance = start_instance(sess)
            open_session(instance, api.CPA_DC_DIR_COMPRESS)
            open_session(instance, api.CPA_DC_DIR_COMPRESS)
            assert api.cpaDcInitSession(instance, OutBox(), 6,
                                        api.CPA_DC_DIR_COMPRESS) == \
                api.CPA_STATUS_RESOURCE

    def test_double_remove(self, qat):
        instance = start_instance(qat)
        session = open_session(instance, api.CPA_DC_DIR_COMPRESS)
        assert api.cpaDcRemoveSession(session) == api.CPA_STATUS_SUCCESS
        assert api.cpaDcRemoveSession(session) == api.CPA_STATUS_INVALID_PARAM


class TestDataPath:
    def test_compress_round_trip(self, qat):
        instance = start_instance(qat)
        comp = open_session(instance, api.CPA_DC_DIR_COMPRESS)
        data = b"hello hello hello hello " * 100
        dst = bytearray(4096)
        produced = OutBox()
        assert api.cpaDcCompressData(comp, data, len(data), dst, 4096,
                                     produced) == api.CPA_STATUS_SUCCESS
        assert produced.value < len(data)
        assert zlib.decompress(bytes(dst[: produced.value])) == data

    def test_decompress(self, qat):
        instance = start_instance(qat)
        decomp = open_session(instance, api.CPA_DC_DIR_DECOMPRESS)
        original = b"payload " * 64
        blob = zlib.compress(original)
        out = bytearray(len(original))
        restored = OutBox()
        assert api.cpaDcDecompressData(decomp, blob, len(blob), out,
                                       len(out), restored) == \
            api.CPA_STATUS_SUCCESS
        assert bytes(out[: restored.value]) == original

    def test_wrong_direction_rejected(self, qat):
        instance = start_instance(qat)
        comp = open_session(instance, api.CPA_DC_DIR_COMPRESS)
        assert api.cpaDcDecompressData(comp, b"x", 1, bytearray(8), 8,
                                       OutBox()) == \
            api.CPA_STATUS_INVALID_PARAM

    def test_overflow(self, qat):
        instance = start_instance(qat)
        comp = open_session(instance, api.CPA_DC_DIR_COMPRESS)
        import numpy as np
        noise = np.random.default_rng(1).bytes(4096)  # incompressible
        assert api.cpaDcCompressData(comp, noise, 4096, bytearray(16), 16,
                                     OutBox()) == api.CPA_DC_OVERFLOW

    def test_bad_data(self, qat):
        instance = start_instance(qat)
        decomp = open_session(instance, api.CPA_DC_DIR_DECOMPRESS)
        assert api.cpaDcDecompressData(decomp, b"not-zlib", 8,
                                       bytearray(64), 64, OutBox()) == \
            api.CPA_DC_BAD_DATA

    def test_requests_charge_time(self, qat):
        instance = start_instance(qat)
        comp = open_session(instance, api.CPA_DC_DIR_COMPRESS)
        before = qat.clock.now
        data = b"a" * (1 << 20)
        api.cpaDcCompressData(comp, data, len(data), bytearray(1 << 20),
                              1 << 20, OutBox())
        assert qat.clock.now - before >= \
            instance.request_cost(1 << 20, decompress=False)

    def test_stats(self, qat):
        instance = start_instance(qat)
        comp = open_session(instance, api.CPA_DC_DIR_COMPRESS)
        data = b"stats " * 100
        api.cpaDcCompressData(comp, data, len(data), bytearray(2048), 2048,
                              OutBox())
        consumed, produced, requests = OutBox(), OutBox(), OutBox()
        assert api.cpaDcGetStats(instance, consumed, produced, requests) == \
            api.CPA_STATUS_SUCCESS
        assert consumed.value == len(data)
        assert requests.value == 1


class TestSpecAndForwarding:
    def test_spec_parses_and_verifies(self):
        spec = load_spec("qat")
        assert len(spec.functions) == 8
        assert spec.validate() == []
        report = lint_spec(spec)
        assert report.gate("error"), report.format()

    def test_workload_native(self, qat):
        result = CompressionWorkload(blocks=4, block_kib=16).run(api)
        assert result.verified, result.detail

    def test_workload_forwarded(self):
        hv = VirtualStack.build("qat").hypervisor
        vm = hv.create_vm("vm-qat")
        result = CompressionWorkload(blocks=4, block_kib=16).run(
            vm.library("qat")
        )
        assert result.verified, result.detail

    def test_forwarding_overhead_small(self):
        """Bulk-request APIs tolerate forwarding, like the NCS."""
        from repro.vclock import VirtualClock

        workload = CompressionWorkload(blocks=8, block_kib=512)
        clock = VirtualClock("qat-native")
        with api.QATSession.opened([SimulatedQAT()], clock=clock):
            assert workload.run(api).verified
        native = clock.now

        hv = VirtualStack.build("qat").hypervisor
        vm = hv.create_vm("vm-qat-f")
        assert workload.run(vm.library("qat")).verified
        ratio = vm.clock.now / native
        # a fast engine with medium payloads pays proportionally more
        # than PCIe-attached devices, but stays well under the chatty band
        assert 1.0 <= ratio < 1.25

    def test_handle_table_freed_on_remove(self):
        hv = VirtualStack.build("qat").hypervisor
        vm = hv.create_vm("vm-qat-h")
        qa = vm.library("qat")
        worker = hv.worker("vm-qat", "qat") if False else \
            hv.worker("vm-qat-h", "qat")
        instance = OutBox()
        qa.cpaDcStartInstance(0, instance)
        session = OutBox()
        qa.cpaDcInitSession(instance.value, session, 6,
                            api.CPA_DC_DIR_COMPRESS)
        assert session.value in worker.handles
        qa.cpaDcRemoveSession(session.value)
        assert session.value not in worker.handles

    def test_removed_sessions_leave_the_log(self):
        """50 init/remove pairs leave one record (the started instance):
        a stop-the-world migration replays it alone, and the
        destination's table matches the source's."""
        from repro.migration import MigrationPolicy

        hv = VirtualStack.build("qat").hypervisor
        qa = hv.create_vm("vm-qat-churn").library("qat")
        instance = OutBox()
        assert qa.cpaDcStartInstance(0, instance) == api.CPA_STATUS_SUCCESS
        for _ in range(50):
            session = OutBox()
            assert qa.cpaDcInitSession(instance.value, session, 6,
                                       api.CPA_DC_DIR_COMPRESS) == \
                api.CPA_STATUS_SUCCESS
            assert qa.cpaDcRemoveSession(session.value) == \
                api.CPA_STATUS_SUCCESS
        assert len(hv.router.vms["vm-qat-churn"].logs["qat"]) == 1
        source = hv.worker("vm-qat-churn", "qat")
        report = hv.live_migrate_vm("vm-qat-churn", "qat",
                                    policy=MigrationPolicy(max_rounds=0))
        assert not report.aborted, report.reason
        assert report.replayed_calls == 1
        dest = hv.worker("vm-qat-churn", "qat")
        assert dest.handles.snapshot_ids() == \
            source.handles.snapshot_ids() == {instance.value}

    def test_corpus_deterministic(self):
        assert make_corpus(2, 1024, 7) == make_corpus(2, 1024, 7)
