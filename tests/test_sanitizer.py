"""Tests for the runtime ordering/invariant sanitizer
(``repro.analysis.sanitizer``, armed via ``CAVA_SANITIZE=1`` /
``cava chaos --sanitize``).

The contract under test: armed, the sanitizer checks that real dispatch
behaviour linearizes against the spec's happens-before model (plus the
clock/cache/crash/pool invariant asserts) without performing any clock
operation — so virtual-time results stay bit-identical; disarmed, every
hook site is one attribute read on the module NOOP.
"""

import pytest

from repro.analysis import sanitizer as san
from repro.analysis.sanitizer import NOOP, Sanitizer, SanitizerError
from repro.guest.batching import BatchPolicy
from repro.guest.library import GuestRuntime
from repro.remoting.xfercache import CachePolicy, digest_payload
from repro.stack import VirtualStack
from repro.workloads import NWWorkload

SMALL = 0.06


@pytest.fixture(autouse=True)
def disarm():
    """Every test starts and ends with the NOOP installed."""
    san.uninstall()
    yield
    san.uninstall()


def armed():
    return san.install(Sanitizer())


@pytest.fixture
def no_flush_before_sync(monkeypatch):
    """Seed the ordering violation: queued async work no longer
    crosses ahead of a sync call, so the sync call overtakes it —
    exactly the hazard CAVA402/CAVA403 warn about."""
    flush = GuestRuntime._flush

    def skip_sync(runtime, reason):
        if reason != "sync":
            flush(runtime, reason)

    monkeypatch.setattr(GuestRuntime, "_flush", skip_sync)


class TestInstall:
    def test_noop_by_default(self):
        assert san.active() is NOOP
        assert not san.active().enabled

    def test_install_and_uninstall(self):
        s = armed()
        assert san.active() is s and s.enabled
        san.uninstall()
        assert san.active() is NOOP

    def test_env_arming(self):
        san.maybe_install_from_env({"CAVA_SANITIZE": "1"})
        assert san.active().enabled
        san.uninstall()
        san.maybe_install_from_env({"CAVA_SANITIZE": "0"})
        assert not san.active().enabled
        san.maybe_install_from_env({})
        assert not san.active().enabled

    def test_hypervisor_arms_from_env(self, monkeypatch):
        from repro.hypervisor.hypervisor import Hypervisor
        from repro.stack import build_stack, resolve_codec

        monkeypatch.setenv("CAVA_SANITIZE", "1")
        Hypervisor(resolve_codec(None, [build_stack("opencl")]))
        assert san.active().enabled

    def test_noop_hooks_are_inert(self):
        NOOP.record_dispatch("vm", "api", 0, "sync", "f")
        NOOP.check_reply_time("vm", "api", 1.0, 0.0)
        NOOP.verify_digest(b"x" * 16, b"anything")
        NOOP.check_worker_reset("vm", "api", 5, 5)
        NOOP.check_pool_conservation(1.0, 2.0)


class TestDispatchOrder:
    def test_in_order_stream_passes(self):
        s = armed()
        for seq in range(10):
            s.record_dispatch("vm", "api", seq, "async", "f")
        s.record_dispatch("vm", "api", 10, "sync", "g")
        assert s.violations == []
        assert s.checks["dispatch-order"] == 11

    def test_duplicate_redelivery_is_recorded_not_failed(self):
        s = armed()
        for seq in (0, 1, 2, 1, 2):  # NeedBytes-style replay
            s.record_dispatch("vm", "api", seq, "async", "f")
        assert s.violations == []
        assert s.summary()["duplicates"] == 2

    def test_async_async_reorder_is_legal(self):
        s = armed()
        s.record_dispatch("vm", "api", 0, "async", "f")
        s.record_dispatch("vm", "api", 2, "async", "f")
        s.record_dispatch("vm", "api", 1, "async", "f")
        assert s.violations == []
        assert s.summary()["reorders"] == 1

    def test_async_overtaking_sync_fails(self):
        s = armed()
        s.record_dispatch("vm", "api", 0, "async", "write")
        s.record_dispatch("vm", "api", 2, "sync", "finish")
        with pytest.raises(SanitizerError, match="program order"):
            s.record_dispatch("vm", "api", 1, "async", "write")
        assert s.violations

    def test_sync_overtaken_by_nothing_is_fine_across_vms(self):
        s = armed()
        s.record_dispatch("vm-a", "api", 5, "sync", "f")
        s.record_dispatch("vm-b", "api", 0, "async", "g")  # other VM
        assert s.violations == []


class TestInvariantChecks:
    def test_clock_monotonicity(self):
        s = armed()
        s.check_reply_time("vm", "api", 1.0, 1.0)     # equal is fine
        s.check_reply_time("vm", "api", 1.0, 2.0)
        with pytest.raises(SanitizerError, match="backwards"):
            s.check_reply_time("vm", "api", 2.0, 1.0)

    def test_digest_verification(self):
        s = armed()
        payload = b"x" * 2048
        s.verify_digest(digest_payload(payload), payload)
        with pytest.raises(SanitizerError, match="stale"):
            s.verify_digest(digest_payload(payload), b"y" * 2048)

    def test_worker_reset(self):
        s = armed()
        s.check_worker_reset("vm", "api", 0, 0)
        s.check_worker_reset("vm", "api", 0, None)  # no store armed
        with pytest.raises(SanitizerError, match="handle"):
            s.check_worker_reset("vm", "api", 3, 0)
        with pytest.raises(SanitizerError, match="transfer-store"):
            s.check_worker_reset("vm", "api", 0, 2)

    def test_pool_conservation(self):
        s = armed()
        s.check_pool_conservation(1.0, 1.0 + 1e-9)
        with pytest.raises(SanitizerError, match="conservation"):
            s.check_pool_conservation(1.0, 2.0)


class TestRuntimeIntegration:
    def test_clean_batched_run_passes_with_checks_performed(self):
        s = armed()
        stack = VirtualStack.build("opencl")
        session = stack.add_vm("vm-clean", batch_policy=BatchPolicy())
        assert NWWorkload(scale=SMALL).run(session.lib).verified
        assert s.checks["dispatch-order"] > 100
        assert s.checks["clock-monotonic"] > 100
        assert s.violations == []

    def test_broken_flush_discipline_is_caught(self, no_flush_before_sync):
        """A sync call that overtakes queued async commands must fail
        the run when the overtaken region flushes."""
        armed()
        stack = VirtualStack.build("opencl")
        session = stack.add_vm("vm-bad", batch_policy=BatchPolicy())
        with pytest.raises(SanitizerError, match="program order"):
            NWWorkload(scale=SMALL).run(session.lib)
            session.flush()

    def test_unsanitized_run_tolerates_broken_flush_knob(
            self, no_flush_before_sync):
        """Without the sanitizer the same seeded stack must not raise —
        the skipped flush only reorders virtual work, it breaks no
        machinery."""
        stack = VirtualStack.build("opencl")
        session = stack.add_vm("vm-ok", batch_policy=BatchPolicy())
        NWWorkload(scale=SMALL).run(session.lib)
        session.flush()

    def test_transfer_cache_digests_reverified(self):
        s = armed()
        from repro.harness.xfer import (
            IterativeUploadWorkload,
            run_cache_compare,
        )

        comparison = run_cache_compare(
            IterativeUploadWorkload, scale=0.5, transport="ring",
            policy=CachePolicy())
        assert comparison.on.verified
        assert s.checks.get("xfer-digest", 0) > 0
        assert s.violations == []

    def test_pool_run_checks_conservation(self):
        s = armed()
        from repro.hypervisor.pool import (
            DeviceClass,
            DevicePool,
            PoolScheduler,
        )
        from repro.hypervisor.scheduler import WorkItem

        pool = DevicePool.from_classes(
            [DeviceClass.baseline_gpu(), DeviceClass.big_gpu()])
        streams = {
            f"vm-{i}": [WorkItem(1e-3) for _ in range(10)]
            for i in range(4)
        }
        PoolScheduler(pool).run(streams)
        assert s.checks["pool-conservation"] == 1
        assert s.violations == []


class TestChaosUnderSanitizer:
    @pytest.mark.parametrize("mode", ["crash", "duplicate"])
    def test_mode_contained_and_disarms(self, mode):
        from repro.faults.chaos import run_chaos

        report = run_chaos(mode=mode, sanitize=True, batching=True)
        assert report.contained
        assert not san.active().enabled  # disarmed on the way out

    def test_cli_sanitize_flag(self, capsys):
        from repro.codegen.cli import main as cava_main

        assert cava_main(
            ["chaos", "--mode", "duplicate", "--sanitize"]) == 0
        assert "contained" in capsys.readouterr().out


class TestBitIdentity:
    """Armed or not, the sanitizer never touches virtual time."""

    def test_figure5_reproduces_stored_json_with_sanitizer_armed(
            self, figure5_matches_stored):
        from repro.harness import run_figure5

        s = armed()
        figure5_matches_stored(run_figure5())
        assert s.checks["dispatch-order"] > 1000
        assert s.violations == []


class TestMigrationHandleInvariant:
    """Post-cutover handle fidelity: dest table == source table."""

    def test_matching_tables_pass(self):
        s = armed()
        s.check_migration_handles("vm", "opencl", {1, 2, 3}, {1, 2, 3})
        assert s.checks["migration-handles"] == 1
        assert not s.violations

    def test_dropped_handle_detected(self):
        s = armed()
        with pytest.raises(SanitizerError) as excinfo:
            s.check_migration_handles("vm", "opencl", {1, 2, 3}, {1, 2})
        assert "handle fidelity" in str(excinfo.value)
        assert "missing" in str(excinfo.value)
        assert s.violations

    def test_leaked_handle_detected(self):
        s = armed()
        with pytest.raises(SanitizerError) as excinfo:
            s.check_migration_handles("vm", "opencl", {1, 2}, {1, 2, 9})
        assert "extra" in str(excinfo.value)

    def test_noop_hook_is_inert(self):
        NOOP.check_migration_handles("vm", "opencl", {1}, {2})

    def _migrate(self):
        import numpy as np

        from repro.opencl import types
        from repro.remoting.buffers import OutBox

        hv = VirtualStack.build("opencl").hypervisor
        vm = hv.create_vm("vm-san-mig")
        cl = vm.library("opencl")
        plats = [None]
        cl.clGetPlatformIDs(1, plats, None)
        devs = [None]
        cl.clGetDeviceIDs(plats[0], types.CL_DEVICE_TYPE_GPU, 1, devs,
                          None)
        err = OutBox()
        ctx = cl.clCreateContext(None, 1, devs, None, None, err)
        queue = cl.clCreateCommandQueue(ctx, devs[0], 0, err)
        data = np.arange(256, dtype=np.float32)
        mem = cl.clCreateBuffer(ctx, types.CL_MEM_COPY_HOST_PTR,
                                data.nbytes, data, err)
        report = hv.live_migrate_vm("vm-san-mig", "opencl")
        out = np.zeros(256, dtype=np.float32)
        code = cl.clEnqueueReadBuffer(queue, mem, types.CL_TRUE, 0,
                                      data.nbytes, out, 0, None, None)
        assert code == types.CL_SUCCESS
        assert (out == data).all()
        return report, vm

    def test_armed_live_migration_passes(self):
        """A real cutover satisfies the invariant under the armed
        sanitizer (the CAVA_SANITIZE=1 chaos/CI path)."""
        s = armed()
        report, _vm = self._migrate()
        assert not report.aborted
        assert s.checks["migration-handles"] >= 1
        assert not s.violations

    def test_armed_migration_run_is_bit_identical(self):
        """The armed sanitizer performs no clock operations: a migrated
        run's virtual-time results match the unsanitized run exactly."""
        plain_report, plain_vm = self._migrate()
        armed()
        armed_report, armed_vm = self._migrate()
        assert armed_report.downtime == plain_report.downtime
        assert armed_report.total_time == plain_report.total_time
        assert armed_vm.clock.now == plain_vm.clock.now
