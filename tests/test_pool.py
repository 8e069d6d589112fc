"""Device pools: classes, placement, the pool engine, integration."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hypervisor.policy import RateLimiter, ResourcePolicy, VMPolicy
from repro.hypervisor.pool import (
    BASELINE_TRANSFER_BPS,
    DEVICE_TIME_QUOTA,
    DeviceClass,
    DevicePool,
    PoolCapacityError,
    PoolScheduler,
    PoolWorkItem,
    PooledDevice,
    nominal_cost,
)
from repro.hypervisor.scheduler import (
    FifoScheduler,
    WorkItem,
    jain_fairness,
)

GIB = 1024**3


def uniform_streams(vm_count, items=20, duration=1e-3, think=0.0):
    return {
        f"vm-{i:02d}": [WorkItem(duration, think_time=think)
                        for _ in range(items)]
        for i in range(vm_count)
    }


class TestDeviceClass:
    def test_baseline_gpu_spec_is_the_default_spec(self):
        from repro.opencl.device import DeviceSpec

        spec = DeviceClass.baseline_gpu().gpu_spec()
        assert spec == DeviceSpec()

    def test_scaled_gpu_spec(self):
        from repro.opencl.device import DeviceSpec

        base = DeviceSpec()
        spec = DeviceClass.big_gpu().gpu_spec()
        assert spec.flops == base.flops * 2.0
        assert spec.mem_bandwidth == base.mem_bandwidth * 2.0
        assert spec.pcie_bandwidth == base.pcie_bandwidth * 2.0
        assert spec.global_mem_bytes == 16 * GIB

    def test_baseline_ncs_spec_is_the_default_spec(self):
        from repro.mvnc.device import NCSDeviceSpec

        cls = DeviceClass(name="stick")  # scales 1.0 => default spec
        assert cls.ncs_spec() == NCSDeviceSpec()

    def test_qat_spec_scales_both_directions(self):
        from repro.qat.device import QATDeviceSpec

        base = QATDeviceSpec()
        spec = DeviceClass.qat().qat_spec()
        assert spec.compress_bps == base.compress_bps * 0.4
        assert spec.decompress_bps == base.decompress_bps * 0.4

    def test_invalid_scales_rejected(self):
        with pytest.raises(ValueError):
            DeviceClass(name="bad", compute_scale=0.0)
        with pytest.raises(ValueError):
            DeviceClass(name="bad", memory_bytes=0)

    def test_wall_time_scales_compute_and_transfer(self):
        device = PooledDevice("d0", DeviceClass.big_gpu())
        item = PoolWorkItem(duration=1.0, transfer_bytes=12e9)
        # compute halves (2x speed); transfer halves (2x bandwidth)
        assert device.wall_time(item) == pytest.approx(0.5 + 0.5)
        assert nominal_cost(item) == pytest.approx(2.0)

    def test_pool_work_item_rejects_negative_transfer(self):
        with pytest.raises(ValueError):
            PoolWorkItem(duration=1.0, transfer_bytes=-1.0)


class TestPlacement:
    def test_capacity_proportional_spread(self):
        pool = DevicePool.from_classes(
            [DeviceClass.big_gpu(), DeviceClass.baseline_gpu(),
             DeviceClass.baseline_gpu()]
        )
        for i in range(40):
            pool.place(f"vm-{i:02d}")
        counts = {d.device_id: len(d.resident) for d in pool.devices}
        assert counts["dev0-big-gpu"] == 20
        assert counts["dev1-gtx1080"] == 10
        assert counts["dev2-gtx1080"] == 10

    def test_placement_is_sticky(self):
        pool = DevicePool.from_classes(
            [DeviceClass.baseline_gpu(), DeviceClass.baseline_gpu()]
        )
        first = pool.place("vm-a")
        assert pool.place("vm-a") is first

    def test_memory_reservation_and_capacity_error(self):
        policy = ResourcePolicy()
        policy.set_policy("big", VMPolicy(memory_bytes=3 * GIB))
        policy.set_policy("huge", VMPolicy(memory_bytes=64 * GIB))
        pool = DevicePool.from_classes(
            [DeviceClass.small_gpu(), DeviceClass.baseline_gpu()],
            policy=policy,
        )
        # 3 GiB cannot fit the 2 GiB small GPU
        assert pool.place("big").device_class.name == "gtx1080"
        with pytest.raises(PoolCapacityError):
            pool.place("huge")

    def test_qos_steering_breaks_ties(self):
        # load the big GPU with resident weight so the candidate sees
        # *equal* projected load on both members; only steering differs.
        # small: w / 0.25; big: (R + w) / 2.0 — equal when R == 7w.
        def tied_pool(resident_weight):
            policy = ResourcePolicy()
            policy.set_policy("rt", VMPolicy(qos="realtime"))    # w = 4
            policy.set_policy("be", VMPolicy(qos="best-effort"))  # w = .25
            policy.set_policy("heavy", VMPolicy(weight=resident_weight))
            pool = DevicePool.from_classes(
                [DeviceClass.small_gpu(), DeviceClass.big_gpu()],
                policy=policy,
            )
            pool.migrate("heavy", pool.devices[1])
            return pool

        rt_home = tied_pool(7 * 4.0).place("rt")
        assert rt_home.device_class.name == "big-gpu"
        be_home = tied_pool(7 * 0.25).place("be")
        assert be_home.device_class.name == "small-gpu"

    def test_release_frees_reservation(self):
        policy = ResourcePolicy()
        policy.set_policy("vm-a", VMPolicy(memory_bytes=GIB))
        pool = DevicePool.from_classes([DeviceClass.baseline_gpu()],
                                       policy=policy)
        home = pool.place("vm-a")
        assert home.reserved_bytes == GIB
        pool.release("vm-a")
        assert home.reserved_bytes == 0
        assert "vm-a" not in pool.assignments

    def test_empty_pool_raises(self):
        with pytest.raises(PoolCapacityError):
            DevicePool().place("vm-a")

    def test_duplicate_device_id_rejected(self):
        pool = DevicePool()
        pool.add(DeviceClass.baseline_gpu(), device_id="d0")
        with pytest.raises(ValueError):
            pool.add(DeviceClass.ncs(), device_id="d0")


class TestPoolEngine:
    def test_fast_device_finishes_sooner(self):
        streams = uniform_streams(1, items=10)
        slow = PoolScheduler(
            DevicePool.from_classes([DeviceClass.baseline_gpu()])
        ).run({k: list(v) for k, v in streams.items()})
        fast = PoolScheduler(
            DevicePool.from_classes([DeviceClass.big_gpu()])
        ).run(streams)
        assert fast.makespan == pytest.approx(slow.makespan / 2.0)
        # nominal service is device-independent
        assert fast.total_nominal == pytest.approx(slow.total_nominal)

    def test_stealing_improves_makespan(self):
        # 2 VMs homed on one device, the second device idle: stealing
        # must move work over and roughly halve the makespan
        classes = [DeviceClass.baseline_gpu(), DeviceClass.baseline_gpu()]
        streams = uniform_streams(2, items=100)

        def run(allow):
            pool = DevicePool.from_classes(classes)
            pool.migrate("vm-00", pool.devices[0])
            pool.migrate("vm-01", pool.devices[0])
            return PoolScheduler(pool, allow_stealing=allow).run(
                {k: list(v) for k, v in streams.items()}
            )

        without = run(False)
        with_steal = run(True)
        assert with_steal.steals > 0
        assert with_steal.makespan < without.makespan * 0.75

    def test_stealing_keeps_home_placement(self):
        pool = DevicePool.from_classes(
            [DeviceClass.baseline_gpu(), DeviceClass.baseline_gpu()]
        )
        pool.migrate("vm-00", pool.devices[0])
        pool.migrate("vm-01", pool.devices[0])
        result = PoolScheduler(pool).run(uniform_streams(2, items=50))
        assert result.steals > 0
        assert result.placements == {"vm-00": "dev0-gtx1080",
                                     "vm-01": "dev0-gtx1080"}

    def test_quota_drops_excess_items(self):
        policy = ResourcePolicy()
        policy.set_policy(
            "vm-00",
            VMPolicy(resource_limits={DEVICE_TIME_QUOTA: 10.5e-3}),
        )
        pool = DevicePool.from_classes([DeviceClass.baseline_gpu()],
                                       policy=policy)
        result = PoolScheduler(pool).run(uniform_streams(2, items=20))
        assert result.vm_stats["vm-00"].completed == 10
        assert result.quota_dropped["vm-00"] == 10
        assert result.vm_stats["vm-01"].completed == 20
        assert result.quota_dropped["vm-01"] == 0

    def test_open_loop_arrivals_respected(self):
        pool = DevicePool.from_classes([DeviceClass.baseline_gpu()])
        arrivals = [0.0, 0.5, 1.0]
        result = PoolScheduler(pool).run(
            {"vm-a": [WorkItem(1e-3, think_time=9.0)] * 3},
            arrivals={"vm-a": arrivals},
        )
        # think_time ignored: items start at their arrival stamps
        starts = [end - 1e-3 for end in result.vm_stats["vm-a"].completions]
        assert starts == pytest.approx(arrivals)

    def test_short_arrival_vector_rejected(self):
        pool = DevicePool.from_classes([DeviceClass.baseline_gpu()])
        with pytest.raises(ValueError):
            PoolScheduler(pool).run(
                {"vm-a": [WorkItem(1e-3)] * 3}, arrivals={"vm-a": [0.0]}
            )

    def test_rate_limiter_consulted_once_per_item(self):
        class CountingLimiter(RateLimiter):
            def __init__(self):
                super().__init__(ResourcePolicy())
                self.calls = 0

            def next_allowed(self, vm_id, submit):
                self.calls += 1
                return submit

        limiter = CountingLimiter()
        pool = DevicePool.from_classes(
            [DeviceClass.baseline_gpu(), DeviceClass.baseline_gpu()]
        )
        PoolScheduler(pool, rate_limiter=limiter).run(
            uniform_streams(4, items=5)
        )
        assert limiter.calls == 20

    def test_heterogeneous_fairness(self):
        pool = DevicePool.from_classes(
            [DeviceClass.big_gpu(), DeviceClass.baseline_gpu(),
             DeviceClass.small_gpu(), DeviceClass.small_gpu()]
        )
        result = PoolScheduler(pool).run(uniform_streams(16, items=40))
        shares = result.weighted_shares(pool.policy,
                                        horizon=0.5 * result.makespan)
        assert jain_fairness(list(shares.values())) > 0.9

    def test_empty_streams_rejected(self):
        pool = DevicePool.from_classes([DeviceClass.baseline_gpu()])
        with pytest.raises(ValueError):
            PoolScheduler(pool).run({})

    @settings(deadline=None, max_examples=30)
    @given(
        st.dictionaries(
            st.sampled_from(["vm-a", "vm-b", "vm-c"]),
            st.lists(
                st.builds(
                    WorkItem,
                    duration=st.floats(0.0, 1e-2, allow_nan=False),
                    think_time=st.floats(0.0, 1e-3, allow_nan=False),
                ),
                min_size=1, max_size=8,
            ),
            min_size=1, max_size=3,
        ),
        st.lists(
            st.sampled_from([
                DeviceClass.baseline_gpu(), DeviceClass.big_gpu(),
                DeviceClass.small_gpu(), DeviceClass.ncs(),
            ]),
            min_size=1, max_size=4,
        ),
        st.booleans(),
    )
    def test_nominal_service_is_conserved(self, streams, classes, steal):
        """Every submitted item runs exactly once, on some device."""
        pool = DevicePool.from_classes(classes)
        result = PoolScheduler(pool, allow_stealing=steal).run(
            {vm: list(items) for vm, items in streams.items()}
        )
        offered = sum(len(items) for items in streams.values())
        assert sum(s.completed for s in result.vm_stats.values()) == offered
        assert sum(d.completed for d in result.device_stats.values()) \
            == offered
        want_nominal = sum(nominal_cost(i) for items in streams.values()
                           for i in items)
        assert result.total_nominal == pytest.approx(want_nominal)
        per_vm = {vm: sum(c for _, c in result.vm_items[vm])
                  for vm in streams}
        for vm, items in streams.items():
            assert per_vm[vm] == pytest.approx(
                sum(nominal_cost(i) for i in items)
            )


class TestHypervisorIntegration:
    def make_pooled_hypervisor(self, classes, apis=("opencl",)):
        from repro.stack import make_hypervisor

        hv = make_hypervisor(apis=apis)
        for device_class in classes:
            hv.add_device(device_class)
        return hv

    def test_workers_bind_to_pool_members(self):
        from repro.workloads import BFSWorkload

        hv = self.make_pooled_hypervisor(
            [DeviceClass.baseline_gpu(), DeviceClass.baseline_gpu()]
        )
        for vm_id in ("vm-a", "vm-b"):
            vm = hv.create_vm(vm_id)
            result = BFSWorkload(scale=0.25).run(vm.library("opencl"))
            assert result.verified
        homes = {vm: hv.pool.assignments[vm].device_id
                 for vm in ("vm-a", "vm-b")}
        assert homes["vm-a"] != homes["vm-b"]
        for vm_id in ("vm-a", "vm-b"):
            worker = hv.worker(vm_id, "opencl")
            assert worker.pool_device is hv.pool.assignments[vm_id]

    def test_coplaced_workers_share_native_device(self):
        from repro.workloads import BFSWorkload

        hv = self.make_pooled_hypervisor([DeviceClass.baseline_gpu()])
        for vm_id in ("vm-a", "vm-b"):
            vm = hv.create_vm(vm_id)
            BFSWorkload(scale=0.25).run(vm.library("opencl"))
        member = hv.pool.devices[0]
        native = member.native_device("opencl")
        # both tenants accumulated time on one shared timeline
        assert native.busy_time > 0
        assert hv.worker("vm-a", "opencl").pool_device is member
        assert hv.worker("vm-b", "opencl").pool_device is member

    def test_destroy_vm_releases_placement(self):
        hv = self.make_pooled_hypervisor([DeviceClass.baseline_gpu()])
        hv.create_vm("vm-a")
        hv.worker("vm-a", "opencl")
        assert "vm-a" in hv.pool.assignments
        hv.destroy_vm("vm-a")
        assert "vm-a" not in hv.pool.assignments

    def test_admin_report_has_pool_section(self):
        from repro.workloads import BFSWorkload

        hv = self.make_pooled_hypervisor(
            [DeviceClass.baseline_gpu(), DeviceClass.ncs()]
        )
        vm = hv.create_vm("vm-a")
        BFSWorkload(scale=0.25).run(vm.library("opencl"))
        report = hv.admin_report()
        pool = report["_pool"]
        assert pool["total_capacity"] == pytest.approx(1.05)
        devices = pool["devices"]
        assert set(devices) == {"dev0-gtx1080", "dev1-ncs"}
        home = hv.pool.assignments["vm-a"].device_id
        assert devices[home]["vms"] == ["vm-a"]
        assert devices[home]["apis"]["opencl"]["busy_time"] > 0
        assert 0 < devices[home]["apis"]["opencl"]["utilization"] <= 1


class TestTopDevices:
    """``cava top --devices`` over a traced engine run: one row per
    member, named by its id, counting that member's items."""

    def device_rows(self, tmp_path, pool, streams, pick=None):
        from repro.telemetry import Tracer, use
        from repro.telemetry.cli import run_top
        from repro.telemetry.exporters import write_jsonl

        tracer = Tracer()
        with use(tracer):
            result = PoolScheduler(pool, pick=pick).run(streams)
        path = write_jsonl(tracer.all_spans(), str(tmp_path / "pool.jsonl"))
        output = run_top(path, devices=True)
        table = output.split("devices:", 1)[1].strip().splitlines()
        # header and rule, then one row per device
        rows = {line.split()[0]: line.split() for line in table[2:]}
        return result, rows

    def test_two_members_each_row_counts_its_items(self, tmp_path):
        pool = DevicePool.from_classes(
            [DeviceClass.big_gpu(), DeviceClass.baseline_gpu()])
        result, rows = self.device_rows(tmp_path, pool,
                                        uniform_streams(4, items=10))
        assert set(rows) == set(result.device_stats)
        for device_id, stats in result.device_stats.items():
            assert stats.completed > 0
            assert int(rows[device_id][1]) == stats.completed

    def test_one_member_fifo_run_is_attributed(self, tmp_path):
        pool = DevicePool.from_classes([DeviceClass.baseline_gpu()])
        _, rows = self.device_rows(tmp_path, pool,
                                   uniform_streams(2, items=5),
                                   pick=FifoScheduler)
        assert set(rows) == {"dev0-gtx1080"}
        assert int(rows["dev0-gtx1080"][1]) == 10


class TestFigure5BitIdentity:
    def test_single_member_pool_reproduces_stored_json_exactly(
            self, figure5_matches_stored):
        """Routing figure 5 through a 1-member baseline pool changes
        nothing: every runtime matches the stored JSON bit for bit."""
        from repro.harness import run_figure5
        from repro.stack import make_hypervisor

        def factory(api_name):
            hv = make_hypervisor(apis=(api_name,))
            hv.add_device(DeviceClass.baseline_gpu())
            return hv

        figure5_matches_stored(run_figure5(hypervisor_factory=factory))


class TestRebalancer:
    """Elastic pool rebalancing: hot members shed tenants live."""

    def make_hot_pool(self):
        from repro.stack import make_hypervisor
        from repro.workloads import BFSWorkload

        hv = make_hypervisor(apis=("opencl",))
        hv.add_device(DeviceClass.baseline_gpu(), "dev-hot")
        for vm_id in ("vm-a", "vm-b"):
            vm = hv.create_vm(vm_id)
            assert BFSWorkload(scale=0.25).run(
                vm.library("opencl")).verified
        # a cold member joins the pool after the load landed
        hv.add_device(DeviceClass.baseline_gpu(), "dev-cold")
        return hv

    def test_rebalance_moves_busy_tenant_to_cold_member(self):
        from repro.hypervisor.pool import PoolRebalancer, RebalancePolicy
        from repro.workloads import BFSWorkload

        hv = self.make_hot_pool()
        rebalancer = PoolRebalancer(
            hv, policy=RebalancePolicy(min_spread=0.05,
                                       min_hot_utilization=0.01))
        choice = rebalancer.pick()
        assert choice is not None
        victim, hot, cold = choice
        assert hot.device_id == "dev-hot"
        assert cold.device_id == "dev-cold"
        assert victim in ("vm-a", "vm-b")

        reports = rebalancer.rebalance_once()
        assert reports and all(not r.aborted for r in reports)
        assert all(r.mode == "live" for r in reports)
        assert hv.pool.assignments[victim].device_id == "dev-cold"
        # the moved tenant keeps serving, now on the cold member
        result = BFSWorkload(scale=0.25).run(
            hv.vms[victim].library("opencl"))
        assert result.verified

    def test_idle_pool_left_alone(self):
        from repro.hypervisor.pool import PoolRebalancer
        from repro.stack import make_hypervisor

        hv = make_hypervisor(apis=("opencl",))
        hv.add_device(DeviceClass.baseline_gpu(), "dev-a")
        hv.add_device(DeviceClass.baseline_gpu(), "dev-b")
        rebalancer = PoolRebalancer(hv)
        assert rebalancer.pick() is None
        assert rebalancer.rebalance_once() == []

    def test_rebalancer_requires_a_pool(self):
        from repro.hypervisor.pool import PoolRebalancer
        from repro.stack import make_hypervisor

        hv = make_hypervisor(apis=("opencl",))
        with pytest.raises(PoolCapacityError):
            PoolRebalancer(hv)

    def test_policy_validation(self):
        from repro.hypervisor.pool import RebalancePolicy

        with pytest.raises(ValueError):
            RebalancePolicy(min_spread=1.5)
        with pytest.raises(ValueError):
            RebalancePolicy(min_hot_utilization=-0.1)

    def test_live_migration_honours_explicit_target(self):
        from repro.migration import MigrationError
        from repro.stack import make_hypervisor
        from repro.workloads import BFSWorkload

        hv = make_hypervisor(apis=("opencl",))
        hv.add_device(DeviceClass.baseline_gpu(), "dev-a")
        vm = hv.create_vm("vm-t")
        assert BFSWorkload(scale=0.25).run(vm.library("opencl")).verified
        hv.add_device(DeviceClass.baseline_gpu(), "dev-b")

        # migrating onto the member the VM already lives on is an error
        with pytest.raises(MigrationError):
            hv.start_live_migration("vm-t", "opencl",
                                    target_device_id="dev-a")

        report = hv.live_migrate_vm("vm-t", "opencl",
                                    target_device_id="dev-b")
        assert not report.aborted
        assert report.target_device == "dev-b"
        assert hv.pool.assignments["vm-t"].device_id == "dev-b"
        worker = hv.worker("vm-t", "opencl")
        assert worker.pool_device.device_id == "dev-b"
        assert BFSWorkload(scale=0.25).run(vm.library("opencl")).verified
