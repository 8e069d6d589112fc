"""Device pools: classes, placement, the pool engine, integration.

``tests/golden/pool_engine.json`` is :func:`engine_golden_run`'s output.
Rewrite it (only for a deliberate change to the engine's decisions) with::

    PYTHONPATH=src python tests/test_pool.py
"""

import json
import os
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

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

        spec = DeviceClass.baseline_gpu().scale_spec(DeviceSpec())
        assert spec == DeviceSpec()

    def test_scaled_gpu_spec(self):
        from repro.opencl.device import DeviceSpec

        base = DeviceSpec()
        spec = DeviceClass.big_gpu().scale_spec(base)
        assert spec.flops == base.flops * 2.0
        assert spec.mem_bandwidth == base.mem_bandwidth * 2.0
        assert spec.pcie_bandwidth == base.pcie_bandwidth * 2.0
        assert spec.global_mem_bytes == 16 * GIB
        assert spec.name == f"{base.name} (big-gpu)"

    def test_baseline_ncs_spec_is_the_default_spec(self):
        from repro.mvnc.device import NCSDeviceSpec

        cls = DeviceClass(name="stick")  # scales 1.0 => default spec
        base = NCSDeviceSpec()
        # the stick declares no capacity field: 8 GiB of class memory
        # leaves its graph memory alone
        assert cls.scale_spec(base) is base

    def test_qat_spec_scales_both_directions(self):
        from repro.qat.device import QATDeviceSpec

        base = QATDeviceSpec()
        spec = DeviceClass.qat().scale_spec(base)
        assert spec.compress_bps == base.compress_bps * 0.4
        assert spec.decompress_bps == base.decompress_bps * 0.4
        # no transfer field: the class's 0.5 transfer scale reaches
        # nothing else
        assert spec.request_overhead == base.request_overhead

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


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden", "pool_engine.json")


def engine_golden_run():
    """One fixed multi-member run with every engine decision in play:
    a heterogeneous pool, stealing, weights and QoS, a device-time
    quota, a rate-limited tenant, transfer-carrying items and open-loop
    VMs.  Returns the outcome as JSON-ready data; nothing in it goes
    through ``sum()``, so it is stable across Python versions."""
    policy = ResourcePolicy()
    policy.set_policy("vm-01", VMPolicy(weight=3.0))
    policy.set_policy("vm-02", VMPolicy(qos="realtime"))
    policy.set_policy("vm-03", VMPolicy(qos="best-effort"))
    policy.set_policy(
        "vm-05", VMPolicy(resource_limits={DEVICE_TIME_QUOTA: 4e-3}))
    policy.set_policy("vm-06", VMPolicy(command_rate=800.0,
                                        command_burst=2))
    pool = DevicePool.from_classes(
        [DeviceClass.big_gpu(), DeviceClass.baseline_gpu(),
         DeviceClass.small_gpu(), DeviceClass.ncs()],
        policy=policy,
    )
    streams = {}
    arrivals = {}
    for v in range(16):
        vm = f"vm-{v:02d}"
        streams[vm] = [
            PoolWorkItem(
                duration=(1 + (7 * v + 3 * k) % 5) * 1e-4,
                think_time=((v + k) % 3) * 5e-5,
                transfer_bytes=(k % 4) * 256 * 1024 if v % 2 else 0.0,
            )
            for k in range(30)
        ]
        if v % 4 == 3:
            arrivals[vm] = [k * (4e-4 + v * 1e-5) for k in range(30)]
    result = PoolScheduler(pool, rate_limiter=RateLimiter(policy)).run(
        streams, arrivals=arrivals)
    return {
        "vms": {
            vm: {"completions": s.completions, "waits": s.waits,
                 "queue_waits": s.queue_waits,
                 "device_time": s.device_time}
            for vm, s in result.vm_stats.items()
        },
        "devices": {
            d.device_id: {"busy_time": d.busy_time,
                          "nominal_time": d.nominal_time,
                          "completed": d.completed,
                          "vm_nominal": d.vm_nominal}
            for d in result.device_stats.values()
        },
        "steals": result.steals,
        "quota_dropped": result.quota_dropped,
        "placements": result.placements,
        "makespan": result.makespan,
    }


def write_golden(path=GOLDEN):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(engine_golden_run(), handle, indent=1, sort_keys=True)
        handle.write("\n")


class TestEngineGolden:
    """The engine's every decision on one fixed run, compared exactly."""

    def test_run_matches_golden(self):
        with open(GOLDEN, encoding="utf-8") as handle:
            want = json.load(handle)
        assert engine_golden_run() == want

    def test_golden_exercises_every_decision(self):
        with open(GOLDEN, encoding="utf-8") as handle:
            want = json.load(handle)
        assert want["steals"] > 0
        assert want["quota_dropped"]["vm-05"] > 0
        assert all(d["completed"] for d in want["devices"].values())
        throttled = want["vms"]["vm-06"]
        assert throttled["waits"] != throttled["queue_waits"]


class TestHypervisorIntegration:
    def make_pooled_hypervisor(self, classes, apis=("opencl",)):
        from repro.stack import VirtualStack

        hv = VirtualStack.build(*apis).hypervisor
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
        from repro.stack import VirtualStack

        def factory(api_name):
            hv = VirtualStack.build(api_name).hypervisor
            hv.add_device(DeviceClass.baseline_gpu())
            return hv

        figure5_matches_stored(run_figure5(hypervisor_factory=factory))


class TestRebalancer:
    """Elastic pool rebalancing: hot members shed tenants live."""

    def make_hot_pool(self):
        from repro.stack import VirtualStack
        from repro.workloads import BFSWorkload

        hv = VirtualStack.build("opencl").hypervisor
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

    def test_member_utilization(self):
        from repro.hypervisor.pool import PoolRebalancer

        hv = self.make_hot_pool()
        hot = hv.pool.device_by_id("dev-hot")
        cold = hv.pool.device_by_id("dev-cold")
        native = hot.native_device("opencl")
        assert 0.0 < hot.utilization() <= 1.0
        assert hot.utilization() == native.busy_time / native.timeline
        assert cold.utilization() == 0.0  # no native device built yet
        assert PoolRebalancer(hv).utilizations() == {
            "dev-hot": hot.utilization(), "dev-cold": 0.0}

    def test_idle_pool_left_alone(self):
        from repro.hypervisor.pool import PoolRebalancer
        from repro.stack import VirtualStack

        hv = VirtualStack.build("opencl").hypervisor
        hv.add_device(DeviceClass.baseline_gpu(), "dev-a")
        hv.add_device(DeviceClass.baseline_gpu(), "dev-b")
        rebalancer = PoolRebalancer(hv)
        assert rebalancer.pick() is None
        assert rebalancer.rebalance_once() == []

    def test_rebalancer_requires_a_pool(self):
        from repro.hypervisor.pool import PoolRebalancer
        from repro.stack import VirtualStack

        hv = VirtualStack.build("opencl").hypervisor
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
        from repro.stack import VirtualStack
        from repro.workloads import BFSWorkload

        hv = VirtualStack.build("opencl").hypervisor
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


MIB = 1 << 20


class TestTeardownGivesMemoryBack:
    """When a worker ends, what it held on a shared member is free for
    the member's next tenant: the device ledger is keyed by the worker's
    native session, and closing the session releases its entry."""

    def small_member(self, *apis, device_class=None):
        from repro.stack import VirtualStack

        hv = VirtualStack.build(*(apis or ("opencl",))).hypervisor
        member = hv.add_device(device_class or DeviceClass(
            name="small", memory_bytes=256 * MIB))
        return hv, member

    def test_churned_tenants_leave_the_member_empty(self):
        from repro.workloads.base import open_env

        hv, member = self.small_member()
        native = member.native_device("opencl")
        for i in range(4):
            vm_id = f"vm-{i}"
            open_env(hv.create_vm(vm_id).library("opencl")).buffer(64 * MIB)
            hv.destroy_vm(vm_id)
        assert native.allocated_bytes == 0
        env = open_env(hv.create_vm("vm-next").library("opencl"))
        env.buffer(16 * MIB)
        assert native.allocated_bytes == 16 * MIB

    def test_crash_and_restart_leaves_the_member_empty(self):
        from repro.workloads.base import open_env

        hv, member = self.small_member()
        native = member.native_device("opencl")
        open_env(hv.create_vm("vm-a").library("opencl")).buffer(64 * MIB)
        assert native.allocated_bytes == 64 * MIB
        hv._on_worker_lost("vm-a", "opencl", "injected crash")
        hv.restart_worker("vm-a", "opencl")
        assert native.allocated_bytes == 0

    def test_restarting_a_running_worker_frees_it(self):
        from repro.workloads.base import open_env

        hv, member = self.small_member()
        native = member.native_device("opencl")
        open_env(hv.create_vm("vm-a").library("opencl")).buffer(64 * MIB)
        old = hv.worker("vm-a", "opencl")
        assert hv.restart_worker("vm-a", "opencl") is not old
        assert old.crashed == "restarted"
        assert native.allocated_bytes == 0

    def test_pooled_graph_bytes_come_back_on_destroy(self):
        from repro.mvnc import api as mvnc_api
        from repro.remoting.buffers import OutBox
        from repro.workloads.inception import build_inception_graph

        hv, member = self.small_member("mvnc",
                                       device_class=DeviceClass.ncs())
        mv = hv.create_vm("vm-a").library("mvnc")
        device, graph = OutBox(), OutBox()
        assert mv.mvncOpenDevice(None, device) == mvnc_api.MVNC_OK
        blob = build_inception_graph(input_hw=32).serialize()
        assert mv.mvncAllocateGraph(device.value, graph, blob,
                                    len(blob)) == mvnc_api.MVNC_OK
        native = member.native_device("mvnc")
        assert native.allocated_bytes == len(blob)
        hv.destroy_vm("vm-a")
        assert native.allocated_bytes == 0

    @staticmethod
    def migrating():
        """A VM holding a 1 MiB buffer on one member of a two-member
        pool, one pre-copy round into a migration to the other; returns
        the hypervisor, the engine and the (source, target) natives."""
        from repro.stack import VirtualStack
        from repro.workloads.base import open_env

        hv = VirtualStack.build("opencl").hypervisor
        for name in ("dev-a", "dev-b"):
            hv.add_device(DeviceClass.baseline_gpu(), name)
        open_env(hv.create_vm("vm-a").library("opencl")).buffer(MIB)
        engine = hv.start_live_migration("vm-a", "opencl")
        engine.precopy_round()
        natives = (hv.pool.assignments["vm-a"].native_device("opencl"),
                   engine.member.native_device("opencl"))
        assert [n.allocated_bytes for n in natives] == [MIB, MIB]
        return hv, engine, natives

    def test_destroy_mid_migration_leaves_both_members_empty(self):
        hv, engine, natives = self.migrating()
        hv.destroy_vm("vm-a")
        assert [n.allocated_bytes for n in natives] == [0, 0]
        assert engine.aborted
        assert hv.migrations == [engine.report] and engine.report.aborted

    def test_source_crash_mid_migration_aborts_and_frees_the_target(self):
        from repro.migration import MigrationError
        from repro.workloads.base import open_env

        hv, engine, (source, target) = self.migrating()
        home = hv.pool.assignments["vm-a"]
        hv._on_worker_lost("vm-a", "opencl", "injected crash")
        assert target.allocated_bytes == 0
        assert engine.aborted and hv.migrations == [engine.report]
        with pytest.raises(MigrationError):
            engine.cutover()
        assert hv.pool.assignments["vm-a"] is home
        worker = hv.restart_worker("vm-a", "opencl")
        open_env(hv.vms["vm-a"].library("opencl")).buffer(MIB)
        assert hv.worker("vm-a", "opencl") is worker
        assert [source.allocated_bytes, target.allocated_bytes] == [MIB, 0]


#: ``CAVA_MIG_EXAMPLES`` scales the ledger property like the migration
#: property suite (default 25)
LEDGER_EXAMPLES = int(os.environ.get("CAVA_MIG_EXAMPLES", "25"))

LEDGER_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("create")),
        st.tuples(st.just("allocate"), st.integers(0, 7),
                  st.sampled_from([4096, 64 * 1024, MIB])),
        st.tuples(st.just("release"), st.integers(0, 7)),
        st.tuples(st.just("destroy"), st.integers(0, 7)),
        st.tuples(st.just("crash"), st.integers(0, 7)),
        st.tuples(st.just("migrate"), st.integers(0, 7)),
        st.tuples(st.just("migrate-destroy"), st.integers(0, 7)),
        st.tuples(st.just("migrate-crash"), st.integers(0, 7)),
    ),
    min_size=1, max_size=16,
)


class TestLedgerProperty:
    """On a two-member pool, with the sanitizer armed, random tenant
    churn keeps each member's ledger equal to the live buffers homed on
    it: every teardown path gives back exactly what its worker held."""

    @staticmethod
    def homed_bytes(hv, member):
        """Sizes of the live buffer handles of every VM homed on
        ``member``, read from the workers' handle tables."""
        from repro.opencl.runtime import MemObject

        total = 0
        for (vm_id, _api), worker in hv.workers.items():
            if hv.pool.assignments.get(vm_id) is not member:
                continue
            total += sum(obj.size for _gid, obj in worker.handles.items()
                         if isinstance(obj, MemObject) and not obj.released)
        return total

    @settings(max_examples=LEDGER_EXAMPLES, deadline=None)
    @given(LEDGER_STEPS)
    # the shortest runs that leave a migration destination's replica on
    # the target member, each pinned so every run tries it
    @example([("create",), ("allocate", 0, 4096), ("migrate-destroy", 0)])
    @example([("create",), ("allocate", 0, 4096), ("migrate-crash", 0)])
    def test_member_ledger_matches_live_handles(self, steps):
        from repro.analysis import sanitizer as _sanitize
        from repro.stack import VirtualStack
        from repro.workloads.base import open_env

        was_armed = _sanitize.active().enabled
        _sanitize.install()
        try:
            hv = VirtualStack.build("opencl").hypervisor
            members = [hv.add_device(DeviceClass.baseline_gpu(), name)
                       for name in ("dev-a", "dev-b")]
            envs = {}  # live VM -> (env, live buffers)
            serial = 0
            for step in steps:
                kind, vms = step[0], sorted(envs)
                vm_id = vms[step[1] % len(vms)] if vms and \
                    len(step) > 1 else None
                if kind.startswith("migrate-") and vm_id is not None:
                    # migrate partway (one pre-copy round), then the VM
                    # is destroyed or its source crashes
                    hv.start_live_migration(vm_id, "opencl").precopy_round()
                    kind = kind[len("migrate-"):]
                if kind == "create":
                    vm_id = f"vm-{serial}"
                    serial += 1
                    envs[vm_id] = (open_env(
                        hv.create_vm(vm_id).library("opencl")), [])
                elif vm_id is None:
                    continue
                elif kind == "allocate":
                    env, bufs = envs[vm_id]
                    bufs.append(env.buffer(step[2]))
                elif kind == "release":
                    env, bufs = envs[vm_id]
                    if bufs:
                        assert env.cl.clReleaseMemObject(bufs.pop()) == 0
                elif kind == "destroy":
                    hv.destroy_vm(vm_id)
                    del envs[vm_id]
                elif kind == "crash":
                    # the guest's handles died with the worker; the VM
                    # starts over on a fresh one
                    hv._on_worker_lost(vm_id, "opencl", "injected crash")
                    hv.restart_worker(vm_id, "opencl")
                    envs[vm_id] = (open_env(hv.vms[vm_id].library(
                        "opencl")), [])
                elif kind == "migrate":
                    report = hv.live_migrate_vm(vm_id, "opencl")
                    assert not report.aborted
                for member in members:
                    assert member.native_device("opencl").allocated_bytes \
                        == self.homed_bytes(hv, member), step
        finally:
            if not was_armed:
                _sanitize.uninstall()

if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    write_golden()
    sys.stdout.write(f"wrote {GOLDEN}\n")
