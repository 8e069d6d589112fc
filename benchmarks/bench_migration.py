"""§4.3 migration: record/replay cost and the object-tracking payoff.

AvA migrates by replaying recorded calls and shipping buffer contents.
The bench measures stop-the-world downtime as device state grows, and
the log-size reduction from Nooks-style object tracking (destroyed
objects drop out of the log) and from the spec's ``supersedes`` keys (a
steady set-arg/launch/rewrite loop leaves the log no longer, and a
destroy visits only the dead object's records).

The live sections compare the two policies of the one migration engine
under sustained guest traffic, iterative pre-copy against stop-the-world
(zero pre-copy rounds; gate: live downtime <= 25% of stop-the-world),
and demonstrate the elastic rebalancer flattening a pool's utilization
spread by moving a tenant off the hot member.  ``test_gate`` is the
fixture-free CI entry; it also writes ``BENCH_migration.json``.
"""

import json
import os

import numpy as np

from repro.migration import MigrationPolicy
from repro.migration.recorder import RecordedCall
from repro.opencl import types
from repro.remoting.buffers import OutBox
from repro.stack import VirtualStack
from repro.workloads.base import open_env

SRC = ("__kernel void vector_scale(__global float* x, float alpha, "
       "int n) {}")

#: no pre-copy rounds: the whole replay and every buffer ship frozen
STOP_THE_WORLD = MigrationPolicy(max_rounds=0)


def build_guest_state(cl, num_buffers, buffer_bytes):
    plats = [None]
    cl.clGetPlatformIDs(1, plats, None)
    devs = [None]
    cl.clGetDeviceIDs(plats[0], types.CL_DEVICE_TYPE_GPU, 1, devs, None)
    err = OutBox()
    ctx = cl.clCreateContext(None, 1, devs, None, None, err)
    queue = cl.clCreateCommandQueue(ctx, devs[0], 0, err)
    mems = []
    for index in range(num_buffers):
        data = np.full(buffer_bytes // 4, float(index), dtype=np.float32)
        mems.append(cl.clCreateBuffer(ctx, types.CL_MEM_COPY_HOST_PTR,
                                      buffer_bytes, data, err))
    prog = cl.clCreateProgramWithSource(ctx, 1, SRC, None, err)
    cl.clBuildProgram(prog, 0, None, "", None, None)
    return ctx, queue, mems


def downtime_sweep():
    rows = []
    for num_buffers, buffer_kib in ((2, 64), (8, 256), (16, 1024),
                                    (16, 4096)):
        hv = VirtualStack.build("opencl").hypervisor
        vm = hv.create_vm("vm-mig")
        cl = vm.library("opencl")
        _, queue, mems = build_guest_state(cl, num_buffers,
                                           buffer_kib * 1024)
        report = hv.live_migrate_vm("vm-mig", "opencl",
                                    policy=STOP_THE_WORLD)
        # post-migration correctness: spot-check one buffer
        out = np.zeros(buffer_kib * 256, dtype=np.float32)
        code = cl.clEnqueueReadBuffer(queue, mems[1], types.CL_TRUE, 0,
                                      buffer_kib * 1024, out, 0, None, None)
        assert code == types.CL_SUCCESS
        assert (out == 1.0).all()
        rows.append({
            "buffers": num_buffers,
            "kib": buffer_kib,
            "state_mib": report.snapshot_bytes / (1 << 20),
            "downtime_ms": report.downtime * 1e3,
            "replayed": report.replayed_calls,
        })
    return rows


def test_migration_downtime_scales_with_state(once):
    rows = once(downtime_sweep)

    print("\n=== VM migration by record/replay (§4.3) ===")
    print(f"{'buffers':>8s} {'each':>8s} {'state':>10s} "
          f"{'downtime':>10s} {'replayed':>9s}")
    for row in rows:
        print(f"{row['buffers']:8d} {row['kib']:6d}KiB "
              f"{row['state_mib']:8.2f}MiB {row['downtime_ms']:8.3f}ms "
              f"{row['replayed']:9d}")

    downtimes = [row["downtime_ms"] for row in rows]
    states = [row["state_mib"] for row in rows]
    assert all(a < b for a, b in zip(downtimes, downtimes[1:])), \
        "downtime should grow with state size"
    # dominated by buffer movement: ~linear in snapshot bytes at the top
    assert downtimes[-1] / downtimes[-2] > 0.5 * states[-1] / states[-2]


def test_object_tracking_prunes_log(once):
    """Creating and destroying K temporaries leaves the log no bigger."""

    def run():
        hv = VirtualStack.build("opencl").hypervisor
        vm = hv.create_vm("vm-churn")
        cl = vm.library("opencl")
        ctx, queue, _ = build_guest_state(cl, 2, 4096)
        log = hv.router.vms["vm-churn"].logs["opencl"]
        baseline = len(log)
        err = OutBox()
        for _ in range(100):
            temp = cl.clCreateBuffer(ctx, 0, 4096, None, err)
            cl.clReleaseMemObject(temp)
        cl.clFinish(queue)
        return baseline, len(log), log.pruned_calls

    baseline, after, pruned = once(run)
    print(f"\nmigration log: {baseline} entries before churn, {after} "
          f"after 100 create/destroy pairs ({pruned} pruned by object "
          "tracking)")
    assert after == baseline
    assert pruned >= 100
    rows = bounded_log()
    _print_bounded(rows)
    _assert_bounded(rows)


def bounded_log():
    """The log under a steady-state guest: N iterations of set three
    kernel arguments, launch, rewrite the input buffer; then one destroy
    among K live buffers, counted in records visited (not seconds)."""
    rows = []
    for iterations, live_objects in ((10, 100), (100, 1000), (1000, 10000)):
        hv = VirtualStack.build("opencl").hypervisor
        cl = hv.create_vm("vm-steady").library("opencl")
        env = open_env(cl)
        kernel = env.kernel(env.program(SRC), "vector_scale")
        mem = env.buffer(4096)
        recorder = hv.router.vms["vm-steady"].logs["opencl"]
        data = np.ones(1024, dtype=np.float32)
        for index in range(iterations):
            env.set_args(kernel, mem, 1.0 + index % 3, 1024)
            env.launch(kernel, [1024])
            env.write(mem, data, blocking=False)
        env.finish()
        log_entries = len(recorder)

        extras = [env.buffer(64) for _ in range(live_objects)]
        visits = []
        inner = RecordedCall.created_ids
        RecordedCall.created_ids = \
            lambda entry: visits.append(entry.serial) or inner(entry)
        try:
            cl.clReleaseMemObject(extras[live_objects // 2])
            env.finish()
        finally:
            RecordedCall.created_ids = inner
        rows.append({
            "iterations": iterations,
            "log_entries": log_entries,
            "live_objects": live_objects,
            "log_entries_at_destroy": log_entries + live_objects,
            "destroy_record_visits": len(visits),
        })
    return rows


def _assert_bounded(rows):
    assert len({row["log_entries"] for row in rows}) == 1, (
        f"log length grew with the iteration count: {rows}")
    assert len({row["destroy_record_visits"] for row in rows}) == 1, (
        f"destroy cost grew with the log: {rows}")


def _print_bounded(rows):
    print("\n=== bounded log: set-arg / launch / rewrite loop ===")
    print(f"{'iterations':>11s} {'log':>6s} {'live objs':>10s} "
          f"{'destroy visits':>15s}")
    for row in rows:
        print(f"{row['iterations']:11d} {row['log_entries']:6d} "
              f"{row['live_objects']:10d} "
              f"{row['destroy_record_visits']:15d}")


def live_vs_stop_the_world():
    """Same device state, sustained traffic: live vs frozen migration."""
    rows = []
    for num_buffers, buffer_kib in ((8, 256), (16, 1024)):
        nbytes = buffer_kib * 1024

        # stop-the-world baseline: the guest is frozen for the whole
        # log replay and every buffer transfer
        hv = VirtualStack.build("opencl").hypervisor
        cl = hv.create_vm("vm-stw").library("opencl")
        build_guest_state(cl, num_buffers, nbytes)
        stw = hv.live_migrate_vm("vm-stw", "opencl",
                                 policy=STOP_THE_WORLD)

        # live: the guest keeps writing between pre-copy rounds; only
        # the cutover window is frozen
        hv2 = VirtualStack.build("opencl").hypervisor
        cl2 = hv2.create_vm("vm-live").library("opencl")
        _, queue, mems = build_guest_state(cl2, num_buffers, nbytes)
        engine = hv2.start_live_migration("vm-live", "opencl")
        for round_index in range(3):
            update = np.full(nbytes // 4, 100.0 + round_index,
                             dtype=np.float32)
            code = cl2.clEnqueueWriteBuffer(
                queue, mems[round_index % num_buffers], types.CL_TRUE,
                0, nbytes, update, 0, None, None)
            assert code == types.CL_SUCCESS
            engine.precopy_round()
        live = engine.cutover()
        assert not live.aborted

        # fidelity spot-check on the destination
        out = np.zeros(nbytes // 4, dtype=np.float32)
        code = cl2.clEnqueueReadBuffer(queue, mems[2 % num_buffers],
                                       types.CL_TRUE, 0, nbytes, out, 0,
                                       None, None)
        assert code == types.CL_SUCCESS
        assert (out == 102.0).all()

        rows.append({
            "buffers": num_buffers,
            "kib": buffer_kib,
            "state_mib": stw.snapshot_bytes / (1 << 20),
            "stw_downtime_ms": stw.downtime * 1e3,
            "live_downtime_ms": live.downtime * 1e3,
            "live_total_ms": live.total_time * 1e3,
            "rounds": live.rounds,
            "downtime_ratio": live.downtime / stw.downtime,
        })
    return rows


def rebalance_demo():
    """Heat one member, add a cold one: the rebalancer flattens the
    spread; a no-rebalance control run keeps limping."""
    from repro.hypervisor.pool import (
        DeviceClass,
        PoolRebalancer,
        RebalancePolicy,
    )
    from repro.workloads import BFSWorkload

    def run(rebalance):
        hv = VirtualStack.build("opencl").hypervisor
        hv.add_device(DeviceClass.baseline_gpu(), "dev-hot")
        for vm_id in ("vm-a", "vm-b"):
            vm = hv.create_vm(vm_id)
            assert BFSWorkload(scale=0.5).run(
                vm.library("opencl")).verified
        hv.add_device(DeviceClass.baseline_gpu(), "dev-cold")
        moved = None
        if rebalance:
            rebalancer = PoolRebalancer(
                hv, policy=RebalancePolicy(min_spread=0.05,
                                           min_hot_utilization=0.01))
            reports = rebalancer.rebalance_once()
            assert reports and all(not r.aborted for r in reports)
            moved = reports[0].source_vm
        # post-decision traffic: both tenants keep working
        for vm_id in ("vm-a", "vm-b"):
            assert BFSWorkload(scale=0.5).run(
                hv.vms[vm_id].library("opencl")).verified
        spread = PoolRebalancer(hv).utilization_spread()
        placements = {vm: member.device_id
                      for vm, member in hv.pool.assignments.items()}
        return spread, placements, moved

    spread_with, placements_with, moved = run(rebalance=True)
    spread_without, placements_without, _ = run(rebalance=False)
    return {
        "moved_vm": moved,
        "spread_with_rebalance": spread_with,
        "spread_without_rebalance": spread_without,
        "placements_with_rebalance": placements_with,
        "placements_without_rebalance": placements_without,
    }


def _assert_gates(live_rows, rebalance):
    for row in live_rows:
        assert row["live_downtime_ms"] <= 0.25 * row["stw_downtime_ms"], (
            f"live downtime {row['live_downtime_ms']:.3f}ms above 25% of "
            f"stop-the-world {row['stw_downtime_ms']:.3f}ms "
            f"({row['buffers']}x{row['kib']}KiB)"
        )
        assert row["live_downtime_ms"] > 0
    assert rebalance["moved_vm"] is not None
    assert len(set(rebalance["placements_with_rebalance"].values())) == 2, \
        "rebalancer left both tenants on one member"
    assert rebalance["spread_with_rebalance"] < \
        rebalance["spread_without_rebalance"], (
        "rebalanced pool should end with a smaller utilization spread"
    )


def _print_live(live_rows, rebalance):
    print("\n=== live migration vs stop-the-world (under traffic) ===")
    print(f"{'buffers':>8s} {'each':>8s} {'stw':>10s} {'live':>10s} "
          f"{'ratio':>7s} {'rounds':>7s}")
    for row in live_rows:
        print(f"{row['buffers']:8d} {row['kib']:6d}KiB "
              f"{row['stw_downtime_ms']:8.3f}ms "
              f"{row['live_downtime_ms']:8.4f}ms "
              f"{row['downtime_ratio']:7.2%} {row['rounds']:7d}")
    print(f"\nrebalance: moved {rebalance['moved_vm']} off the hot "
          f"member; spread {rebalance['spread_without_rebalance']:.3f} "
          f"-> {rebalance['spread_with_rebalance']:.3f}")


def test_live_migration_beats_stop_the_world(once):
    live_rows = once(live_vs_stop_the_world)
    rebalance = rebalance_demo()
    _print_live(live_rows, rebalance)
    _assert_gates(live_rows, rebalance)


def test_gate():
    """CI gate, fixture-free on purpose (runs without pytest-benchmark).

    Gates: live downtime <= 25% of stop-the-world on the same state
    under sustained traffic, and the rebalancer demonstrably moves a
    tenant off the hot member, shrinking the pool's utilization spread.
    The steady-state loop leaves the log no longer and a destroy visits
    the same few records whatever the log holds.
    Writes BENCH_migration.json for dashboards and regression diffs.
    """
    live_rows = live_vs_stop_the_world()
    rebalance = rebalance_demo()
    bounded_rows = bounded_log()
    _print_live(live_rows, rebalance)
    _print_bounded(bounded_rows)
    _assert_gates(live_rows, rebalance)
    _assert_bounded(bounded_rows)
    path = os.path.join(os.path.dirname(__file__),
                        "BENCH_migration.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({
            "figure": "migration",
            "bounded_log": bounded_rows,
            "live_vs_stop_the_world": live_rows,
            "rebalance": rebalance,
        }, handle, indent=2, sort_keys=True)
        handle.write("\n")
