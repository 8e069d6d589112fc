"""§4.3 memory swapping: buffer-object granularity vs page granularity.

"AvA avoids exposing out-of-memory conditions to contending guest VMs by
supporting memory swapping at buffer object granularity, which reduces
overhead and driver modification relative to page- or chunk-based
management."  We run the same oversubscribed access pattern under both
managers on identical devices and compare swap operations and stall
time; and we show a guest workload surviving a device half its
footprint.
"""

from repro.opencl import runtime as rt
from repro.opencl.device import DeviceSpec, SimulatedGPU
from repro.server.swap import ObjectSwapManager, PageSwapManager
from repro.stack import VirtualStack
from repro.workloads import NWWorkload


def thrash(manager, buffers=12, buffer_kib=256, rounds=4,
           capacity_kib=1024):
    """Round-robin touching of 12 × 256 KiB buffers in 1 MiB of memory."""
    gpu = SimulatedGPU(DeviceSpec.small_gpu(mem_bytes=capacity_kib * 1024))
    with rt.session([gpu], memory_manager=manager) as sess:
        ctx = rt.Context(sess, [gpu])
        queue = rt.CommandQueue(ctx, gpu)
        mems = [rt.MemObject(ctx, 0, buffer_kib * 1024, gpu)
                for _ in range(buffers)]
        for _ in range(rounds):
            for mem in mems:
                rt.enqueue_read(queue, mem, 0, 64, blocking=True)
    return manager.stats


def run_comparison():
    results = {}
    for name, manager in (
        ("object (AvA)", ObjectSwapManager()),
        ("page-4K", PageSwapManager(page_bytes=4096)),
        ("chunk-64K", PageSwapManager(page_bytes=64 * 1024)),
    ):
        results[name] = thrash(manager)
    return results


def test_object_granularity_wins(once):
    results = once(run_comparison)

    print("\n=== memory oversubscription: 3 MiB of buffers on 1 MiB "
          "device (§4.3) ===")
    print(f"{'manager':14s} {'swap ops':>9s} {'bytes moved':>13s} "
          f"{'stall':>10s} {'evictions':>10s}")
    for name, stats in results.items():
        moved = stats.bytes_in + stats.bytes_out
        print(f"{name:14s} {stats.total_ops:9,d} {moved:13,d} "
              f"{stats.stall_seconds * 1e3:8.3f}ms {stats.evictions:10,d}")

    obj = results["object (AvA)"]
    page = results["page-4K"]
    chunk = results["chunk-64K"]
    # same bytes move (whole-buffer access pattern)...
    assert obj.bytes_in == page.bytes_in == chunk.bytes_in
    # ...but object granularity needs dramatically fewer operations
    assert obj.total_ops * 20 < page.total_ops
    assert obj.total_ops * 2 < chunk.total_ops
    # and stalls less (no per-page fault handling)
    assert obj.stall_seconds < page.stall_seconds
    assert obj.stall_seconds < chunk.stall_seconds


def test_guest_survives_oversubscription(once):
    """No OOM reaches the guest: nw on a device half its footprint."""

    def run():
        hv = VirtualStack.build(
            "opencl",
            devices={"opencl": lambda: SimulatedGPU(
                DeviceSpec.small_gpu(mem_bytes=96 * 1024)
            )},
            memory_manager_factory=ObjectSwapManager,
        ).hypervisor
        vm = hv.create_vm("vm-swap")
        result = NWWorkload(scale=0.5).run(vm.library("opencl"))
        return result, vm.clock.now

    result, runtime = once(run)
    print(f"\nnw on an oversubscribed device: verified={result.verified}, "
          f"guest time {runtime * 1e3:.3f} ms (slower, but alive — "
          "without AvA this workload gets CL_MEM_OBJECT_ALLOCATION_FAILURE)")
    assert result.verified


def test_swap_overhead_vs_fitting_device(once):
    """Swapping costs time — quantify the price of oversubscription."""
    workload = NWWorkload(scale=0.5)

    def run(mem_bytes):
        hv = VirtualStack.build(
            "opencl",
            devices={"opencl": lambda: SimulatedGPU(
                DeviceSpec.small_gpu(mem_bytes=mem_bytes)
            )},
            memory_manager_factory=ObjectSwapManager,
        ).hypervisor
        vm = hv.create_vm("vm-sz")
        assert workload.run(vm.library("opencl")).verified
        return vm.clock.now

    fitting = run(64 * 1024 * 1024)
    tight = once(run, 96 * 1024)
    print(f"\nnw runtime: fitting device {fitting * 1e3:.3f} ms, "
          f"oversubscribed {tight * 1e3:.3f} ms "
          f"({tight / fitting:.2f}x)")
    assert tight > fitting
