"""Consolidation with real traces: Rodinia streams sharing one GPU.

The paper's business case (§1, §6): cloud providers need multi-tenancy,
and AvA's call-granularity scheduler is what makes sharing safe.  This
bench extracts *real* device-command traces from the Figure 5 workloads
(actual kernel/copy durations, actual host think gaps) and replays
pairs of them on one device under the router's scheduling policies.

Output: the ``rodinia`` and ``consolidation`` sections of
``BENCH_scheduling.json``.
"""

from repro.harness.traces import extract_device_trace, trace_summary
from repro.hypervisor.pool import DeviceClass, DevicePool, PoolScheduler
from repro.hypervisor.scheduler import (
    FairShareScheduler,
    FifoScheduler,
    jain_fairness,
)
from repro.workloads import (
    GaussianWorkload,
    LavaMDWorkload,
    NWWorkload,
    SradWorkload,
)


def run_one_device(streams, pick=None):
    """Per-VM stats of ``streams`` sharing one baseline GPU."""
    pool = DevicePool.from_classes([DeviceClass.baseline_gpu()])
    return PoolScheduler(pool, pick=pick).run(streams).vm_stats


def gather_traces():
    traces = {}
    for cls, scale in ((GaussianWorkload, 1.0), (LavaMDWorkload, 1.0),
                       (NWWorkload, 1.0), (SradWorkload, 1.0)):
        workload = cls(scale=scale)
        traces[workload.name] = extract_device_trace(workload)
    return traces


def test_trace_shapes(once):
    traces = once(gather_traces)
    print("\n=== extracted device traces ===")
    print(f"{'workload':10s} {'commands':>9s} {'busy':>10s} "
          f"{'mean op':>10s} {'intensity':>10s}")
    for name, items in traces.items():
        summary = trace_summary(items)
        print(f"{name:10s} {summary['commands']:9,d} "
              f"{summary['busy'] * 1e3:8.3f}ms "
              f"{summary['mean_duration'] * 1e6:8.2f}us "
              f"{summary['intensity']:10.2f}")
    # the traces differ meaningfully: lavamd is one giant op,
    # nw is hundreds of tiny ones
    assert trace_summary(traces["lavamd"])["commands"] < 20
    assert trace_summary(traces["nw"])["commands"] > 400
    assert (trace_summary(traces["lavamd"])["mean_duration"]
            > 50 * trace_summary(traces["nw"])["mean_duration"])


def test_real_traces_shared_device(once, bench_json):
    """gaussian + srad co-resident: fair-share protects the lighter one."""

    def run():
        gaussian = extract_device_trace(GaussianWorkload())
        srad = extract_device_trace(SradWorkload())
        # loop the shorter trace so both stay active together
        streams = {"gaussian": gaussian * 2, "srad": srad * 4}
        outcomes = {}
        for label, pick in (("fifo", FifoScheduler),
                            ("fair-share", FairShareScheduler)):
            stats = run_one_device({
                vm: list(items) for vm, items in streams.items()
            }, pick)
            horizon = min(s.finish_time for s in stats.values())
            shares = {
                vm: sum(
                    items[i].duration
                    for i, t in enumerate(s.completions) if t <= horizon
                )
                for (vm, s), items in zip(stats.items(), streams.values())
            }
            outcomes[label] = {
                "jain": jain_fairness(list(shares.values())),
                "max_wait": {vm: s.max_wait for vm, s in stats.items()},
            }
        return outcomes

    outcomes = once(run)
    bench_json("scheduling", outcomes, section="rodinia")
    print("\n=== two real Rodinia traces on one GPU ===")
    for label, entry in outcomes.items():
        waits = ", ".join(
            f"{vm} worst wait {w * 1e3:.2f} ms"
            for vm, w in entry["max_wait"].items()
        )
        print(f"{label:12s} Jain {entry['jain']:.3f}   {waits}")
    assert outcomes["fair-share"]["jain"] >= outcomes["fifo"]["jain"] - 0.05


def _bursty(items, think_factor=2.0):
    """A tenant that alternates device bursts with host-side phases
    (pre/post-processing), the under-utilization pattern the paper's
    §6 cites as the consolidation opportunity."""
    from repro.hypervisor.scheduler import WorkItem

    return [
        WorkItem(item.duration,
                 item.think_time + item.duration * think_factor)
        for item in items
    ]


def test_consolidation_throughput(once, bench_json):
    """Sharing one device between bursty tenants beats giving each a
    dedicated time slice — the consolidation argument of §1/§6."""

    def run():
        nw = _bursty(extract_device_trace(NWWorkload()))
        srad = _bursty(extract_device_trace(SradWorkload()))
        shared = run_one_device({"nw": list(nw), "srad": list(srad)})
        shared_finish = max(s.finish_time for s in shared.values())
        # dedicated: each runs alone (device to itself)
        alone_nw = run_one_device(
            {"nw": list(nw)}, FifoScheduler)["nw"].finish_time
        alone_srad = run_one_device(
            {"srad": list(srad)}, FifoScheduler)["srad"].finish_time
        return shared_finish, alone_nw, alone_srad

    shared_finish, alone_nw, alone_srad = once(run)
    bench_json("scheduling", {
        "shared_makespan": shared_finish,
        "alone_makespan": {"nw": alone_nw, "srad": alone_srad},
    }, section="consolidation")
    sequential = alone_nw + alone_srad
    print(f"\nshared-device makespan {shared_finish * 1e3:.3f} ms vs "
          f"time-sliced sequential {sequential * 1e3:.3f} ms "
          f"({sequential / shared_finish:.2f}x consolidation win)")
    # interleaving bursty tenants beats running them back to back...
    assert shared_finish < 0.75 * sequential
    # ...and sharing barely slows either tenant (their bursts interleave)
    assert shared_finish < 1.3 * max(alone_nw, alone_srad)
