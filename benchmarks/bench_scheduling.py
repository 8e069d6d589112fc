"""§4.3 scheduling: call-granularity device-time fairness across VMs.

"the router schedules execution at function call granularity ... we
conjecture that these approximations will still provide a useful level
of performance isolation."  The bench puts asymmetric closed-loop
guests on one device under three policies and measures device-time
shares (Jain index) and weighted allocations.

Output: the ``policies``, ``weighted`` and ``head_of_line`` sections of
``BENCH_scheduling.json`` (``bench_consolidation.py`` and
``bench_ratelimit.py`` write the others).
"""

import pytest

from repro.hypervisor.policy import ResourcePolicy, VMPolicy
from repro.hypervisor.pool import DeviceClass, DevicePool, PoolScheduler
from repro.hypervisor.scheduler import (
    FairShareScheduler,
    FifoScheduler,
    RoundRobinScheduler,
    WorkItem,
    jain_fairness,
)


def run_one_device(streams, pick=None, policy=None):
    """Per-VM stats of ``streams`` sharing one baseline device."""
    pool = DevicePool.from_classes([DeviceClass.baseline_gpu()],
                                   policy=policy)
    return PoolScheduler(pool, pick=pick).run(streams).vm_stats


def asymmetric_streams():
    """A hog issuing 8 ms kernels vs two mice issuing 0.5 ms kernels."""
    return {
        "hog": [WorkItem(8e-3) for _ in range(400)],
        "mouse1": [WorkItem(0.5e-3) for _ in range(2000)],
        "mouse2": [WorkItem(0.5e-3) for _ in range(2000)],
    }


def shares_at_common_horizon(stats):
    """Device time each VM received before the first VM finished."""
    horizon = min(s.finish_time for s in stats.values())
    shares = {}
    for vm, s in stats.items():
        duration = s.device_time / s.completed
        shares[vm] = sum(1 for t in s.completions if t <= horizon) * duration
    return shares


def run_policies():
    results = {}
    for name, pick in (
        ("fifo", FifoScheduler),
        ("round-robin", RoundRobinScheduler),
        ("fair-share", FairShareScheduler),
    ):
        stats = run_one_device(asymmetric_streams(), pick)
        shares = shares_at_common_horizon(stats)
        results[name] = {
            "shares": shares,
            "jain": jain_fairness(list(shares.values())),
        }
    return results


def test_fair_share_beats_fifo(once, bench_json):
    results = once(run_policies)
    bench_json("scheduling", results, section="policies")

    print("\n=== device-time scheduling across VMs (§4.3) ===")
    print(f"{'policy':12s} {'hog':>9s} {'mouse1':>9s} {'mouse2':>9s} "
          f"{'Jain index':>11s}")
    for name, entry in results.items():
        shares = entry["shares"]
        print(f"{name:12s} {shares['hog'] * 1e3:7.1f}ms "
              f"{shares['mouse1'] * 1e3:7.1f}ms "
              f"{shares['mouse2'] * 1e3:7.1f}ms {entry['jain']:11.3f}")

    # visualize the two extremes
    from repro.harness.report import format_gantt

    for label, pick in (("fifo", FifoScheduler),
                        ("fair-share", FairShareScheduler)):
        stats = run_one_device(asymmetric_streams(), pick)
        print(f"\n{label} timeline (completions per VM):")
        print(format_gantt(stats, width=64))

    assert results["fair-share"]["jain"] >= 0.95
    assert results["fair-share"]["jain"] > results["fifo"]["jain"]
    # FIFO lets the hog starve the mice: its share dominates
    fifo = results["fifo"]["shares"]
    assert fifo["hog"] > fifo["mouse1"] * 2


def test_weighted_shares(once, bench_json):
    policy = ResourcePolicy()
    policy.set_policy("gold", VMPolicy(weight=4.0))
    policy.set_policy("silver", VMPolicy(weight=2.0))
    policy.set_policy("bronze", VMPolicy(weight=1.0))

    def run():
        streams = {
            vm: [WorkItem(1e-3) for _ in range(3000)]
            for vm in ("gold", "silver", "bronze")
        }
        stats = run_one_device(streams, policy=policy)
        return shares_at_common_horizon(stats)

    shares = once(run)
    bench_json("scheduling", shares, section="weighted")
    print("\n=== weighted fair share (4:2:1) ===")
    for vm in ("gold", "silver", "bronze"):
        print(f"{vm:8s} {shares[vm] * 1e3:8.1f} ms of device time")
    assert shares["gold"] / shares["silver"] == pytest.approx(2.0, rel=0.1)
    assert shares["silver"] / shares["bronze"] == pytest.approx(2.0, rel=0.1)


def test_non_preemptive_limitation(once, bench_json):
    """AvA schedules at call granularity and cannot preempt a running
    kernel — a giant kernel delays everyone (the approximation's limit,
    which the paper concedes)."""

    def run():
        streams = {
            "giant": [WorkItem(100e-3) for _ in range(10)],
            "tiny": [WorkItem(0.1e-3) for _ in range(100)],
        }
        stats = run_one_device(streams)
        return stats["tiny"].max_wait

    max_wait = once(run)
    bench_json("scheduling", {"tiny_max_wait": max_wait},
               section="head_of_line")
    print(f"\ntiny-kernel VM worst-case wait behind 100 ms kernels: "
          f"{max_wait * 1e3:.1f} ms (head-of-line blocking is inherent "
          "to call-granularity scheduling)")
    assert max_wait > 50e-3
