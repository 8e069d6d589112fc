"""§4.3 rate limiting: the router enforces per-VM command-rate policies.

"This simple usage will provide virtualization, but will not enforce any
scheduling or resource utilization constraints beyond command
rate-limiting" — rate limiting is AvA's baseline enforcement.  The
bench shows a throttled VM's throughput tracking its configured limit
while an unthrottled VM sharing the router is unaffected.

Output: the ``rate_limit`` section of ``BENCH_scheduling.json``.
"""

import pytest

from repro.hypervisor.policy import RateLimiter, ResourcePolicy, VMPolicy
from repro.hypervisor.pool import DeviceClass, DevicePool, PoolScheduler
from repro.hypervisor.scheduler import FifoScheduler, WorkItem
from repro.stack import VirtualStack
from repro.workloads import NWWorkload


def run_sweep():
    """Closed-loop streams under increasing rate limits."""
    rows = []
    for limit in (500.0, 1000.0, 2000.0, 4000.0, None):
        policy = ResourcePolicy()
        if limit is not None:
            policy.set_policy(
                "limited", VMPolicy(command_rate=limit, command_burst=1)
            )
        device = PoolScheduler(
            DevicePool.from_classes([DeviceClass.baseline_gpu()], policy),
            rate_limiter=RateLimiter(policy), pick=FifoScheduler)
        streams = {
            "limited": [WorkItem(duration=20e-6) for _ in range(2000)],
            "free": [WorkItem(duration=20e-6) for _ in range(2000)],
        }
        stats = device.run(streams).vm_stats
        rows.append({
            "limit": limit,
            "limited_rate": stats["limited"].completed
            / stats["limited"].finish_time,
            "free_rate": stats["free"].completed
            / stats["free"].finish_time,
        })
    return rows


def test_rate_limit_tracks_policy(once, bench_json):
    rows = once(run_sweep)
    bench_json("scheduling", rows, section="rate_limit")

    print("\n=== router rate limiting (§4.3) ===")
    print(f"{'limit (cmd/s)':>14s} {'limited VM (cmd/s)':>19s} "
          f"{'free VM (cmd/s)':>16s}")
    for row in rows:
        limit = f"{row['limit']:.0f}" if row["limit"] else "unlimited"
        print(f"{limit:>14s} {row['limited_rate']:19,.0f} "
              f"{row['free_rate']:16,.0f}")

    for row in rows[:-1]:
        # throttled VM's observed rate tracks its policy within 10%
        assert row["limited_rate"] == pytest.approx(row["limit"], rel=0.10)
        # the free VM keeps far more throughput than the limit
        assert row["free_rate"] > row["limited_rate"] * 2
    unlimited = rows[-1]
    assert unlimited["limited_rate"] == pytest.approx(
        unlimited["free_rate"], rel=0.05
    )


def test_rate_limit_end_to_end(once):
    """The same policy applied to a real forwarded workload."""

    def run(limit):
        policy = ResourcePolicy()
        if limit:
            policy.set_policy("vm-rl", VMPolicy(command_rate=limit,
                                                command_burst=8))
        hv = VirtualStack.build("opencl", policy=policy).hypervisor
        vm = hv.create_vm("vm-rl")
        result = NWWorkload(scale=0.25).run(vm.library("opencl"))
        assert result.verified
        return vm.clock.now, hv.router.metrics_for("vm-rl").rate_delay

    unthrottled_time, no_delay = run(None)
    throttled_time, injected = once(run, 2000.0)

    print(f"\nnw unthrottled: {unthrottled_time * 1e3:.3f} ms; "
          f"at 2000 cmd/s: {throttled_time * 1e3:.3f} ms "
          f"(cumulative queueing delay across commands: "
          f"{injected:.1f} s)")
    assert no_delay == 0.0
    assert injected > 0.0
    assert throttled_time > unthrottled_time * 2
