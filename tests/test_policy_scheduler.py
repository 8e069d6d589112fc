"""Tests for rate limiting and device-time scheduling."""

import pytest
from hypothesis import given, strategies as st

from repro.hypervisor.policy import RateLimiter, ResourcePolicy, VMPolicy
from repro.hypervisor.pool import DeviceClass, DevicePool, PoolScheduler
from repro.hypervisor.scheduler import (
    FifoScheduler,
    RoundRobinScheduler,
    WorkItem,
    jain_fairness,
)


class TestRateLimiter:
    def make(self, rate, burst=1):
        policy = ResourcePolicy()
        policy.set_policy("vm", VMPolicy(command_rate=rate,
                                         command_burst=burst))
        return RateLimiter(policy)

    def test_unlimited_by_default(self):
        limiter = RateLimiter(ResourcePolicy())
        assert limiter.next_allowed("anyone", 5.0) == 5.0

    def test_burst_passes_immediately(self):
        limiter = self.make(rate=10.0, burst=4)
        for _ in range(4):
            assert limiter.next_allowed("vm", 0.0) == 0.0

    def test_sustained_rate_enforced(self):
        limiter = self.make(rate=10.0, burst=1)
        releases = [limiter.next_allowed("vm", 0.0) for _ in range(11)]
        # first token free, then one per 0.1s
        assert releases[0] == 0.0
        assert releases[10] == pytest.approx(1.0)

    def test_tokens_refill_over_time(self):
        limiter = self.make(rate=10.0, burst=2)
        limiter.next_allowed("vm", 0.0)
        limiter.next_allowed("vm", 0.0)
        # 0.5 s later, 2 tokens are back (capped at burst)
        assert limiter.next_allowed("vm", 0.5) == 0.5

    def test_release_never_before_arrival(self):
        limiter = self.make(rate=100.0, burst=8)
        for arrival in (0.0, 0.001, 0.5, 0.5, 2.0):
            assert limiter.next_allowed("vm", arrival) >= arrival

    def test_independent_vms(self):
        policy = ResourcePolicy()
        policy.set_policy("slow", VMPolicy(command_rate=1.0, command_burst=1))
        limiter = RateLimiter(policy)
        limiter.next_allowed("slow", 0.0)
        delayed = limiter.next_allowed("slow", 0.0)
        assert delayed > 0
        assert limiter.next_allowed("fast", 0.0) == 0.0

    def test_bad_rate_rejected(self):
        # refused when the policy is built, never on the routing path
        for rate in (0.0, -1.0):
            with pytest.raises(ValueError, match="command_rate"):
                VMPolicy(command_rate=rate)

    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=1,
                    max_size=50))
    def test_releases_monotone_for_monotone_arrivals(self, deltas):
        limiter = self.make(rate=5.0, burst=2)
        arrivals = []
        t = 0.0
        for d in deltas:
            t += d
            arrivals.append(t)
        releases = [limiter.next_allowed("vm", a) for a in arrivals]
        assert all(r2 >= r1 for r1, r2 in zip(releases, releases[1:]))


def uniform_streams(vms, count=50, duration=1e-3, think=0.0):
    return {vm: [WorkItem(duration, think) for _ in range(count)]
            for vm in vms}


def one_device(pick=None, policy=None, rate_limiter=None):
    """The engine over one baseline device shared by every VM."""
    pool = DevicePool.from_classes([DeviceClass.baseline_gpu()],
                                   policy=policy)
    return PoolScheduler(pool, rate_limiter=rate_limiter, pick=pick)


def run_one_device(streams, pick=None, policy=None, rate_limiter=None):
    return one_device(pick, policy, rate_limiter).run(streams).vm_stats


class TestContendedDevice:
    """Several VMs contending for one device (a one-member pool)."""

    def test_everything_completes(self):
        stats = run_one_device(uniform_streams(["a", "b"], count=10),
                               FifoScheduler)
        assert stats["a"].completed == 10
        assert stats["b"].completed == 10

    def test_device_serializes(self):
        stats = run_one_device(uniform_streams(["a", "b"], count=10),
                               FifoScheduler)
        total = stats["a"].device_time + stats["b"].device_time
        finish = max(s.finish_time for s in stats.values())
        assert finish == pytest.approx(total)

    def test_empty_streams_rejected(self):
        with pytest.raises(ValueError):
            run_one_device({}, FifoScheduler)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            WorkItem(-1.0)

    def test_fair_share_equalizes_heterogeneous_demand(self):
        # "hog" issues 10x longer kernels than "mouse"
        streams = {
            "hog": [WorkItem(10e-3) for _ in range(200)],
            "mouse": [WorkItem(1e-3) for _ in range(200)],
        }
        stats = run_one_device(streams)
        # while both were active, device time should be near-equal:
        # compare usage at the moment the mouse finished
        mouse_done = stats["mouse"].finish_time
        hog_time_before = sum(
            10e-3 for t in stats["hog"].completions if t <= mouse_done
        )
        mouse_time = stats["mouse"].device_time
        assert jain_fairness([hog_time_before, mouse_time]) > 0.95

    def test_weighted_fair_share(self):
        policy = ResourcePolicy()
        policy.set_policy("gold", VMPolicy(weight=3.0))
        policy.set_policy("bronze", VMPolicy(weight=1.0))
        streams = {
            "gold": [WorkItem(1e-3) for _ in range(400)],
            "bronze": [WorkItem(1e-3) for _ in range(400)],
        }
        stats = run_one_device(streams, policy=policy)
        done = min(s.finish_time for s in stats.values())
        gold = sum(1 for t in stats["gold"].completions if t <= done)
        bronze = sum(1 for t in stats["bronze"].completions if t <= done)
        assert gold / bronze == pytest.approx(3.0, rel=0.15)

    def test_round_robin_alternates(self):
        stats = run_one_device(uniform_streams(["a", "b"], count=20),
                               RoundRobinScheduler)
        # completions interleave: finish times alternate between VMs
        merged = sorted(
            [(t, "a") for t in stats["a"].completions]
            + [(t, "b") for t in stats["b"].completions]
        )
        alternations = sum(
            1 for (t1, v1), (t2, v2) in zip(merged, merged[1:]) if v1 != v2
        )
        assert alternations >= len(merged) * 0.8

    def test_fifo_favors_nobody_with_equal_streams(self):
        stats = run_one_device(uniform_streams(["a", "b", "c"], count=30),
                               FifoScheduler)
        times = [s.device_time for s in stats.values()]
        assert jain_fairness(times) > 0.99

    def test_rate_limited_stream_throttled(self):
        policy = ResourcePolicy()
        policy.set_policy("throttled",
                          VMPolicy(command_rate=100.0, command_burst=1))
        limiter = RateLimiter(policy)
        streams = uniform_streams(["throttled", "free"], count=100,
                                  duration=0.1e-3)
        stats = run_one_device(streams, FifoScheduler,
                               rate_limiter=limiter)
        # 100 commands at 100/s ≈ 1s for the throttled VM
        assert stats["throttled"].finish_time >= 0.9
        assert stats["free"].finish_time < 0.1

    def test_think_time_creates_idle_device(self):
        streams = {"a": [WorkItem(1e-3, think_time=9e-3) for _ in range(10)]}
        stats = run_one_device(streams, FifoScheduler)
        assert stats["a"].finish_time == pytest.approx(
            10 * 1e-3 + 9 * 9e-3
        )


class TestJainIndex:
    def test_perfectly_fair(self):
        assert jain_fairness([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_maximally_unfair(self):
        assert jain_fairness([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_empty_or_zero(self):
        assert jain_fairness([]) == 1.0
        assert jain_fairness([0.0, 0.0]) == 1.0

    def test_single_vm_is_trivially_fair(self):
        assert jain_fairness([5.0]) == pytest.approx(1.0)

    def test_all_zero_is_fair_not_nan(self):
        # an idle fleet is vacuously fair; must not divide by zero
        assert jain_fairness([0.0, 0.0, 0.0, 0.0]) == 1.0


class TestSfqReentry:
    """Regression: a late joiner must not monopolize the device.

    Before the fix, FairShareScheduler derived tags directly from raw
    usage, so a VM becoming ready late carried usage ≈ 0 and won every
    pick until it "caught up" with the incumbent — the incumbent
    starved for as long as the joiner had been absent.
    """

    def test_late_joiner_capped_at_weighted_share(self):
        join_at = 0.5
        streams = {
            "incumbent": [WorkItem(1e-3) for _ in range(1000)],
            # a zero-cost marker item whose think time delays the real
            # work: "late" re-enters the ready set at t ≈ join_at with
            # zero accumulated usage
            "late": [WorkItem(0.0, think_time=join_at)]
            + [WorkItem(1e-3) for _ in range(400)],
        }
        stats = run_one_device(streams)
        window_end = join_at + 0.2
        late_wins = sum(
            1 for t in stats["late"].completions if join_at < t <= window_end
        )
        incumbent_wins = sum(
            1
            for t in stats["incumbent"].completions
            if join_at < t <= window_end
        )
        total = late_wins + incumbent_wins
        assert total > 100  # the window saw real contention
        # equal weights → the joiner's fair share of the window is 1/2;
        # pre-fix it wins essentially everything (~1.0 of the window)
        assert late_wins <= 0.6 * total, (
            f"late joiner won {late_wins}/{total} of the post-join window"
        )
        assert incumbent_wins >= 0.4 * total

    def test_continuously_busy_vms_unaffected(self):
        # the re-entry clamp must be a no-op when everyone stays ready
        streams = uniform_streams(["a", "b"], count=200, duration=1e-3)
        stats = run_one_device(streams)
        done = min(s.finish_time for s in stats.values())
        a = sum(1 for t in stats["a"].completions if t <= done)
        b = sum(1 for t in stats["b"].completions if t <= done)
        assert jain_fairness([a, b]) > 0.99


class TestRoundRobinReset:
    """Regression: the rotation cursor leaked across run() calls, so a
    second run on the same engine started mid-rotation and back-to-back
    identical runs produced different stats.  The engine now builds a
    fresh pick policy per run."""

    def test_same_streams_twice_identical_stats(self):
        device = one_device(RoundRobinScheduler)

        def make_streams():
            return {
                "a": [WorkItem(1e-3) for _ in range(30)],
                "b": [WorkItem(2e-3) for _ in range(15)],
                "c": [WorkItem(1e-3) for _ in range(20)],
            }

        first = device.run(make_streams()).vm_stats
        second = device.run(make_streams()).vm_stats
        for vm in first:
            assert first[vm].completions == second[vm].completions
            assert first[vm].finish_time == second[vm].finish_time
            assert first[vm].total_wait == second[vm].total_wait

    def test_fair_share_also_resets(self):
        device = one_device()
        first = device.run(uniform_streams(["a", "b"], count=40)).vm_stats
        second = device.run(uniform_streams(["a", "b"], count=40)).vm_stats
        for vm in first:
            assert first[vm].completions == second[vm].completions


class TestWaitSplit:
    """Regression: throttle delay from the admission rate limiter was
    charged into the same counters as queueing behind other VMs' work;
    the split keeps total_wait = queue + throttle for compatibility."""

    def make_limited(self, rate, burst=1):
        policy = ResourcePolicy()
        policy.set_policy(
            "limited", VMPolicy(command_rate=rate, command_burst=burst)
        )
        return RateLimiter(policy)

    def test_solo_throttled_vm_has_no_queue_wait(self):
        # alone on the device, every wait is admission throttling
        stats = run_one_device(
            {"limited": [WorkItem(0.1e-3) for _ in range(50)]},
            FifoScheduler, rate_limiter=self.make_limited(rate=100.0),
        )
        entry = stats["limited"]
        assert entry.total_throttle_wait > 0
        assert entry.total_queue_wait == pytest.approx(0.0)
        assert entry.total_wait == pytest.approx(entry.total_throttle_wait)

    def test_contended_throttled_vm_splits_both(self):
        streams = {
            "limited": [WorkItem(0.1e-3) for _ in range(50)],
            "free": [WorkItem(5e-3) for _ in range(50)],
        }
        stats = run_one_device(streams, FifoScheduler,
                               rate_limiter=self.make_limited(rate=100.0))
        limited = stats["limited"]
        # throttled *and* stuck behind the free VM's 5 ms kernels
        assert limited.total_throttle_wait > 0
        assert limited.total_queue_wait > 0
        assert limited.total_wait == pytest.approx(
            limited.total_queue_wait + limited.total_throttle_wait
        )
        # the free VM is never throttled: all wait is queueing
        free = stats["free"]
        assert free.total_throttle_wait == pytest.approx(0.0)
        assert free.total_wait == pytest.approx(free.total_queue_wait)

    def test_per_item_lists_consistent(self):
        streams = {
            "limited": [WorkItem(0.1e-3) for _ in range(30)],
            "free": [WorkItem(1e-3) for _ in range(30)],
        }
        stats = run_one_device(streams, FifoScheduler,
                               rate_limiter=self.make_limited(rate=200.0))
        for entry in stats.values():
            assert len(entry.queue_waits) == len(entry.waits)
            assert sum(entry.queue_waits) == pytest.approx(
                entry.total_queue_wait
            )
            for total, queued in zip(entry.waits, entry.queue_waits):
                assert total >= queued - 1e-12


class TestEngineEdgeCases:
    def test_zero_length_stream_mixed_with_busy(self):
        # a VM with no work at all must not wedge or skew the engine
        streams = {
            "idle": [],
            "busy": [WorkItem(1e-3) for _ in range(10)],
        }
        stats = run_one_device(streams, FifoScheduler)
        assert stats["idle"].completed == 0
        assert stats["idle"].device_time == 0.0
        assert stats["busy"].completed == 10
        assert stats["busy"].finish_time == pytest.approx(10e-3)

    def test_zero_duration_items_complete(self):
        streams = {
            "zero": [WorkItem(0.0) for _ in range(5)],
            "busy": [WorkItem(1e-3) for _ in range(5)],
        }
        stats = run_one_device(streams, RoundRobinScheduler)
        assert stats["zero"].completed == 5
        assert stats["zero"].device_time == 0.0
        assert stats["busy"].completed == 5

    def test_equal_release_ties_are_alphabetical(self):
        # all VMs ready at t=0 with identical tags: FIFO must pick the
        # alphabetically first, deterministically
        stats = run_one_device(uniform_streams(["c", "a", "b"], count=1),
                               FifoScheduler)
        order = sorted(stats, key=lambda vm: stats[vm].completions[0])
        assert order == ["a", "b", "c"]
