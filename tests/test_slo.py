"""SLO monitoring, open-loop load generation, and the flight recorder.

Covers the burn-rate monitor's breach/re-arm cycle, the target-file
format, the seeded arrival processes, admission-control accounting in
:func:`run_open_loop`, the crash/SLO flight recorder (ring bound, dump
format, and the three incident hooks), the ``cava slo`` exit-code
contract, and — because every one of these features must be free when
off — a bit-identity guard against the stored figure-5 results.
"""

import json
import os

import numpy as np
import pytest

from repro.codegen.cli import main as cava_main
from repro.faults import FaultPlan, RetryPolicy
from repro.guest.library import RemotingError
from repro.harness.loadgen import (
    AdmissionControl,
    BurstyArrivals,
    DiurnalArrivals,
    LoadgenError,
    PoissonArrivals,
    TraceArrivals,
    run_open_loop,
)
from repro.stack import VirtualStack
from repro.telemetry import flightrec
from repro.telemetry.exporters import write_jsonl
from repro.telemetry.flightrec import FlightRecorder, read_dump
from repro.telemetry.slo import (
    BurnRateWindow,
    SLOError,
    SLOMonitor,
    SLOTarget,
    evaluate_trace,
    load_slo_targets,
    parse_slo_targets,
)
from repro.telemetry.tracer import Span
from repro.workloads.base import open_env

ONE_WINDOW = (BurnRateWindow(long_window=1.0, short_window=0.2,
                             max_burn_rate=3.0),)


def fresh_stack(vm_id="v1"):
    hypervisor = VirtualStack.build("opencl").hypervisor
    vm = hypervisor.create_vm(vm_id)
    return hypervisor, vm


class _FakeClock:
    """Just enough clock for run_open_loop: now + advance_to."""

    def __init__(self):
        self.now = 0.0

    def advance_to(self, t, reason=None):
        assert t >= self.now
        self.now = t


class _FakeSession:
    vm_id = "vm-fake"

    def __init__(self):
        self.clock = _FakeClock()


def _service(seconds):
    def request(session):
        session.clock.now += seconds
        return 0
    return request


class TestBurnRateWindow:
    def test_validation(self):
        with pytest.raises(SLOError):
            BurnRateWindow(long_window=0.0, short_window=0.1,
                           max_burn_rate=1.0)
        with pytest.raises(SLOError):
            BurnRateWindow(long_window=1.0, short_window=2.0,
                           max_burn_rate=1.0)
        with pytest.raises(SLOError):
            BurnRateWindow(long_window=1.0, short_window=0.1,
                           max_burn_rate=0.0)


class TestSLOTarget:
    def test_matching_patterns(self):
        target = SLOTarget(name="t", vm="vm-a*", function="write*")
        assert target.matches("vm-a1", "writeBuffer")
        assert not target.matches("vm-b1", "writeBuffer")
        assert not target.matches("vm-a1", "readBuffer")

    def test_is_good(self):
        target = SLOTarget(name="t", latency=1e-3)
        assert target.is_good(0.5e-3, error=False)
        assert not target.is_good(2e-3, error=False)
        assert not target.is_good(0.5e-3, error=True)
        # error-rate-only target: any latency is fine
        assert SLOTarget(name="e").is_good(100.0, error=False)

    def test_validation(self):
        with pytest.raises(SLOError):
            SLOTarget(name="t", objective=1.0)
        with pytest.raises(SLOError):
            SLOTarget(name="t", objective=0.0)
        with pytest.raises(SLOError):
            SLOTarget(name="t", latency=-1.0)
        with pytest.raises(SLOError):
            SLOTarget(name="t", windows=())

    def test_error_budget(self):
        assert SLOTarget(name="t", objective=0.95).error_budget \
            == pytest.approx(0.05)


class TestSLOMonitor:
    def target(self):
        return SLOTarget(name="req", objective=0.9, windows=ONE_WINDOW)

    def test_one_event_per_episode_then_rearm(self):
        monitor = SLOMonitor([self.target()])
        # phase 1: healthy traffic
        for i in range(10):
            monitor.record("v1", "f", 0.0, error=False, now=i * 0.1)
        assert monitor.events == []
        # phase 2: a burst of failures — exactly one breach event
        for i in range(6):
            monitor.record("v1", "f", 0.0, error=True, now=1.0 + i * 0.02)
        assert len(monitor.events) == 1
        event = monitor.events[0]
        assert event.target == "req"
        assert event.vm_id == "v1"
        assert event.burn_long > 3.0
        assert event.burn_short > 3.0
        # phase 3: recovery re-arms the window pair
        for i in range(30):
            monitor.record("v1", "f", 0.0, error=False, now=2.0 + i * 0.1)
        assert len(monitor.events) == 1
        # phase 4: a second episode raises a second event
        for i in range(4):
            monitor.record("v1", "f", 0.0, error=True, now=6.0 + i * 0.01)
        assert len(monitor.events) == 2

    def test_slow_requests_burn_budget(self):
        target = SLOTarget(name="lat", latency=1e-3, objective=0.9,
                           windows=ONE_WINDOW)
        monitor = SLOMonitor([target])
        for i in range(5):
            monitor.record("v1", "f", latency=5e-3, error=False,
                           now=i * 0.01)
        assert monitor.breached
        assert monitor.breaches_by_vm() == {"v1": 1}

    def test_states_are_per_vm(self):
        monitor = SLOMonitor([self.target()])
        for i in range(5):
            monitor.record("bad-vm", "f", 0.0, error=True, now=i * 0.01)
            monitor.record("good-vm", "f", 0.0, error=False, now=i * 0.01)
        assert monitor.breaches_by_vm() == {"bad-vm": 1}
        rows = {r["vm"]: r for r in monitor.summary()}
        assert not rows["bad-vm"]["compliant"]
        assert rows["good-vm"]["compliant"]
        assert rows["good-vm"]["breaches"] == 0

    def test_non_matching_traffic_ignored(self):
        target = SLOTarget(name="t", vm="vm-x", objective=0.9,
                           windows=ONE_WINDOW)
        monitor = SLOMonitor([target])
        for i in range(10):
            monitor.record("vm-y", "f", 0.0, error=True, now=i * 0.01)
        assert not monitor.breached
        assert monitor.summary() == []

    def test_callbacks_invoked(self):
        monitor = SLOMonitor([self.target()])
        seen = []
        monitor.on_breach(seen.append)
        for i in range(5):
            monitor.record("v1", "f", 0.0, error=True, now=i * 0.01)
        assert seen == monitor.events


class _ReferenceMonitor:
    """The monitor's contract, naively: every target is matched on every
    request, every (target, VM) keeps its whole outcome history, and
    each window's good/bad split is recounted from it.  A window forgets
    outcomes from its oldest end only, while they are older than its
    span (so an out-of-order timestamp can hold older ones in)."""

    def __init__(self, targets):
        self.targets = list(targets)
        self.events = []
        self.history = {}   # (index, vm) -> [(time, good)]
        self.fronts = {}    # (index, vm) -> [front per window]
        self.armed = {}

    def record(self, vm_id, function, latency, error, now):
        import fnmatch

        for index, target in enumerate(self.targets):
            if not (fnmatch.fnmatchcase(vm_id, target.vm)
                    and fnmatch.fnmatchcase(function or "",
                                            target.function)):
                continue
            key = (index, vm_id)
            good = not error and (target.latency is None
                                  or latency <= target.latency)
            history = self.history.setdefault(key, [])
            history.append((now, good))
            fronts = self.fronts.setdefault(key, [0] * 2 * len(
                target.windows))
            armed = self.armed.setdefault(key, [True] * len(target.windows))
            for i, pair in enumerate(target.windows):
                burns = []
                for j, span in ((2 * i, pair.long_window),
                                (2 * i + 1, pair.short_window)):
                    while history[fronts[j]][0] < now - span:
                        fronts[j] += 1
                    inside = history[fronts[j]:]
                    bad = sum(1 for _, ok in inside if not ok)
                    burns.append(bad / len(inside) / target.error_budget)
                firing = all(burn > pair.max_burn_rate for burn in burns)
                if firing and armed[i]:
                    armed[i] = False
                    self.events.append((now, target.name, vm_id, pair,
                                        burns[0], burns[1]))
                elif not firing and burns[0] <= pair.max_burn_rate:
                    armed[i] = True

    def summary(self):
        rows = []
        for (index, vm_id), history in sorted(self.history.items()):
            good = sum(1 for _, ok in history if ok)
            rows.append((self.targets[index].name, vm_id, len(history),
                         good))
        return rows


class TestOutcomeLogMatchesReference:
    """One log per (target, VM) with per-window cursors and running
    counts, and matching remembered per (VM, function), give exactly the
    events and summary of the naive model."""

    TARGETS = [
        SLOTarget(name="all", latency=2e-3, objective=0.9,
                  windows=(BurnRateWindow(0.05, 0.01, 2.0),
                           BurnRateWindow(0.2, 0.05, 1.5))),
        SLOTarget(name="vm-a", vm="vm-a*", objective=0.8,
                  windows=(BurnRateWindow(0.03, 0.03, 1.2),)),
        SLOTarget(name="writes", vm="vm-?1", function="clEnqueue*",
                  latency=1e-3, objective=0.95),
        SLOTarget(name="finish", function="clFinish", objective=0.99,
                  windows=(BurnRateWindow(0.1, 0.02, 3.0),)),
    ]

    @pytest.mark.parametrize("seed", range(6))
    def test_random_streams(self, seed):
        import random

        rng = random.Random(seed)
        monitor = SLOMonitor(self.TARGETS)
        reference = _ReferenceMonitor(self.TARGETS)
        now = 0.0
        for _ in range(3000):
            # mostly forward in time, sometimes a step back
            now += rng.choice((1e-4, 5e-4, 2e-3, 1e-2, -3e-3))
            args = (rng.choice(("vm-a1", "vm-a2", "vm-b1", "vm-c")),
                    rng.choice(("clFinish", "clEnqueueWriteBuffer",
                                "clSetKernelArg", "")),
                    rng.choice((0.2e-3, 1.5e-3, 5e-3)),
                    rng.random() < 0.15, now)
            monitor.record(*args)
            reference.record(*args)
        assert [(e.time, e.target, e.vm_id, e.window, e.burn_long,
                 e.burn_short) for e in monitor.events] == reference.events
        assert len(reference.events) > 10
        assert [(r["target"], r["vm"], r["total"], r["good"])
                for r in monitor.summary()] == reference.summary()

    def test_logs_stay_bounded(self):
        monitor = SLOMonitor([SLOTarget(
            name="t", windows=(BurnRateWindow(0.01, 0.001, 2.0),))])
        for i in range(20_000):
            monitor.record("v1", "f", 0.0, error=False, now=i * 1e-4)
        (state,) = monitor._states.values()
        assert len(state.log) < 400


class TestTargetFiles:
    def test_parse_full_entry(self):
        targets = parse_slo_targets({"targets": [{
            "name": "lat", "vm": "vm-1", "function": "launch*",
            "latency_us": 250, "objective": 0.99,
            "windows": [{"long": 1.0, "short": 0.1,
                         "max_burn_rate": 5.0}],
        }]})
        (target,) = targets
        assert target.latency == pytest.approx(250e-6)
        assert target.objective == 0.99
        assert target.windows[0].max_burn_rate == 5.0

    def test_parse_defaults(self):
        (target,) = parse_slo_targets({"targets": [{"name": "t"}]})
        assert target.vm == "*"
        assert target.latency is None
        assert target.windows  # DEFAULT_WINDOWS

    def test_malformed_rejected(self):
        with pytest.raises(SLOError):
            parse_slo_targets({})
        with pytest.raises(SLOError):
            parse_slo_targets({"targets": []})
        with pytest.raises(SLOError):
            parse_slo_targets({"targets": [{"vm": "anonymous"}]})
        with pytest.raises(SLOError):
            parse_slo_targets({"targets": [{
                "name": "t", "windows": [{"long": 1.0}],
            }]})

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "targets.json"
        path.write_text("{not json")
        with pytest.raises(SLOError):
            load_slo_targets(str(path))
        path.write_text("[1, 2]")
        with pytest.raises(SLOError):
            load_slo_targets(str(path))

    def test_shipped_bench_targets_parse(self):
        path = os.path.join(os.path.dirname(__file__), os.pardir,
                            "benchmarks", "slo_targets.json")
        targets = load_slo_targets(path)
        assert targets and targets[0].name == "request-latency"


def _function_span(span_id, vm_id, start, duration, error=False,
                   name="clFinish"):
    return Span(
        trace_id="t", span_id=span_id, parent_id=None, name=name,
        layer="guest", kind="function", vm_id=vm_id,
        function=name, start=start, end=start + duration,
        attrs={"error": "boom"} if error else {},
    )


class TestEvaluateTrace:
    def test_replays_function_spans_only(self):
        spans = [
            _function_span(1, "v1", 0.0, 1e-5),
            _function_span(2, "v1", 0.1, 1e-5),
            # skipped: op span, unfinished span, container span
            Span("t", 3, None, "dispatch", "router", kind="op",
                 vm_id="v1", start=0.0, end=1e-6),
            Span("t", 4, None, "clFinish", "guest", kind="function",
                 vm_id="v1", start=0.2, end=None),
            Span("t", 5, None, "vm", "guest", kind="vm",
                 vm_id="v1", start=0.0, end=1.0),
        ]
        monitor = evaluate_trace(spans, [SLOTarget(
            name="t", objective=0.9, windows=ONE_WINDOW)])
        (row,) = monitor.summary()
        assert row["total"] == 2
        assert row["good"] == 2

    def test_error_and_slow_spans_breach(self):
        target = SLOTarget(name="t", latency=1e-4, objective=0.9,
                           windows=ONE_WINDOW)
        spans = [
            _function_span(i, "v1", i * 0.01, 1e-2, error=(i % 2 == 0))
            for i in range(8)
        ]
        monitor = evaluate_trace(spans, [target])
        assert monitor.breached
        (row,) = monitor.summary()
        assert row["good"] == 0  # all slow, half errored too


class TestArrivalProcesses:
    def test_poisson_deterministic_and_rated(self):
        a = PoissonArrivals(rate=1000.0, seed=3)
        b = PoissonArrivals(rate=1000.0, seed=3)
        times = a.times(2000)
        assert times == b.times(2000)
        assert times == sorted(times)
        assert PoissonArrivals(rate=1000.0, seed=4).times(2000) != times
        # mean inter-arrival ~ 1/rate
        assert times[-1] / 2000 == pytest.approx(1e-3, rel=0.1)

    def test_poisson_start_offset(self):
        times = PoissonArrivals(rate=10.0, seed=0).times(5, start=100.0)
        assert all(t > 100.0 for t in times)

    def test_bursty_deterministic_sorted(self):
        kwargs = dict(rate=100.0, burst_rate=5000.0, mean_calm=0.05,
                      mean_burst=0.005, seed=11)
        times = BurstyArrivals(**kwargs).times(500)
        assert times == BurstyArrivals(**kwargs).times(500)
        assert times == sorted(times)
        assert len(times) == 500
        # bursts compress inter-arrival spread far beyond Poisson:
        # the min gap comes from the burst state, the max from calm
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert max(gaps) / max(min(gaps), 1e-12) > 100

    def test_diurnal_rate_bounds_and_determinism(self):
        arrivals = DiurnalArrivals(rate=1000.0, period=1.0,
                                   amplitude=0.8, seed=2)
        times = arrivals.times(1000)
        assert times == DiurnalArrivals(rate=1000.0, period=1.0,
                                        amplitude=0.8, seed=2).times(1000)
        assert times == sorted(times)
        assert arrivals.rate_at(0.25) == pytest.approx(1800.0)
        assert arrivals.rate_at(0.75) == pytest.approx(200.0)

    def test_trace_replay(self):
        trace = TraceArrivals([0.0, 1.0, 2.5])
        assert trace.times(2, start=10.0) == [10.0, 11.0]
        with pytest.raises(LoadgenError):
            trace.times(4)
        with pytest.raises(LoadgenError):
            TraceArrivals([1.0, 0.5])

    def test_parameter_validation(self):
        with pytest.raises(LoadgenError):
            PoissonArrivals(rate=0.0)
        with pytest.raises(LoadgenError):
            BurstyArrivals(rate=1.0, burst_rate=0.0, mean_calm=1.0,
                           mean_burst=1.0)
        with pytest.raises(LoadgenError):
            DiurnalArrivals(rate=1.0, period=1.0, amplitude=1.0)


class TestRunOpenLoop:
    def test_latency_is_queueing_plus_service(self):
        session = _FakeSession()
        result = run_open_loop(
            session, _service(0.010),
            TraceArrivals([0.0, 0.005, 0.100]), count=3,
        )
        assert result.offered == 3
        assert result.served == 3
        assert result.shed == 0
        # r2 arrived at 0.005 but the clock was at 0.010: 5ms queueing
        assert result.latency.max == pytest.approx(0.015)
        assert result.latency.count == 3
        assert session.clock.now == pytest.approx(0.110)

    def test_compliance_against_threshold(self):
        result = run_open_loop(
            _FakeSession(), _service(0.010),
            TraceArrivals([0.0, 0.005, 0.100]), count=3,
            slo_latency=0.012,
        )
        assert result.compliant == 2
        assert result.compliant_fraction == pytest.approx(2 / 3)

    def test_admission_sheds_doomed_requests(self):
        monitor = SLOMonitor([SLOTarget(
            name="t", objective=0.5, windows=ONE_WINDOW)])
        result = run_open_loop(
            _FakeSession(), _service(0.010),
            TraceArrivals([0.0, 0.005, 0.100]), count=3,
            admission=AdmissionControl(max_queue_delay=0.002),
            slo_latency=0.012, slo_monitor=monitor,
        )
        assert result.shed == 1
        assert result.served == 2
        assert result.compliant == 2  # the served ones were all fast
        assert result.compliant_fraction == pytest.approx(2 / 3)
        # the shed request reached the monitor as an error
        (row,) = monitor.summary()
        assert row["total"] == 3
        assert row["good"] == 2

    def test_error_status_counted(self):
        def failing(session):
            session.clock.now += 0.001
            return -34  # a nonzero API status

        result = run_open_loop(
            _FakeSession(), failing, TraceArrivals([0.0, 0.1]), count=2,
        )
        assert result.errors == 2
        assert result.served == 0
        assert result.latency.count == 0

    def test_percentile_key_naming(self):
        result = run_open_loop(
            _FakeSession(), _service(0.001),
            TraceArrivals([i * 0.01 for i in range(10)]), count=10,
        )
        keys = result.percentiles((0.5, 0.99, 0.999))
        assert set(keys) == {"p50", "p99", "p99_9"}

    def test_open_loop_against_real_stack(self):
        _, vm = fresh_stack("vm-open")
        env = open_env(vm.library("opencl"))
        data = np.ones(64, dtype=np.float32)
        mem = env.buffer(data.nbytes, host=data)

        def request(session):
            env.write(mem, data)
            return env.finish()

        result = run_open_loop(
            vm, request, PoissonArrivals(rate=1000.0, seed=5), count=50,
        )
        assert result.served == 50
        assert result.latency.count == 50
        assert result.latency.mean > 0


class TestFlightRecorder:
    def test_ring_is_bounded(self, tmp_path):
        recorder = FlightRecorder(out_dir=str(tmp_path), capacity=4)
        for i in range(10):
            recorder.note("tick", now=float(i), index=i)
        entries = recorder.entries()
        assert len(entries) == 4
        assert [e["index"] for e in entries] == [6, 7, 8, 9]

    def test_incident_dump_roundtrip(self, tmp_path):
        recorder = FlightRecorder(out_dir=str(tmp_path), capacity=8)
        recorder.note("before", now=1.0, detail="context")
        path = recorder.incident("worker-crashed", now=2.0, vm_id="v1")
        assert os.path.basename(path).startswith("flightrec-001-")
        assert path.endswith(".jsonl")
        dump = read_dump(path)
        assert dump["header"]["flightrec"] == 1
        assert dump["header"]["reason"] == "worker-crashed"
        assert dump["header"]["vm_id"] == "v1"
        assert [e["what"] for e in dump["entries"]] == ["before"]
        # the ring survives the dump; a second incident gets index 001
        second = recorder.incident("giveup", now=3.0)
        assert "flightrec-002-" in second
        assert len(read_dump(second)["entries"]) == 1

    def test_span_ingest_via_tracer_sink(self, tmp_path):
        recorder = FlightRecorder(out_dir=str(tmp_path))
        recorder.ingest(_function_span(1, "v1", 0.0, 1e-5))
        (entry,) = recorder.entries()
        assert entry["kind"] == "span"
        assert entry["vm"] == "v1"
        assert entry["duration"] == pytest.approx(1e-5)

    def test_noop_by_default(self):
        assert not flightrec.active().enabled
        flightrec.active().note("ignored", now=0.0)
        assert flightrec.active().entries() == []

    def test_record_context_restores(self, tmp_path):
        recorder = FlightRecorder(out_dir=str(tmp_path))
        with flightrec.record(recorder) as active:
            assert active is recorder
            assert flightrec.active() is recorder
        assert not flightrec.active().enabled


class TestFlightRecorderHooks:
    def test_worker_crash_dumps_incident(self, tmp_path):
        hypervisor = VirtualStack.build("opencl").hypervisor
        hypervisor.install_fault_plan(
            FaultPlan(seed=1, crash_on_call=4, crash_vm="victim"))
        victim = hypervisor.create_vm("victim")
        recorder = FlightRecorder(out_dir=str(tmp_path))
        with flightrec.record(recorder):
            with pytest.raises(RemotingError, match="server-lost"):
                open_env(victim.library("opencl"))
        assert recorder.dumps
        dump = read_dump(recorder.dumps[0])
        assert dump["header"]["reason"] == "worker-crashed"
        assert dump["header"]["vm_id"] == "victim"

    def test_giveup_dumps_incident(self, tmp_path):
        hypervisor, vm = fresh_stack()
        env = open_env(vm.library("opencl"))
        data = np.arange(4, dtype=np.float32)
        mem = env.buffer(data.nbytes, host=data)
        hypervisor.install_fault_plan(
            FaultPlan(seed=1, drop=1.0),
            retry_policy=RetryPolicy(max_retries=2))
        recorder = FlightRecorder(out_dir=str(tmp_path))
        with flightrec.record(recorder):
            with pytest.raises(RemotingError, match="timeout"):
                env.write(mem, data)
        assert any("giveup" in path for path in recorder.dumps)
        dump = read_dump(recorder.dumps[0])
        assert dump["header"]["vm_id"] == "v1"

    def test_slo_breach_dumps_incident(self, tmp_path):
        monitor = SLOMonitor([SLOTarget(
            name="t", objective=0.9, windows=ONE_WINDOW)])
        recorder = FlightRecorder(out_dir=str(tmp_path))
        with flightrec.record(recorder):
            for i in range(5):
                monitor.record("v1", "f", 0.0, error=True, now=i * 0.01)
        assert monitor.breached
        assert any("slo-breach" in path for path in recorder.dumps)
        header = read_dump(recorder.dumps[0])["header"]
        assert header["target"] == "t"
        assert header["burn_long"] > 3.0


class TestStackSLOIntegration:
    def breach_everything_target(self, vm_id):
        # a threshold no routed command can meet: every reply breaches
        return SLOTarget(name="impossible", vm=vm_id, latency=1e-15,
                         objective=0.9, windows=ONE_WINDOW)

    def test_router_feeds_monitor_and_admin_report(self):
        hypervisor, vm = fresh_stack("vm-slo")
        monitor = SLOMonitor([self.breach_everything_target("vm-slo")])
        hypervisor.install_slo(monitor)
        env = open_env(vm.library("opencl"))
        data = np.ones(16, dtype=np.float32)
        mem = env.buffer(data.nbytes, host=data)
        for _ in range(10):
            env.write(mem, data)
        assert monitor.breached
        report = hypervisor.admin_report()
        assert report["_slo"]["breaches"] == len(monitor.events)
        (row,) = report["_slo"]["targets"]
        assert row["vm"] == "vm-slo"
        assert not row["compliant"]
        assert report["vm-slo"]["slo_breaches"] == len(monitor.events)

    def test_report_has_no_slo_section_without_monitor(self):
        hypervisor, vm = fresh_stack("vm-plain")
        open_env(vm.library("opencl"))
        report = hypervisor.admin_report()
        assert "_slo" not in report
        assert "slo_breaches" not in report["vm-plain"]


def _write_trace(tmp_path, name, duration, count=20, error=False):
    spans = [
        _function_span(i + 1, "vm-t", i * 0.01, duration, error=error)
        for i in range(count)
    ]
    path = tmp_path / name
    write_jsonl(spans, str(path))
    return str(path)


def _write_targets(tmp_path, latency_us=100.0):
    path = tmp_path / "targets.json"
    path.write_text(json.dumps({"targets": [{
        "name": "lat", "vm": "vm-*", "latency_us": latency_us,
        "objective": 0.9,
        "windows": [{"long": 1.0, "short": 0.2, "max_burn_rate": 3.0}],
    }]}))
    return str(path)


class TestCavaSloCLI:
    def test_compliant_trace_exits_zero(self, tmp_path, capsys):
        trace = _write_trace(tmp_path, "ok.jsonl", duration=10e-6)
        targets = _write_targets(tmp_path)
        code = cava_main(["slo", targets, "--trace", trace])
        assert code == 0
        assert "SLO ok" in capsys.readouterr().out

    def test_breach_trace_exits_one(self, tmp_path, capsys):
        trace = _write_trace(tmp_path, "slow.jsonl", duration=5e-3)
        targets = _write_targets(tmp_path)
        code = cava_main(["slo", targets, "--trace", trace])
        assert code == 1
        assert "SLO BREACH" in capsys.readouterr().out

    def test_json_output_parses(self, tmp_path, capsys):
        trace = _write_trace(tmp_path, "slow.jsonl", duration=5e-3)
        targets = _write_targets(tmp_path)
        assert cava_main(["slo", targets, "--trace", trace,
                          "--json"]) == 1
        result = json.loads(capsys.readouterr().out)
        assert result["breached"] is True
        assert result["breaches"] >= 1
        assert result["events"][0]["vm"] == "vm-t"

    def test_bench_mode_gates(self, tmp_path, capsys):
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps({"rows": [
            {"load_factor": 0.5, "compliant_fraction": 0.99},
            {"load_factor": 1.5, "compliant_fraction": 0.30},
        ]}))
        targets = tmp_path / "targets.json"
        targets.write_text(json.dumps({
            "targets": [{"name": "t"}],
            "bench_gates": [
                {"max_load": 1.0, "min_compliant_fraction": 0.9},
                {"min_load": 1.4, "min_compliant_fraction": 0.4},
            ],
        }))
        code = cava_main(["slo", str(targets), "--bench", str(bench),
                          "--json"])
        assert code == 1
        result = json.loads(capsys.readouterr().out)
        assert [g["pass"] for g in result["gates"]] == [True, False]

    def test_gate_matching_no_rows_fails(self, tmp_path, capsys):
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps({"rows": [
            {"load_factor": 0.5, "compliant_fraction": 0.99},
        ]}))
        targets = tmp_path / "targets.json"
        targets.write_text(json.dumps({
            "targets": [{"name": "t"}],
            "bench_gates": [{"min_load": 3.0,
                             "min_compliant_fraction": 0.1}],
        }))
        assert cava_main(["slo", str(targets),
                          "--bench", str(bench)]) == 1

    def test_usage_errors_exit_two(self, tmp_path, capsys):
        trace = _write_trace(tmp_path, "ok.jsonl", duration=10e-6)
        targets = _write_targets(tmp_path)
        # neither / both modes
        assert cava_main(["slo", targets]) == 2
        assert cava_main(["slo", targets, "--trace", trace,
                          "--bench", trace]) == 2
        # missing and malformed files
        assert cava_main(["slo", str(tmp_path / "absent.json"),
                          "--trace", trace]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert cava_main(["slo", str(bad), "--trace", trace]) == 2
        capsys.readouterr()

    def test_shipped_gate_passes_on_stored_bench(self, capsys):
        base = os.path.join(os.path.dirname(__file__), os.pardir,
                            "benchmarks")
        code = cava_main([
            "slo", os.path.join(base, "slo_targets.json"),
            "--bench", os.path.join(base, "BENCH_overload.json"),
        ])
        assert code == 0
        assert "SLO ok" in capsys.readouterr().out


class TestBitIdentity:
    """The default stack reproduces BENCH_figure5.json bit for bit: with
    no sanitizer, SLO monitor, batching, transfer cache or migration
    armed, the code behind each costs nothing."""

    def test_figure5_reproduces_stored_json_exactly(
            self, figure5_matches_stored):
        from repro.harness import run_figure5

        figure5_matches_stored(run_figure5())
