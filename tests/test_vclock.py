"""Unit tests for the virtual clock and cost model."""

import pytest

from repro.vclock import ClockError, CostModel, Stopwatch, VirtualClock, merge_max


class TestVirtualClock:
    def test_starts_at_zero(self):
        clock = VirtualClock()
        assert clock.now == 0.0

    def test_custom_start(self):
        clock = VirtualClock(start=5.0)
        assert clock.now == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(ClockError):
            VirtualClock(start=-1.0)

    def test_advance_moves_time(self):
        clock = VirtualClock()
        clock.advance(1.5)
        assert clock.now == 1.5
        clock.advance(0.5)
        assert clock.now == 2.0

    def test_advance_negative_rejected(self):
        clock = VirtualClock()
        with pytest.raises(ClockError):
            clock.advance(-0.1)

    def test_zero_advance_allowed(self):
        clock = VirtualClock()
        assert clock.advance(0.0) == 0.0

    def test_accounting_by_category(self):
        clock = VirtualClock()
        clock.advance(1.0, "transport")
        clock.advance(2.0, "device")
        clock.advance(0.5, "transport")
        assert clock.account("transport") == pytest.approx(1.5)
        assert clock.account("device") == pytest.approx(2.0)
        assert clock.account("missing") == 0.0

    def test_accounts_returns_copy(self):
        clock = VirtualClock()
        clock.advance(1.0, "x")
        snapshot = clock.accounts()
        snapshot["x"] = 99.0
        assert clock.account("x") == 1.0

    def test_advance_to_future(self):
        clock = VirtualClock()
        clock.advance_to(3.0)
        assert clock.now == 3.0
        assert clock.account("wait") == 3.0

    def test_advance_to_past_is_noop(self):
        clock = VirtualClock()
        clock.advance(5.0)
        clock.advance_to(3.0)
        assert clock.now == 5.0

    def test_tracing_records_events(self):
        clock = VirtualClock()
        with clock.tracing() as events:
            clock.advance(1.0, "a")
            clock.advance(2.0, "b")
        assert events == [(1.0, "a"), (3.0, "b")]
        clock.advance(1.0, "c")
        assert len(events) == 2  # tracing stopped


class TestCostModel:
    def test_forward_cost_monotone_in_bytes(self):
        model = CostModel()
        assert model.forward_cost(1000) > model.forward_cost(0)

    def test_forward_includes_router(self):
        model = CostModel()
        assert model.forward_cost(0) - model.return_cost(0) == pytest.approx(
            model.router_cost
        )

    def test_negative_bytes_rejected(self):
        model = CostModel()
        with pytest.raises(ValueError):
            model.forward_cost(-1)
        with pytest.raises(ValueError):
            model.return_cost(-1)

    def test_scaled_multiplies_remoting_costs(self):
        model = CostModel()
        doubled = model.scaled(2.0)
        assert doubled.transport_latency == pytest.approx(
            2 * model.transport_latency
        )
        assert doubled.native_call_overhead == model.native_call_overhead

    def test_scaled_rejects_negative(self):
        with pytest.raises(ValueError):
            CostModel().scaled(-1.0)


class TestStopwatchAndMerge:
    def test_stopwatch_measures_interval(self):
        clock = VirtualClock()
        watch = Stopwatch(clock).start()
        clock.advance(2.5)
        assert watch.elapsed() == pytest.approx(2.5)

    def test_stopwatch_requires_start(self):
        with pytest.raises(ClockError):
            Stopwatch(VirtualClock()).elapsed()

    def test_merge_max(self):
        a = VirtualClock()
        b = VirtualClock()
        a.advance(1.0)
        b.advance(4.0)
        assert merge_max(a, b) == 4.0

    def test_merge_max_empty_rejected(self):
        with pytest.raises(ClockError):
            merge_max()
