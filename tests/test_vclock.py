"""Unit tests for the virtual clock."""

import pytest

from repro.vclock import ClockError, VirtualClock


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
