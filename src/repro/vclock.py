"""Deterministic virtual time.

Every timed component in the reproduction (guest VMs, transports, the
router, the simulated accelerators) charges costs against a
:class:`VirtualClock` rather than reading the wall clock.  This keeps the
benchmark harness deterministic across machines: the remoting stack really
runs (arguments are marshaled, routed, dispatched and executed), but the
*reported* durations come from explicit cost models.

Clocks form a small tree: a :class:`VirtualClock` may have named child
accounts (e.g. ``transport``, ``device``, ``marshal``) so reports can break
a run's total down by component.
"""

from __future__ import annotations

from typing import Dict


class ClockError(Exception):
    """Raised on invalid clock operations (e.g. moving time backwards)."""


class VirtualClock:
    """A monotonically advancing virtual clock with per-category accounting.

    Time is a float in virtual seconds.  ``advance`` moves the clock
    forward and attributes the elapsed interval to a category, so a
    run can later be decomposed (compute vs. transport vs. marshaling).
    """

    def __init__(self, name: str = "clock", start: float = 0.0) -> None:
        if start < 0:
            raise ClockError("clock cannot start before t=0")
        self.name = name
        self._now = float(start)
        self._accounts: Dict[str, float] = {}

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def advance(self, seconds: float, category: str = "other") -> float:
        """Move time forward by ``seconds``, billed to ``category``.

        Returns the new current time.  Negative durations are rejected;
        zero-length advances are permitted (and still recorded in the
        account so call counts remain inspectable).
        """
        if seconds < 0:
            raise ClockError(
                f"cannot advance clock {self.name!r} by {seconds} (< 0)"
            )
        self._now += seconds
        self._accounts[category] = self._accounts.get(category, 0.0) + seconds
        return self._now

    def advance_to(self, deadline: float, category: str = "wait") -> float:
        """Advance to an absolute time, if it is in the future.

        Used for synchronization: a guest waiting on a device completion
        jumps to the completion timestamp.  Advancing to a time already in
        the past is a no-op (the waiter was late, not the event).
        """
        if deadline > self._now:
            self.advance(deadline - self._now, category)
        return self._now

    def account(self, category: str) -> float:
        """Total virtual seconds billed to ``category``."""
        return self._accounts.get(category, 0.0)

    def accounts(self) -> Dict[str, float]:
        """A copy of the full category → seconds breakdown."""
        return dict(self._accounts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock({self.name!r}, now={self._now:.6f})"
