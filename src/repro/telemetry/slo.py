"""Service-level objectives over the virtual clock.

An :class:`SLOTarget` names a population of requests (per-VM and
per-function ``fnmatch`` patterns) and what "good" means for it: a
latency threshold, error-free completion, or both.  The fraction of
good requests must stay at or above ``objective``; the complement
``1 - objective`` is the **error budget**.

The :class:`SLOMonitor` evaluates targets continuously with
multi-window **burn rates** (the Google SRE alerting construction): a
window's burn rate is ``bad_fraction / error_budget`` — 1.0 means the
budget is being consumed exactly at the sustainable rate, 10 means ten
times too fast.  Each :class:`BurnRateWindow` pairs a *long* window
(evidence the problem is real) with a *short* window (evidence it is
still happening); a breach fires only when **both** exceed
``max_burn_rate``, and re-arms once the long window recovers, so a
single burst raises one event rather than a stream.

All windows are measured in *virtual* seconds on the deterministic
clock, so SLO evaluation is reproducible run-to-run.  Recording is
O(#matching targets) amortized per request (the targets a (VM,
function) pair matches are remembered; one outcome log per target and
VM, with a cursor and running counts per window, no re-scans), cheap
enough to leave on under load sweeps.
"""

from __future__ import annotations

import fnmatch
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


class SLOError(Exception):
    """Invalid SLO target or target-file contents."""


@dataclass(frozen=True)
class BurnRateWindow:
    """A (long, short) window pair with its burn-rate threshold."""

    long_window: float
    short_window: float
    max_burn_rate: float

    def __post_init__(self) -> None:
        if self.long_window <= 0 or self.short_window <= 0:
            raise SLOError("burn-rate windows must be positive")
        if self.short_window > self.long_window:
            raise SLOError(
                f"short window {self.short_window} exceeds long window "
                f"{self.long_window}"
            )
        if self.max_burn_rate <= 0:
            raise SLOError("max_burn_rate must be positive")


#: default window pairs, in virtual seconds: a fast-burn pair that
#: catches sharp regressions and a slow-burn pair for sustained leaks
#: (the classic 1h/5m + 6h/30m ladder, scaled to virtual-run length)
DEFAULT_WINDOWS: Tuple[BurnRateWindow, ...] = (
    BurnRateWindow(long_window=0.100, short_window=0.010,
                   max_burn_rate=10.0),
    BurnRateWindow(long_window=0.500, short_window=0.050,
                   max_burn_rate=2.0),
)


@dataclass(frozen=True)
class SLOTarget:
    """What a population of requests promises.

    A request is *good* when it completed without error and, if
    ``latency`` is set, within ``latency`` virtual seconds.  At least
    ``objective`` of requests must be good.
    """

    name: str
    vm: str = "*"
    function: str = "*"
    #: latency threshold in virtual seconds (None: error-rate only)
    latency: Optional[float] = None
    objective: float = 0.999
    windows: Tuple[BurnRateWindow, ...] = DEFAULT_WINDOWS

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise SLOError(
                f"objective must be in (0, 1), got {self.objective}"
            )
        if self.latency is not None and self.latency <= 0:
            raise SLOError("latency threshold must be positive")
        if not self.windows:
            raise SLOError(f"target {self.name!r} has no windows")

    @property
    def error_budget(self) -> float:
        return 1.0 - self.objective

    def matches(self, vm_id: str, function: str) -> bool:
        return (fnmatch.fnmatchcase(vm_id, self.vm)
                and fnmatch.fnmatchcase(function or "", self.function))

    def is_good(self, latency: float, error: bool) -> bool:
        if error:
            return False
        return self.latency is None or latency <= self.latency


@dataclass
class BreachEvent:
    """One SLO breach: both windows of a pair burned too fast."""

    time: float
    target: str
    vm_id: str
    window: BurnRateWindow
    burn_long: float
    burn_short: float


class _SlidingWindow:
    """Good/bad counts over the trailing ``span`` virtual seconds;
    ``cursor`` indexes the oldest outcome of its state's log inside."""

    __slots__ = ("span", "cursor", "total", "bad")

    def __init__(self, span: float) -> None:
        self.span = span
        self.cursor = 0
        self.total = 0
        self.bad = 0


#: a log drops the outcomes every window has left once this many pile up
_LOG_TRIM = 256
#: (VM, function) pairs whose matching targets a monitor remembers
_MATCH_MEMO = 4096


class _TargetState:
    """Per-(target, VM) burn-rate state.

    One outcome log serves every window of the target: each window
    keeps a cursor into it and running counts, so an observation
    appends once and slides each window past what it no longer covers.
    """

    __slots__ = ("target", "vm_id", "windows", "armed", "good", "total",
                 "log", "base")

    def __init__(self, target: SLOTarget, vm_id: str) -> None:
        self.target = target
        self.vm_id = vm_id
        # per pair: (long window, short window)
        self.windows: List[Tuple[_SlidingWindow, _SlidingWindow]] = [
            (_SlidingWindow(w.long_window), _SlidingWindow(w.short_window))
            for w in target.windows
        ]
        self.armed = [True] * len(target.windows)
        self.good = 0
        self.total = 0
        #: (time, good) outcomes from index ``base`` on
        self.log: List[Tuple[float, bool]] = []
        self.base = 0

    def observe(self, now: float, good: bool) -> List[BreachEvent]:
        self.total += 1
        if good:
            self.good += 1
        log, base = self.log, self.base
        log.append((now, good))
        budget = self.target.error_budget
        events: List[BreachEvent] = []
        oldest = base + len(log)
        for i, pair in enumerate(self.target.windows):
            burns = []
            for window in self.windows[i]:
                window.total += 1
                if not good:
                    window.bad += 1
                # the outcome just logged is never past its own horizon
                horizon = now - window.span
                cursor = window.cursor
                while log[cursor - base][0] < horizon:
                    if not log[cursor - base][1]:
                        window.bad -= 1
                    window.total -= 1
                    cursor += 1
                window.cursor = cursor
                oldest = min(oldest, cursor)
                burns.append(window.bad / window.total / budget)
            burn_long, burn_short = burns
            firing = (burn_long > pair.max_burn_rate
                      and burn_short > pair.max_burn_rate)
            if firing and self.armed[i]:
                self.armed[i] = False
                events.append(BreachEvent(
                    time=now, target=self.target.name, vm_id=self.vm_id,
                    window=pair, burn_long=burn_long,
                    burn_short=burn_short,
                ))
            elif not firing and burn_long <= pair.max_burn_rate:
                # long window recovered: re-arm for the next episode
                self.armed[i] = True
        if oldest - base >= _LOG_TRIM:
            del log[:oldest - base]
            self.base = oldest
        return events


class SLOMonitor:
    """Streams request outcomes through a set of :class:`SLOTarget`.

    Call :meth:`record` once per completed request with the request's
    virtual completion time; breach events accumulate in
    :attr:`events` and are pushed to registered callbacks (and, when a
    flight recorder is active, raised as post-mortem incidents).
    """

    def __init__(self, targets: Iterable[SLOTarget]) -> None:
        self.targets = list(targets)
        self.events: List[BreachEvent] = []
        self._states: Dict[Tuple[int, str], _TargetState] = {}
        #: (vm_id, function) → the states of the targets it matches
        self._matched: Dict[Tuple[str, str], List[_TargetState]] = {}
        self._callbacks: List[Callable[[BreachEvent], None]] = []

    def on_breach(self, callback: Callable[[BreachEvent], None]) -> None:
        self._callbacks.append(callback)

    def record(self, vm_id: str, function: str, latency: float,
               error: bool, now: float) -> List[BreachEvent]:
        """Observe one completed request; returns any new breaches."""
        states = self._matched.get((vm_id, function))
        if states is None:
            # matched once per pair; the memo is bounded, since both
            # names can come from untrusted frames
            if len(self._matched) >= _MATCH_MEMO:
                self._matched.clear()
            states = self._matched[(vm_id, function)] = [
                self._states.setdefault((index, vm_id),
                                        _TargetState(target, vm_id))
                for index, target in enumerate(self.targets)
                if target.matches(vm_id, function)]
        raised: List[BreachEvent] = []
        for state in states:
            raised.extend(state.observe(
                now, state.target.is_good(latency, error)))
        if raised:
            self.events.extend(raised)
            for event in raised:
                for callback in self._callbacks:
                    callback(event)
                self._flightrec_incident(event)
        return raised

    def forget(self, vm_id: str) -> None:
        """Drop ``vm_id``'s target states (a recycled id starts from
        zero); its breach :attr:`events` stay, as history."""
        for key in [key for key in self._states if key[1] == vm_id]:
            del self._states[key]
        self._matched.clear()

    def _flightrec_incident(self, event: BreachEvent) -> None:
        from repro.telemetry import flightrec

        recorder = flightrec.active()
        if recorder.enabled:
            recorder.incident(
                "slo-breach", now=event.time, target=event.target,
                vm_id=event.vm_id, burn_long=event.burn_long,
                burn_short=event.burn_short,
            )

    # -- reporting -----------------------------------------------------------

    def breaches_by_vm(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.vm_id] = counts.get(event.vm_id, 0) + 1
        return counts

    @property
    def breached(self) -> bool:
        return bool(self.events)

    def summary(self) -> List[Dict[str, Any]]:
        """Per-(target, VM) lifetime compliance + breach counts."""
        rows: List[Dict[str, Any]] = []
        for (index, vm_id), state in sorted(
                self._states.items(), key=lambda kv: (kv[0][0], kv[0][1])):
            target = self.targets[index]
            breaches = sum(
                1 for e in self.events
                if e.target == target.name and e.vm_id == vm_id
            )
            rows.append({
                "target": target.name,
                "vm": vm_id,
                "objective": target.objective,
                "total": state.total,
                "good": state.good,
                "good_fraction": (state.good / state.total
                                  if state.total else 1.0),
                "compliant": (state.total == 0
                              or state.good / state.total
                              >= target.objective),
                "breaches": breaches,
            })
        return rows


# ---------------------------------------------------------------------------
# target files and offline evaluation
# ---------------------------------------------------------------------------


def _parse_window(data: Dict[str, Any]) -> BurnRateWindow:
    try:
        return BurnRateWindow(
            long_window=float(data["long"]),
            short_window=float(data["short"]),
            max_burn_rate=float(data["max_burn_rate"]),
        )
    except (KeyError, TypeError, ValueError) as err:
        raise SLOError(f"malformed burn-rate window {data!r}: {err}") from err


def parse_slo_targets(data: Dict[str, Any]) -> List[SLOTarget]:
    """Build targets from a parsed target-file dict (see docs)."""
    raw_targets = data.get("targets")
    if not isinstance(raw_targets, list) or not raw_targets:
        raise SLOError('target file needs a non-empty "targets" list')
    targets: List[SLOTarget] = []
    for raw in raw_targets:
        if not isinstance(raw, dict) or "name" not in raw:
            raise SLOError(f'target entry missing "name": {raw!r}')
        latency = None
        if raw.get("latency_us") is not None:
            latency = float(raw["latency_us"]) * 1e-6
        windows = DEFAULT_WINDOWS
        if raw.get("windows"):
            windows = tuple(_parse_window(w) for w in raw["windows"])
        targets.append(SLOTarget(
            name=str(raw["name"]),
            vm=str(raw.get("vm", "*")),
            function=str(raw.get("function", "*")),
            latency=latency,
            objective=float(raw.get("objective", 0.999)),
            windows=windows,
        ))
    return targets


def load_slo_targets(path: str) -> List[SLOTarget]:
    """Parse a JSON SLO target file into :class:`SLOTarget` objects."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as err:
            raise SLOError(f"{path}: not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise SLOError(f"{path}: target file must be a JSON object")
    return parse_slo_targets(data)


def evaluate_trace(spans: Iterable[Any],
                   targets: Iterable[SLOTarget]) -> SLOMonitor:
    """Replay a recorded trace's function spans through a fresh monitor.

    Spans are replayed in completion order, which is what the sliding
    windows assume; container (vm/api) and op spans are skipped.
    """
    monitor = SLOMonitor(targets)
    completed = [
        s for s in spans
        if s.finished and s.kind == "function" and s.vm_id is not None
    ]
    completed.sort(key=lambda s: s.end)
    for span in completed:
        monitor.record(
            vm_id=span.vm_id,
            function=span.name,
            latency=span.duration,
            error=bool(span.attrs.get("error")),
            now=span.end,
        )
    return monitor
