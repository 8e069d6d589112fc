"""Counters and latency histograms derived from completed spans.

The :class:`MetricsRegistry` is the aggregate view over the tracer's
span stream: per-VM / per-function call counts, error counts, sync/async
split, payload bytes, retries and latency distributions, plus per-layer
span counts.  It holds only what it derives from spans.  Every other
counter has exactly one live store, read where it lives: the router's
per-VM record (``router.metrics_for(vm)``: rejections, rate delay,
resource estimates, transfer-cache hits), the guest runtimes'
``retries``/``giveups``, the SLO monitor's breaches, and the pool
members' native devices (busy time) — ``Hypervisor.admin_report()``
renders them together.

Layer attribution uses *self time* (a span's duration minus its direct
children's), so nested spans of the same layer — the ``dispatch`` span
around a server stub span — are not double counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Iterable, List, Optional

from repro.telemetry.histogram import LogHistogram
from repro.telemetry.tracer import Span


def percentile(samples: List[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``samples`` by linear interpolation."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(math.floor(position))
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction


def _pow2_us_label(seconds: float) -> str:
    micros = seconds * 1e6
    if micros <= 1.0:
        return "<=1us"
    exponent = math.ceil(math.log2(micros))
    return f"<={2 ** exponent}us"


class LatencyHistogram:
    """A latency distribution: exact while small, streaming beyond.

    Every sample is folded into a :class:`LogHistogram` (O(1),
    bounded memory, exact ``merge`` across VMs/devices/functions).  The
    first ``exact_limit`` raw samples are additionally kept verbatim so
    small distributions answer quantiles exactly (linear interpolation,
    the seed's convention); past the limit the raw list is dropped and
    quantiles come from the log-bucketed histogram, within its
    documented relative-error bound (see
    :mod:`repro.telemetry.histogram`).
    """

    #: raw samples kept before degrading to streaming-only; below
    #: this, quantiles are exact (interpolated), above it they come from
    #: the log-bucketed histogram within its documented error bound
    exact_limit = 512

    __slots__ = ("histogram", "samples")

    def __init__(self) -> None:
        self.histogram = LogHistogram()
        #: raw samples, or None once the exact path has been spilled
        self.samples: Optional[List[float]] = []

    def record(self, seconds: float) -> None:
        if seconds < 0.0:
            seconds = 0.0
        self.histogram.record(seconds)
        if self.samples is not None:
            self.samples.append(seconds)
            if len(self.samples) > self.exact_limit:
                self.samples = None

    @property
    def exact(self) -> bool:
        """True while quantiles are computed from raw samples."""
        return self.samples is not None

    @property
    def count(self) -> int:
        return self.histogram.count

    @property
    def total(self) -> float:
        return self.histogram.total

    @property
    def mean(self) -> float:
        return self.histogram.mean

    @property
    def max(self) -> float:
        return self.histogram.max

    def quantile(self, q: float) -> float:
        if self.samples is not None:
            return percentile(self.samples, q)
        return self.histogram.quantile(q)

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold ``other`` in; bucket counts merge exactly.  Returns self.

        The exact path survives only while the combined sample count
        stays within ``exact_limit``; otherwise the merged histogram
        answers quantiles from the (exactly merged) bucket counts.
        """
        self.histogram.merge(other.histogram)
        if (self.samples is not None and other.samples is not None
                and len(self.samples) + len(other.samples)
                <= self.exact_limit):
            self.samples.extend(other.samples)
        else:
            self.samples = None
        return self

    @classmethod
    def merged(
        cls, histograms: Iterable["LatencyHistogram"]
    ) -> "LatencyHistogram":
        result = cls()
        for histogram in histograms:
            result.merge(histogram)
        return result

    def buckets(self) -> Dict[str, int]:
        """Counts per power-of-two microsecond bucket (``<=1us`` ...).

        Exact while raw samples are held; afterwards each log-bucket's
        count lands in the power-of-two bucket of its representative
        value (geometric midpoint) — same labels, bounded memory.
        """
        counts: Dict[str, int] = {}
        if self.samples is not None:
            for seconds in self.samples:
                label = _pow2_us_label(seconds)
                counts[label] = counts.get(label, 0) + 1
            return counts
        log = self.histogram
        if log.underflow:
            counts["<=1us"] = log.underflow
        for index in sorted(log.counts):
            low, high = log._bucket_bounds(index)
            label = _pow2_us_label(math.sqrt(low * high))
            counts[label] = counts.get(label, 0) + log.counts[index]
        return counts


@dataclass
class FunctionMetrics:
    """Per-(VM, function) aggregate derived from ``function`` spans."""

    function: str
    calls: int = 0
    errors: int = 0
    sync_calls: int = 0
    async_calls: int = 0
    payload_bytes: int = 0
    #: retransmissions of this function's timed-out frames
    retries: int = 0
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)

    @property
    def total_time(self) -> float:
        return self.latency.total


@dataclass
class VMTelemetry:
    """Per-VM aggregate across all of that VM's functions and layers."""

    vm_id: str
    functions: Dict[str, FunctionMetrics] = field(default_factory=dict)
    #: layer → span count (completed op spans attributed to this VM)
    layer_spans: Dict[str, int] = field(default_factory=dict)

    def function_metrics(self, function: str) -> FunctionMetrics:
        entry = self.functions.get(function)
        if entry is None:
            entry = self.functions[function] = FunctionMetrics(function)
        return entry

    @property
    def calls(self) -> int:
        return sum(f.calls for f in self.functions.values())

    @property
    def errors(self) -> int:
        return sum(f.errors for f in self.functions.values())

    @property
    def total_time(self) -> float:
        return sum(f.total_time for f in self.functions.values())


class MetricsRegistry:
    """Aggregates completed spans into per-VM / per-function metrics.

    Attach to a tracer (``Tracer(metrics=registry)``) for streaming
    ingestion, or build one after the fact with :meth:`from_spans`.
    """

    def __init__(self) -> None:
        self.vms: Dict[str, VMTelemetry] = {}

    def vm(self, vm_id: str) -> VMTelemetry:
        entry = self.vms.get(vm_id)
        if entry is None:
            entry = self.vms[vm_id] = VMTelemetry(vm_id)
        return entry

    def ingest(self, span: Span) -> None:
        """Fold one completed span into the aggregates."""
        if span.vm_id is None or not span.finished:
            return
        entry = self.vm(span.vm_id)
        if span.kind == "function":
            stats = entry.function_metrics(span.name)
            stats.calls += 1
            stats.latency.record(span.duration)
            if span.attrs.get("error"):
                stats.errors += 1
            mode = span.attrs.get("mode")
            if mode == "async":
                stats.async_calls += 1
            elif mode == "sync":
                stats.sync_calls += 1
            stats.payload_bytes += int(span.attrs.get("payload_bytes", 0))
        elif span.kind == "op":
            entry.layer_spans[span.layer] = (
                entry.layer_spans.get(span.layer, 0) + 1
            )
            if span.name == "retry" and span.function:
                entry.function_metrics(span.function).retries += 1

    @classmethod
    def from_spans(cls, spans: Iterable[Span]) -> "MetricsRegistry":
        registry = cls()
        for span in spans:
            registry.ingest(span)
        return registry


# ---------------------------------------------------------------------------
# span-tree time attribution
# ---------------------------------------------------------------------------


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Each span's *self* time: duration minus direct children's.

    Clipped at zero — overlapping children (an in-order device absorbing
    a queued op early) cannot make a parent's own time negative.
    """
    materialized = [s for s in spans if s.finished]
    child_total: Dict[Optional[int], float] = {}
    for span in materialized:
        child_total[span.parent_id] = (
            child_total.get(span.parent_id, 0.0) + span.duration
        )
    return {
        span.span_id: max(0.0, span.duration
                          - child_total.get(span.span_id, 0.0))
        for span in materialized
    }


def breakdown(
    spans: Iterable[Span],
    key: Callable[[Span], Hashable],
) -> Dict[Hashable, float]:
    """Self time summed by an arbitrary span key.

    ``breakdown(spans, lambda s: (s.vm_id, s.layer))`` answers "where
    did each VM's virtual time go, per layer" without double counting
    nested spans.  Container spans (``vm``/``api``) are excluded — they
    overlap everything.
    """
    materialized = [
        s for s in spans if s.finished and s.kind not in ("vm", "api")
    ]
    own = self_times(materialized)
    result: Dict[Hashable, float] = {}
    for span in materialized:
        bucket = key(span)
        result[bucket] = result.get(bucket, 0.0) + own[span.span_id]
    return result
