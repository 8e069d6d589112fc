"""Streaming log-bucketed histograms with bounded memory.

The seed's :class:`~repro.telemetry.metrics.LatencyHistogram` kept every
raw sample in a Python list — unbounded memory for long runs and no way
to combine distributions recorded on different VMs, devices or
functions.  :class:`LogHistogram` replaces that storage with a fixed
*sub-buckets-per-decade* layout (the HdrHistogram/DDSketch family),
the same for every histogram:

* **O(1) record** — one ``log10`` and a dict increment per sample,
* **bounded memory** — at most ``buckets_per_decade`` entries per decade
  of observed dynamic range (sparse: only touched buckets exist),
* **exact merge** — two histograms merge by adding per-bucket counts;
  merging then querying is *identical* to having
  recorded every sample into one histogram, which is what makes per-VM
  histograms aggregable across VMs/devices/functions,
* **documented quantile error** — see below.

Quantile error bound
--------------------

Bucket ``i`` covers ``[min_value * 10^(i/B), min_value * 10^((i+1)/B))``
where ``B = buckets_per_decade``; adjacent bucket bounds differ by the
fixed ratio ``10^(1/B)``.  :meth:`quantile` locates the bucket holding
the nearest-rank sample and answers with the bucket's geometric
midpoint, clamped to the exact observed ``[min, max]``.  The estimate
can therefore differ from the true nearest-rank sample by at most one
sub-bucket of relative width:

    relative error <= 10^(1/B) - 1        (RELATIVE_ERROR_BOUND)

which is ~2.6% at ``B = 90`` (the typical error is half that,
``10^(1/2B)) - 1`` ~ 1.3%, since samples land mid-bucket on
average).  Values at or below ``min_value`` (1 ns) share one
underflow bucket and are answered with the exact observed minimum —
an absolute error bound of ``min_value`` instead of a relative one.
``tests/test_histogram.py`` property-checks the bound against exact
percentiles on arbitrary sample sets, including across merges.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable


class HistogramError(Exception):
    """Invalid histogram operation (a negative sample or count)."""


class LogHistogram:
    """A streaming histogram over non-negative floats.

    ``buckets_per_decade`` and ``min_value`` define the one bucket
    layout, so any two histograms merge.
    """

    #: sub-buckets per decade (~2.6% worst-case quantile error)
    buckets_per_decade = 90
    #: smallest distinguishable value: 1 ns, far below any modeled
    #: latency in the cost model (microsecond scale)
    min_value = 1e-9

    __slots__ = ("counts", "underflow", "count", "total", "_min", "_max")

    def __init__(self) -> None:
        #: bucket index -> sample count (sparse)
        self.counts: Dict[int, int] = {}
        #: samples at or below ``min_value`` (including exact zeros)
        self.underflow = 0
        self.count = 0
        self.total = 0.0
        self._min = math.inf
        self._max = 0.0

    # -- recording -----------------------------------------------------------

    def _index(self, value: float) -> int:
        return math.floor(
            math.log10(value / self.min_value) * self.buckets_per_decade
        )

    def _bucket_bounds(self, index: int) -> tuple:
        base = self.buckets_per_decade
        low = self.min_value * 10.0 ** (index / base)
        high = self.min_value * 10.0 ** ((index + 1) / base)
        return low, high

    def record(self, value: float, count: int = 1) -> None:
        """Fold ``count`` observations of ``value`` in, O(1)."""
        if value < 0.0:
            raise HistogramError(f"cannot record negative value {value}")
        if count < 1:
            raise HistogramError(f"count must be >= 1, got {count}")
        self.count += count
        self.total += value * count
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if value <= self.min_value:
            self.underflow += count
            return
        index = self._index(value)
        self.counts[index] = self.counts.get(index, 0) + count

    # -- aggregates ----------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def min(self) -> float:
        return self._min if self.count else 0.0

    @property
    def max(self) -> float:
        return self._max

    @property
    def relative_error_bound(self) -> float:
        """Worst-case relative quantile error for this layout."""
        return 10.0 ** (1.0 / self.buckets_per_decade) - 1.0

    def quantile(self, q: float) -> float:
        """The nearest-rank ``q``-quantile estimate (0..1).

        Within ``relative_error_bound`` of the exact nearest-rank
        sample for values above ``min_value``; exact at the extremes
        (``q`` of 0/1 answer the tracked min/max).
        """
        if self.count == 0:
            return 0.0
        q = min(1.0, max(0.0, q))
        rank = max(0, min(self.count - 1, math.ceil(q * self.count) - 1))
        if rank < self.underflow:
            return min(self._min, self.min_value)
        cumulative = self.underflow
        for index in sorted(self.counts):
            cumulative += self.counts[index]
            if cumulative > rank:
                low, high = self._bucket_bounds(index)
                estimate = math.sqrt(low * high)
                return max(self._min, min(self._max, estimate))
        return self._max  # unreachable unless counters were tampered with

    def buckets(self) -> Dict[str, int]:
        """Human-readable (bound label -> count) view, low to high."""
        result: Dict[str, int] = {}
        if self.underflow:
            result[f"<={self.min_value:g}"] = self.underflow
        for index in sorted(self.counts):
            _low, high = self._bucket_bounds(index)
            result[f"<={high:.4g}"] = self.counts[index]
        return result

    # -- merge ---------------------------------------------------------------

    def merge(self, other: "LogHistogram") -> "LogHistogram":
        """Fold ``other`` into this histogram, exactly.

        The result is indistinguishable from having recorded every one
        of ``other``'s samples here (bucketization is deterministic),
        so merge order never matters and re-aggregation across
        VMs/devices/functions is lossless.  Returns ``self``.
        """
        for index, count in other.counts.items():
            self.counts[index] = self.counts.get(index, 0) + count
        self.underflow += other.underflow
        self.count += other.count
        self.total += other.total
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        return self

    @classmethod
    def merged(cls, histograms: Iterable["LogHistogram"]) -> "LogHistogram":
        """A fresh histogram equal to the merge of ``histograms``."""
        result = cls()
        for histogram in histograms:
            result.merge(histogram)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"LogHistogram(n={self.count}, "
                f"buckets={len(self.counts)}, mean={self.mean:g})")
