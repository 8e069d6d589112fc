"""The streaming log-bucketed histogram: units + property tests.

The property tests are the acceptance criterion for the quantile
machinery: on arbitrary sample sets — including across merges — the
histogram's nearest-rank quantile estimate must stay within the
documented relative-error bound of the exact nearest-rank percentile.
"""

import math

import pytest

from repro.telemetry.histogram import HistogramError, LogHistogram
from repro.telemetry.metrics import LatencyHistogram, percentile

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is a dev dependency
    HAVE_HYPOTHESIS = False

needs_hypothesis = pytest.mark.skipif(
    not HAVE_HYPOTHESIS, reason="hypothesis not installed"
)


def exact_nearest_rank(samples, q):
    """The oracle: the sample at the nearest-rank position."""
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1,
                      math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


def assert_within_bound(histogram, samples, q):
    exact = exact_nearest_rank(samples, q)
    estimate = histogram.quantile(q)
    if exact <= histogram.min_value:
        # underflow bucket: absolute error bounded by min_value
        assert abs(estimate - exact) <= histogram.min_value
    else:
        bound = histogram.relative_error_bound
        assert abs(estimate - exact) <= bound * exact + 1e-300, (
            f"q={q}: estimate {estimate} vs exact {exact} "
            f"(bound {bound})"
        )


class TestLogHistogram:
    def test_empty(self):
        h = LogHistogram()
        assert h.count == 0
        assert h.quantile(0.5) == 0.0
        assert h.mean == 0.0
        assert h.min == 0.0
        assert h.max == 0.0
        assert h.buckets() == {}

    def test_record_is_bounded_memory(self):
        h = LogHistogram()
        for i in range(100000):
            h.record(1e-6 * (1 + (i % 1000)))
        # 3 decades of dynamic range
        assert len(h.counts) <= 3 * LogHistogram.buckets_per_decade + 1
        assert h.count == 100000

    def test_exact_count_total_min_max(self):
        h = LogHistogram()
        values = [3e-6, 7e-5, 2e-4, 3e-6, 1e-2]
        for v in values:
            h.record(v)
        assert h.count == len(values)
        assert h.total == pytest.approx(sum(values))
        assert h.mean == pytest.approx(sum(values) / len(values))
        assert h.min == pytest.approx(3e-6)
        assert h.max == pytest.approx(1e-2)

    def test_zero_and_underflow(self):
        h = LogHistogram()
        h.record(0.0)
        h.record(5e-10)  # below min_value
        h.record(1e-3)
        assert h.underflow == 2
        assert h.quantile(0.0) == pytest.approx(0.0, abs=h.min_value)
        assert h.quantile(1.0) == pytest.approx(1e-3, rel=1e-9)

    def test_negative_rejected(self):
        with pytest.raises(HistogramError):
            LogHistogram().record(-1.0)

    def test_weighted_record(self):
        h = LogHistogram()
        h.record(1e-4, count=10)
        assert h.count == 10
        assert h.total == pytest.approx(1e-3)

    def test_quantile_extremes_clamped_to_observed(self):
        h = LogHistogram()
        for v in (2e-5, 4e-5, 8e-5):
            h.record(v)
        assert h.quantile(0.0) >= h.min
        assert h.quantile(1.0) <= h.max

    def test_documented_bound_value(self):
        h = LogHistogram()
        assert h.buckets_per_decade == 90
        assert h.relative_error_bound == pytest.approx(
            10 ** (1 / 90) - 1
        )
        assert h.relative_error_bound < 0.026

    def test_merge_is_exact(self):
        a, b = LogHistogram(), LogHistogram()
        combined = LogHistogram()
        values = [1e-6 * (1.7 ** i) for i in range(40)]
        for i, v in enumerate(values):
            (a if i % 2 else b).record(v)
            combined.record(v)
        a.merge(b)
        assert a.counts == combined.counts
        assert a.count == combined.count
        assert a.underflow == combined.underflow
        assert a.min == combined.min
        assert a.max == combined.max
        assert a.total == pytest.approx(combined.total)

    def test_merged_classmethod_empty(self):
        assert LogHistogram.merged([]).count == 0

    def test_buckets_labels_ascending(self):
        h = LogHistogram()
        for v in (1e-10, 2e-6, 3e-3):
            h.record(v)
        labels = list(h.buckets())
        assert len(labels) == 3
        assert labels[0].startswith("<=1e-09")


class TestLatencyHistogram:
    def test_exact_small_n_matches_percentile(self):
        lh = LatencyHistogram()
        samples = [1e-6, 5e-6, 9e-6, 2e-5]
        for s in samples:
            lh.record(s)
        assert lh.exact
        for q in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert lh.quantile(q) == percentile(samples, q)

    def test_spills_to_streaming_past_limit(self):
        lh = LatencyHistogram()
        for i in range(513):
            lh.record(1e-6 * (i + 1))
        assert not lh.exact
        assert lh.count == 513
        # quantiles now come from the histogram, within its bound
        assert lh.quantile(0.5) == pytest.approx(257e-6, rel=0.03)

    def test_default_limit(self):
        assert LatencyHistogram.exact_limit == 512

    def test_negative_clamped(self):
        lh = LatencyHistogram()
        lh.record(-1e-9)
        assert lh.count == 1
        assert lh.max == 0.0

    def test_merge_keeps_exact_when_small(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        a.record(1e-6)
        b.record(3e-6)
        a.merge(b)
        assert a.exact
        assert a.count == 2
        assert a.quantile(0.5) == percentile([1e-6, 3e-6], 0.5)

    def test_merge_spills_when_combined_large(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        for i in range(257):
            a.record(1e-6 * (i + 1))
        for i in range(256):
            b.record(1e-5 * (i + 1))
        assert a.exact and b.exact
        a.merge(b)
        assert not a.exact
        assert a.count == 513

    def test_count_mean_max_from_histogram(self):
        lh = LatencyHistogram()
        for s in (1e-6, 2e-6, 3e-6, 6e-6) * 129:
            lh.record(s)
        assert not lh.exact
        assert lh.count == 516
        assert lh.mean == pytest.approx(3e-6)
        assert lh.max == pytest.approx(6e-6)

    def test_buckets_exact_path_pow2_labels(self):
        lh = LatencyHistogram()
        for s in (0.5e-6, 1.5e-6, 3e-6, 120e-6):
            lh.record(s)
        buckets = lh.buckets()
        assert buckets["<=1us"] == 1
        assert buckets["<=2us"] == 1
        assert buckets["<=4us"] == 1
        assert buckets["<=128us"] == 1

    def test_buckets_streaming_path_same_labels(self):
        lh = LatencyHistogram()
        for s in (0.5e-6, 1.5e-6, 3e-6, 120e-6) * 129:
            lh.record(s)
        assert not lh.exact
        buckets = lh.buckets()
        assert set(buckets) == {"<=1us", "<=2us", "<=4us", "<=128us"}
        assert sum(buckets.values()) == 516


@needs_hypothesis
class TestQuantileProperties:
    """Histogram quantiles vs exact percentiles on arbitrary samples."""

    # latencies across 9 orders of magnitude, plus exact zeros
    latency = st.one_of(
        st.floats(min_value=1e-9, max_value=10.0,
                  allow_nan=False, allow_infinity=False),
        st.just(0.0),
    )
    quantile = st.floats(min_value=0.0, max_value=1.0,
                         allow_nan=False)

    @given(samples=st.lists(latency, min_size=1, max_size=300),
           q=quantile)
    @settings(max_examples=200, deadline=None)
    def test_quantile_within_documented_bound(self, samples, q):
        h = LogHistogram()
        for s in samples:
            h.record(s)
        assert_within_bound(h, samples, q)

    @given(left=st.lists(latency, min_size=1, max_size=150),
           right=st.lists(latency, min_size=1, max_size=150),
           q=quantile)
    @settings(max_examples=200, deadline=None)
    def test_merged_quantile_within_bound(self, left, right, q):
        a, b = LogHistogram(), LogHistogram()
        for s in left:
            a.record(s)
        for s in right:
            b.record(s)
        a.merge(b)
        assert_within_bound(a, left + right, q)

    @given(left=st.lists(latency, min_size=0, max_size=100),
           right=st.lists(latency, min_size=0, max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_merge_equals_recording_everything_here(self, left, right):
        a, b = LogHistogram(), LogHistogram()
        combined = LogHistogram()
        for s in left:
            a.record(s)
            combined.record(s)
        for s in right:
            b.record(s)
            combined.record(s)
        a.merge(b)
        assert a.counts == combined.counts
        assert a.underflow == combined.underflow
        assert a.count == combined.count

    # repeating a drawn set straddles the exact limit (512), so both
    # paths are drawn
    @given(distinct=st.lists(latency, min_size=1, max_size=100),
           copies=st.integers(min_value=1, max_value=600),
           q=quantile)
    @settings(max_examples=100, deadline=None)
    def test_latency_histogram_bound_after_spill(self, distinct, copies, q):
        samples = distinct * copies
        lh = LatencyHistogram()
        for s in samples:
            lh.record(s)
        if lh.exact:
            # exact path: interpolated convention, matches percentile()
            assert lh.quantile(q) == percentile(samples, q)
        else:
            assert_within_bound(lh.histogram, samples, q)
