"""Tests for the full-virtualization model and the measurement harness."""

import pytest

from repro.fullvirt import (
    FullVirtEstimate,
    TrapModel,
    estimate_fullvirt,
    summarize,
)
from repro.harness.report import format_figure5, format_table
from repro.harness.runner import (
    FigureFiveRow,
    Measurement,
    run_figure5,
    run_native,
    run_virtualized,
)
from repro.workloads import GaussianWorkload, NNWorkload


def measurement(name="w", mode="native", runtime=1.0, **kwargs):
    return Measurement(name=name, mode=mode, runtime=runtime, verified=True,
                       **kwargs)


class TestTrapModel:
    def test_estimate_counts_call_and_data_traps(self):
        native = measurement(runtime=1e-3)
        ava = measurement(mode="ava", runtime=1.1e-3, calls_sync=10,
                          calls_async=90)
        model = TrapModel(trap_cost=10e-6, traps_per_call=10,
                          bar_window_bytes=4096)
        estimate = estimate_fullvirt(native, ava, payload_bytes=40960,
                                     model=model)
        assert estimate.traps == 100 * 10 + 10
        assert estimate.fullvirt_runtime == pytest.approx(
            1e-3 + 1010 * 10e-6
        )

    def test_slowdowns(self):
        estimate = FullVirtEstimate(
            name="x", native_runtime=1.0, ava_runtime=1.1,
            fullvirt_runtime=20.0, traps=100,
        )
        assert estimate.fullvirt_slowdown == 20.0
        assert estimate.ava_slowdown == pytest.approx(1.1)

    def test_summarize_geomeans(self):
        estimates = {
            "a": FullVirtEstimate("a", 1.0, 1.0, 4.0, 1),
            "b": FullVirtEstimate("b", 1.0, 1.0, 16.0, 1),
        }
        means = summarize(estimates)
        assert means["fullvirt_geomean"] == pytest.approx(8.0)
        assert means["ava_geomean"] == pytest.approx(1.0)


class TestRunner:
    def test_native_measurement_fields(self):
        result = run_native(GaussianWorkload(scale=0.1))
        assert result.mode == "native"
        assert result.verified
        assert result.runtime > 0
        assert "api_call" in result.accounts

    def test_virtualized_counts_calls(self):
        result = run_virtualized(GaussianWorkload(scale=0.1),
                                 vm_id="vm-h1")
        assert result.mode == "ava"
        assert result.calls_sync > 0
        assert result.calls_async > 0

    def test_figure5_row_properties(self):
        native = measurement(runtime=2.0)
        virtualized = measurement(mode="ava", runtime=2.2)
        row = FigureFiveRow("w", "dev", native, virtualized)
        assert row.relative_runtime == pytest.approx(1.1)
        assert row.verified

    def test_figure5_row_zero_native(self):
        row = FigureFiveRow("w", "dev", measurement(runtime=0.0),
                            measurement(mode="ava", runtime=1.0))
        assert row.relative_runtime == float("inf")

    def test_run_figure5_subset(self):
        rows = run_figure5(scale=0.05,
                           workload_classes=[GaussianWorkload, NNWorkload],
                           include_mvnc=False)
        assert [row.name for row in rows] == ["gaussian", "nn"]
        assert all(row.verified for row in rows)
        assert all(row.relative_runtime >= 1.0 for row in rows)

    def test_transport_selection(self):
        local = run_virtualized(GaussianWorkload(scale=0.05),
                                vm_id="vm-h2", transport="inproc")
        remote = run_virtualized(GaussianWorkload(scale=0.05),
                                 vm_id="vm-h3", transport="network")
        assert remote.runtime > local.runtime


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "long_header"], [["x", "1"], ["yy", "22"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_format_figure5_mentions_paper(self):
        rows = run_figure5(scale=0.05,
                           workload_classes=[GaussianWorkload],
                           include_mvnc=False)
        text = format_figure5(rows)
        assert "paper" in text
        assert "gaussian" in text
        assert "ok" in text


class TestGantt:
    def test_gantt_shape(self):
        from repro.harness.report import format_gantt
        from repro.hypervisor.pool import (
            DeviceClass, DevicePool, PoolScheduler,
        )
        from repro.hypervisor.scheduler import WorkItem

        pool = DevicePool.from_classes([DeviceClass.baseline_gpu()])
        stats = PoolScheduler(pool).run({
            "alpha": [WorkItem(1e-3) for _ in range(10)],
            "beta": [WorkItem(1e-3) for _ in range(10)],
        }).vm_stats
        text = format_gantt(stats, width=40)
        lines = text.splitlines()
        assert len(lines) == 3  # two VMs + axis
        assert "A" in lines[0] and "B" in lines[1]
        assert "ms" in lines[2]

    def test_gantt_empty(self):
        from repro.harness.report import format_gantt

        assert "empty" in format_gantt({})
