"""Measurement harness: native-vs-AvA runs and report generation."""

from repro.harness.runner import (
    FigureFiveRow,
    Measurement,
    run_figure5,
    run_native,
    run_virtualized,
)
from repro.harness.loadgen import (
    AdmissionControl,
    BurstyArrivals,
    DiurnalArrivals,
    LoadgenError,
    LoadgenResult,
    PoissonArrivals,
    TraceArrivals,
    run_open_loop,
)
from repro.harness.pool import (
    extract_inception_trace,
    fleet_streams,
    rodinia_traces,
    run_pool_fleet,
)
from repro.harness.report import format_figure5, format_table

__all__ = [
    "AdmissionControl",
    "BurstyArrivals",
    "DiurnalArrivals",
    "FigureFiveRow",
    "LoadgenError",
    "LoadgenResult",
    "Measurement",
    "PoissonArrivals",
    "TraceArrivals",
    "extract_inception_trace",
    "fleet_streams",
    "format_figure5",
    "format_table",
    "rodinia_traces",
    "run_figure5",
    "run_native",
    "run_open_loop",
    "run_pool_fleet",
    "run_virtualized",
]
