"""Shared benchmark fixtures.

The benchmarks measure two things at once: wall-clock cost of the
simulation (via pytest-benchmark, single-round — the interesting wall
numbers are the simulator's, not the host's) and the *virtual-time*
results that reproduce the paper's figures, which each bench prints and
asserts on.
"""

import json
import os

import pytest

from repro.workloads import (
    BFSWorkload,
    GaussianWorkload,
    HotspotWorkload,
    KMeansWorkload,
    LavaMDWorkload,
    NWWorkload,
    PathfinderWorkload,
    SradWorkload,
)

#: launch-dense suites with deep async pipelines — the workloads the
#: async-forwarding and coalescing benches measure
ASYNC_HEAVY_WORKLOADS = [GaussianWorkload, HotspotWorkload, NWWorkload,
                         PathfinderWorkload, SradWorkload]

#: the mixed suite the full-virtualization comparison prices
FULLVIRT_WORKLOADS = [BFSWorkload, GaussianWorkload, KMeansWorkload,
                      LavaMDWorkload, NWWorkload]

#: the compact suite the cost-model sensitivity sweeps re-run
SENSITIVITY_WORKLOADS = [BFSWorkload, GaussianWorkload, KMeansWorkload,
                         NWWorkload]


@pytest.fixture()
def bench_json():
    """Write a benchmark's results as ``BENCH_<name>.json``.

    The file lands next to the benchmarks so dashboards and regression
    scripts can diff virtual-time results without parsing pytest output.
    With ``section``, ``payload`` replaces only that top-level key of the
    file, so several benches can share one file in any order.
    """

    def writer(name, payload, section=None):
        path = os.path.join(os.path.dirname(__file__),
                            f"BENCH_{name}.json")
        if section is not None:
            merged = {}
            if os.path.exists(path):
                with open(path, "r", encoding="utf-8") as handle:
                    merged = json.load(handle)
            merged[section] = payload
            payload = merged
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    return writer


@pytest.fixture()
def once(benchmark):
    """Run a callable exactly once under pytest-benchmark.

    The simulations are deterministic in virtual time; repeating them
    only burns wall clock, so every bench uses a single round.
    """

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1, warmup_rounds=0)

    return runner


def print_table(title, headers, rows):
    from repro.harness.report import format_table

    print(f"\n=== {title} ===")
    print(format_table(headers, rows))
