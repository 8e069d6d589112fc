"""Soak: what a long-lived VM's migration log holds, by ``tracemalloc``.

One guest runs the steady-state loop a real application spends its life
in — set three kernel arguments, launch, rewrite the input, now and then
read back — for about 2 x 10^5 forwarded calls, with a live migration at
every quarter.  At each quarter (after its migration, garbage collected)
the bytes allocated from ``repro/migration/recorder.py`` (the records)
and ``repro/remoting/`` (the decoded commands and payloads the records
pin) are summed.

Gate: between the 25 % and 100 % marks those bytes grow by less than
64 KB.  Before the log was bounded (``supersedes`` keys,
``docs/migration.md``) they grew by about 1.4 KB per recorded call.

``CAVA_SOAK_CALLS`` scales the run (CI uses a short form); the result
lands in ``BENCH_soak.json``.  ``tracemalloc`` makes this several times
slower than the same loop untraced, so this is a memory bench only.
"""

import gc
import json
import os
import tracemalloc

import numpy as np

from repro.stack import VirtualStack
from repro.workloads.base import open_env

CALLS = int(os.environ.get("CAVA_SOAK_CALLS", "200000"))
GROWTH_LIMIT_BYTES = 64 * 1024

SRC = ("__kernel void vector_scale(__global float* x, float alpha, "
       "int n) {}")
WORDS = 256
#: forwarded calls per loop iteration: three sets, a launch, a write
CALLS_PER_ITERATION = 5
READ_EVERY = 64

_HELD = [
    tracemalloc.Filter(True, "*/repro/migration/recorder.py"),
    tracemalloc.Filter(True, "*/repro/remoting/*"),
]


def _held_bytes():
    gc.collect()
    snapshot = tracemalloc.take_snapshot().filter_traces(_HELD)
    return sum(stat.size for stat in snapshot.statistics("filename"))


def soak(calls=CALLS):
    hv = VirtualStack.build("opencl").hypervisor
    cl = hv.create_vm("vm-soak").library("opencl")
    env = open_env(cl)
    kernel = env.kernel(env.program(SRC), "vector_scale")
    mem = env.buffer(4 * WORDS)
    data = np.ones(WORDS, dtype=np.float32)
    iterations = calls // CALLS_PER_ITERATION
    quarter = iterations // 4

    marks = []
    forwarded = 0
    tracemalloc.start()
    try:
        for index in range(1, 4 * quarter + 1):
            env.set_args(kernel, mem, 1.0 + index % 3, WORDS)
            env.launch(kernel, [WORDS])
            env.write(mem, data, blocking=False)
            forwarded += CALLS_PER_ITERATION
            if index % READ_EVERY == 0:
                out = env.read(mem, 4 * WORDS)
                assert (out == 1.0).all()
                forwarded += 1
            if index % quarter == 0:
                report = hv.live_migrate_vm("vm-soak", "opencl")
                assert not report.aborted
                marks.append({
                    "at": index // quarter / 4,
                    "forwarded_calls": forwarded,
                    "log_entries": len(
                        hv.router.vms["vm-soak"].logs["opencl"]),
                    "replayed_calls": report.replayed_calls,
                    "held_kb": round(_held_bytes() / 1024, 1),
                })
    finally:
        tracemalloc.stop()
    growth = marks[-1]["held_kb"] - marks[0]["held_kb"]
    return {
        "figure": "soak",
        "forwarded_calls": forwarded,
        "migrations": len(hv.migrations),
        "marks": marks,
        "held_growth_kb_25_to_100": round(growth, 1),
        "limit_kb": GROWTH_LIMIT_BYTES / 1024,
    }


def test_gate():
    """CI gate, fixture-free on purpose (runs without pytest-benchmark).

    The log is as long at the end as after the first quarter, every
    migration replays that same bounded log, and the bytes the recorder
    and the codec hold do not grow with the calls forwarded.
    Writes BENCH_soak.json.
    """
    result = soak()
    print("\n=== soak: bytes held by the recorder and the codec ===")
    print(f"{'mark':>6s} {'calls':>9s} {'log':>5s} {'replayed':>9s} "
          f"{'held':>10s}")
    for mark in result["marks"]:
        print(f"{mark['at']:6.0%} {mark['forwarded_calls']:9d} "
              f"{mark['log_entries']:5d} {mark['replayed_calls']:9d} "
              f"{mark['held_kb']:8.1f}KB")
    first, last = result["marks"][0], result["marks"][-1]
    assert last["log_entries"] == first["log_entries"]
    assert last["replayed_calls"] == first["replayed_calls"]
    assert result["held_growth_kb_25_to_100"] * 1024 < GROWTH_LIMIT_BYTES, (
        f"recorder + codec grew {result['held_growth_kb_25_to_100']} KB "
        f"between the 25% and 100% marks")
    path = os.path.join(os.path.dirname(__file__), "BENCH_soak.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
