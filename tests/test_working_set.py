"""Figure 5's working set: each large array is held only as often as the
forwarding path needs it.

One Figure 5 row (native half, then virtualized half) runs at scale 0.25
under :mod:`tracemalloc` with cold memos — a warm memo would skip the
native half and the reference — and its traced peak is held to a whole
number of copies of the row's largest array, plus a quarter of one for
the small arrays and per-row temporaries.

- ``backprop`` (``w1``, 16 MiB): five copies, all live while the guest
  reads ``w1`` back — the compute-once reference, the device buffer, the
  migration log's copy of the upload, and the two copies a forwarded
  read makes (the server's payload and the guest's array).
- ``pathfinder`` (the grid, 12.5 MiB): three copies in either half —
  the run's host grid and the device buffer, plus the reference's own
  grid in the native half or the migration log's copy of the upload in
  the virtualized half.

Measured on CPython 3.11.7 with numpy 2.4.6: 5.09x and 3.09x.  A
whole-array temporary on top of these (an int64 draw, ``eta *
np.outer(...)``, ``np.allclose``) breaks the budget.

Arming the transfer cache adds no copy: the store keeps the first
upload of a payload, and the log's record of that upload holds the
store's bytes rather than a second copy (64.4 MiB against 64.8 MiB
uncached for ``backprop`` at 0.25; 80.5 MiB when each kept its own).

``lavamd``'s forces hold one bounded batch of particle-pair temporaries,
not a whole grid's: at 12^3 boxes (scale 2) the one offset that reaches
every home box would need 21 MiB for its deltas alone.
"""

import tracemalloc

import pytest

from repro.harness import runner
from repro.harness.runner import run_figure5
from repro.remoting.xfercache import CachePolicy
from repro.stack import VirtualStack, build_stack
from repro.workloads import (BackpropWorkload, LavaMDWorkload,
                             PathfinderWorkload, base)
from repro.workloads.lavamd import _forces

SCALE = 0.25
MIB = 1 << 20

#: workload class -> (bytes of its largest array, copies allowed)
BUDGETS = {
    BackpropWorkload: (16 * MIB, 5.25),
    PathfinderWorkload: (12.5 * MIB, 3.25),
}


@pytest.fixture
def cold_memos(monkeypatch):
    monkeypatch.setattr(runner, "_NATIVES", {})
    monkeypatch.setattr(base, "_REFERENCES", {})


def traced_peak(cls):
    """Traced peak bytes of one Figure 5 row, and the row."""
    tracemalloc.start()
    try:
        rows = run_figure5(scale=SCALE, workload_classes=[cls],
                           include_mvnc=False)
        return tracemalloc.get_traced_memory()[1], rows[0]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("cls", list(BUDGETS), ids=lambda c: c.name)
def test_row_within_copy_budget(cls, cold_memos):
    largest, copies = BUDGETS[cls]
    peak, row = traced_peak(cls)
    assert row.verified
    assert peak <= copies * largest, (
        f"{cls.name}: traced peak {peak / MIB:.1f} MiB is "
        f"{peak / largest:.2f} copies of its largest array (budget {copies})")


def virtualized_peak(cache_policy):
    """Traced peak bytes of one virtualized ``backprop`` run at
    :data:`SCALE`, its reference and generated stack made beforehand."""
    workload = BackpropWorkload(scale=SCALE)
    workload.reference()
    build_stack("opencl")
    tracemalloc.start()
    try:
        stack = VirtualStack.build("opencl", cache_policy=cache_policy)
        result = workload.run(stack.add_vm("vm0").lib)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.verified
    return peak


def test_cache_armed_uploads_are_held_once():
    uncached = virtualized_peak(None)
    cached = virtualized_peak(CachePolicy())
    assert cached <= uncached + MIB, (
        f"cache-armed peak {cached / MIB:.1f} MiB against "
        f"{uncached / MIB:.1f} MiB uncached")


def test_lavamd_forces_hold_one_batch():
    workload = LavaMDWorkload(scale=2.0)
    assert workload.boxes_1d == 12
    pos, charge = workload._inputs()
    tracemalloc.start()
    try:
        _forces(pos, charge, workload.boxes_1d, workload.per_box,
                workload.alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * MIB, f"traced peak {peak / MIB:.1f} MiB"


if __name__ == "__main__":
    for cls, (largest, _) in BUDGETS.items():
        runner._NATIVES.clear()
        base._REFERENCES.clear()
        peak, _ = traced_peak(cls)
        print(f"{cls.name}: {peak / MIB:.1f} MiB, {peak / largest:.2f}x")
