"""Async command coalescing: flush-threshold sweep.

Coalescing queues async commands guest-side and flushes them as one
batched wire frame (one fixed submission charge for the whole frame,
plus an amortized host-side dispatch for inner commands after the
first).  The knob is :class:`~repro.guest.batching.BatchPolicy.
max_commands`; this bench sweeps it at two channel price points:

* **nominal** shared-memory interposition, where §4.2's per-call async
  forwarding already overlaps guest and host almost perfectly, so
  coalescing mostly trades away pipeline overlap at sync points;
* **4x submission cost** (nested virtualization / hardened exits),
  where the per-frame charge is what the guest is bound on and
  coalescing buys large end-to-end wins.

Frame-count reduction is threshold-independent of the price point and
is asserted everywhere.
"""

from conftest import ASYNC_HEAVY_WORKLOADS, print_table
from repro.guest.batching import BatchPolicy
from repro.stack import VirtualStack
from repro.workloads import NWWorkload

THRESHOLDS = (2, 4, 8, 16, 32, 64)
SCALE = 0.5


def run_one(workload_cls, policy, multiplier, tag):
    stack = VirtualStack.build("opencl")
    session = stack.add_vm(
        f"vm-{tag}",
        latency=1.8e-6 * multiplier,
        enqueue_overhead=0.15e-6 * multiplier,
        batch_policy=policy,
    )
    result = workload_cls(scale=SCALE).run(session.lib)
    session.flush()
    assert result.verified
    runtime = session.runtime()
    return {
        "runtime": session.time,
        "frames": session.vm.driver.transport.messages,
        "batches": runtime.batches_flushed,
        "coalesced": runtime.commands_coalesced,
    }


def sweep(multiplier):
    base = run_one(NWWorkload, None, multiplier, f"base-{multiplier}")
    rows = []
    for threshold in THRESHOLDS:
        policy = BatchPolicy(max_commands=threshold)
        out = run_one(NWWorkload, policy, multiplier,
                      f"mc{threshold}-{multiplier}")
        rows.append({
            "max_commands": threshold,
            "runtime": out["runtime"],
            "speedup": base["runtime"] / out["runtime"] - 1,
            "frames": out["frames"],
            "frame_reduction": 1 - out["frames"] / base["frames"],
            "batches": out["batches"],
            "mean_batch": (out["coalesced"] / out["batches"]
                           if out["batches"] else 0.0),
        })
    return base, rows


def test_flush_threshold_sweep(once, bench_json):
    nominal = sweep(1.0)
    base4, rows4 = once(sweep, 4.0)
    base1, rows1 = nominal

    for label, base, rows in (("1x nominal", base1, rows1),
                              ("4x submission cost", base4, rows4)):
        print_table(
            f"nw coalescing sweep ({label}; per-call "
            f"{base['runtime'] * 1e3:.3f}ms, {base['frames']} frames)",
            ["max_commands", "runtime", "speedup", "frames",
             "frames saved", "mean batch"],
            [[str(r["max_commands"]),
              f"{r['runtime'] * 1e3:.3f}ms",
              f"{r['speedup']:+.1%}",
              str(r["frames"]),
              f"{r['frame_reduction']:.1%}",
              f"{r['mean_batch']:.1f}"] for r in rows],
        )

    bench_json("batching", {
        "workload": "nw",
        "scale": SCALE,
        "thresholds": list(THRESHOLDS),
        "nominal": {"per_call_runtime": base1["runtime"],
                    "per_call_frames": base1["frames"], "rows": rows1},
        "x4": {"per_call_runtime": base4["runtime"],
               "per_call_frames": base4["frames"], "rows": rows4},
    })

    # frame economy: every threshold must cut frames, monotonically more
    # with larger batches
    for rows in (rows1, rows4):
        assert all(r["frame_reduction"] >= 0.05 for r in rows)
        reductions = [r["frame_reduction"] for r in rows]
        assert all(a <= b + 1e-9
                   for a, b in zip(reductions, reductions[1:]))

    # on the expensive channel, coalescing wins end to end at every
    # threshold and the win grows with batch size until it saturates
    assert all(r["speedup"] > 0 for r in rows4)
    assert max(r["speedup"] for r in rows4) >= 0.10

    # at nominal cost, per-call async forwarding already overlaps guest
    # and host: coalescing must stay within a small envelope of it
    # (losing pipeline overlap at sync points costs at most a few
    # percent) — the frame savings above come essentially for free
    assert all(r["speedup"] > -0.05 for r in rows1)


def test_frame_economy_across_async_heavy_suite():
    """Default policy cuts frames >=5% on every async-heavy workload."""
    for cls in ASYNC_HEAVY_WORKLOADS:
        base = run_one(cls, None, 1.0, f"suite-base-{cls.name}")
        bat = run_one(cls, BatchPolicy(), 1.0, f"suite-bat-{cls.name}")
        assert bat["frames"] <= base["frames"] * 0.95, cls.name
