"""Sensitivity: Figure 5 overhead as a function of forwarding cost.

DESIGN.md calls out the cost-model knobs as the one free parameter of
this reproduction; this ablation shows how the headline result depends
on them.  Sweeping the hypercall latency from half to 16× nominal maps
where the paper's "at most 16%, 8% average" band lives — and where API
remoting stops being near-native, which is the design space the paper's
§2 positions rCUDA/vCUDA (10-40% degradation) in.
"""

import statistics

from conftest import SENSITIVITY_WORKLOADS as WORKLOADS
from repro.harness.runner import run_native
from repro.stack import VirtualStack

MULTIPLIERS = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
BASE_LATENCY = 1.8e-6
BASE_ENQUEUE = 0.15e-6


def sweep():
    rows = []
    for multiplier in MULTIPLIERS:
        ratios = {}
        for cls in WORKLOADS:
            workload = cls()
            stack = VirtualStack.build("opencl")
            session = stack.add_vm(
                f"vm-{multiplier}-{workload.name}",
                latency=BASE_LATENCY * multiplier,
                enqueue_overhead=BASE_ENQUEUE * multiplier,
            )
            result = workload.run(session.lib)
            assert result.verified
            # the native baseline is run once per process (harness memo)
            ratios[workload.name] = (session.time
                                     / run_native(workload).runtime)
        rows.append((multiplier, ratios))
    return rows


def test_overhead_vs_transport_latency(once):
    rows = once(sweep)

    print("\n=== mean overhead vs forwarding latency ===")
    names = [cls.name for cls in WORKLOADS]
    print(f"{'latency':>9s}" + "".join(f"{n:>11s}" for n in names)
          + f"{'mean':>9s}")
    means = []
    for multiplier, ratios in rows:
        mean = statistics.mean(ratios.values())
        means.append(mean)
        print(f"{BASE_LATENCY * multiplier * 1e6:7.1f}us"
              + "".join(f"{ratios[n]:11.3f}" for n in names)
              + f"{mean:9.3f}")

    # overhead grows monotonically with transport latency
    assert all(a <= b + 1e-9 for a, b in zip(means, means[1:]))
    # at nominal cost the suite sits in the paper's band...
    nominal = means[MULTIPLIERS.index(1.0)]
    assert nominal - 1 < 0.16
    # ...and at vCUDA-era costs (an order of magnitude slower paths)
    # the 10-40% degradation regime of §2 reappears
    coarse = means[-1]
    assert coarse - 1 > 0.16


def test_byte_cost_matters_for_copy_heavy(once):
    """Per-byte transport cost dominates for nn-style workloads."""
    from repro.workloads import NNWorkload

    workload = NNWorkload()
    native = run_native(workload)

    def run(byte_cost):
        stack = VirtualStack.build("opencl")
        session = stack.add_vm(f"vm-bc-{byte_cost}", byte_cost=byte_cost)
        assert workload.run(session.lib).verified
        return session.time / native.runtime

    cheap = run(0.002e-9)
    nominal = run(0.008e-9)
    expensive = once(run, 0.08e-9)  # a full-copy (no shared pages) design
    print(f"\nnn relative runtime: zero-copy-ish {cheap:.3f}, nominal "
          f"{nominal:.3f}, full-copy {expensive:.3f}")
    assert cheap < nominal < expensive
    assert expensive > 1.3  # copy-through designs pay heavily on nn