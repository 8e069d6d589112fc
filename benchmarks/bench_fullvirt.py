"""§2 baseline: full virtualization's trap-and-emulate cost.

"Trapping on every guest access to MMIO and memory BARs results in
devastating orders-of-magnitude performance losses."  We price the same
command streams under a charitable trap model and compare against AvA's
measured overhead on identical simulated hardware.
"""

import math

from conftest import FULLVIRT_WORKLOADS as WORKLOADS
from repro.fullvirt import TrapModel, estimate_fullvirt, summarize
from repro.harness.runner import run_native, run_virtualized
from repro.stack import VirtualStack
from repro.workloads import GaussianWorkload


def measure():
    estimates = {}
    for cls in WORKLOADS:
        workload = cls()
        stack = VirtualStack.build("opencl")
        native = run_native(workload)
        ava = run_virtualized(workload, hypervisor=stack.hypervisor,
                              vm_id=f"fv-{workload.name}")
        payload = stack.router.metrics_for(
            f"fv-{workload.name}").payload_bytes
        estimates[workload.name] = estimate_fullvirt(
            native, ava, payload, TrapModel()
        )
    return estimates


def test_fullvirt_orders_of_magnitude(once):
    estimates = once(measure)

    print("\n=== full virtualization vs AvA (§2) ===")
    print(f"{'workload':12s} {'native':>10s} {'AvA':>7s} "
          f"{'full-virt':>10s} {'traps':>10s}")
    for name, est in estimates.items():
        print(f"{name:12s} {est.native_runtime * 1e3:8.3f}ms "
              f"{est.ava_slowdown:6.2f}x {est.fullvirt_slowdown:9.1f}x "
              f"{est.traps:10,d}")
    means = summarize(estimates)
    ratio = means["fullvirt_geomean"] / means["ava_geomean"]
    print(f"\ngeomean slowdown — full-virt: "
          f"{means['fullvirt_geomean']:.1f}x, "
          f"AvA: {means['ava_geomean']:.2f}x "
          f"({ratio:.0f}x apart)")

    # the paper's qualitative claim, quantified:
    assert means["ava_geomean"] < 1.25
    assert means["fullvirt_geomean"] > 10.0, \
        "trap-and-emulate should be an order of magnitude off native"
    for est in estimates.values():
        assert est.fullvirt_slowdown > est.ava_slowdown * 3


def test_trap_sensitivity(once):
    """Even a 4x cheaper trap leaves full-virt far behind AvA."""
    workload = GaussianWorkload()
    stack = VirtualStack.build("opencl")
    native = run_native(workload)
    ava = run_virtualized(workload, hypervisor=stack.hypervisor,
                          vm_id="fv-sens")
    payload = stack.router.metrics_for("fv-sens").payload_bytes

    def sweep():
        rows = []
        for trap_us in (3.0, 6.0, 12.0, 24.0):
            model = TrapModel(trap_cost=trap_us * 1e-6)
            est = estimate_fullvirt(native, ava, payload, model)
            rows.append((trap_us, est.fullvirt_slowdown))
        return rows

    rows = once(sweep)
    print("\n=== trap-cost sensitivity (gaussian) ===")
    for trap_us, slowdown in rows:
        print(f"trap {trap_us:5.1f} us -> full-virt {slowdown:6.1f}x native")
    cheapest = rows[0][1]
    assert cheapest > ava.runtime / native.runtime * 2
    # slowdown is monotone in trap cost
    assert all(a[1] < b[1] for a, b in zip(rows, rows[1:]))
