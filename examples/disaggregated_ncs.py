#!/usr/bin/env python
"""Inference on a disaggregated Neural Compute Stick.

AvA's pluggable transports let a VM use an accelerator on another
machine (§1: "allowing VMs to use disaggregated accelerators").  This
example runs Inception through the MVNC stack twice — over the local
hypercall transport and over the datacenter-network transport — and
shows why the NCS tolerates disaggregation: its API is coarse (a few
calls moving whole tensors), so even 25 µs network hops barely register
against multi-millisecond inferences.

Run:  python examples/disaggregated_ncs.py
"""

from repro.stack import VirtualStack
from repro.workloads import InceptionWorkload


def run(transport: str):
    hv = VirtualStack.build("mvnc").hypervisor
    vm = hv.create_vm(f"vm-{transport}", transport=transport)
    workload = InceptionWorkload(batch=8)
    result = workload.run(vm.library("mvnc"))
    runtime = vm.runtimes["mvnc"]
    return {
        "verified": result.verified,
        "time": vm.clock.now,
        "sync": runtime.calls_sync,
        "async": runtime.calls_async,
        "tx": vm.driver.transport.tx_bytes,
        "rx": vm.driver.transport.rx_bytes,
    }


def main():
    local = run("inproc")
    remote = run("network")

    print("Inception v3 (scaled) on the simulated Movidius NCS, batch=8\n")
    header = f"{'transport':10s} {'verified':8s} {'guest time':>12s} " \
             f"{'calls':>7s} {'tx bytes':>12s} {'rx bytes':>12s}"
    print(header)
    print("-" * len(header))
    for name, stats in (("inproc", local), ("network", remote)):
        print(f"{name:10s} {str(stats['verified']):8s} "
              f"{stats['time'] * 1e3:9.3f} ms "
              f"{stats['sync'] + stats['async']:7d} "
              f"{stats['tx']:12,d} {stats['rx']:12,d}")

    penalty = remote["time"] / local["time"] - 1
    print(f"\ndisaggregation penalty: {penalty:.1%} — the NCS's coarse "
          "API amortizes the network almost completely.")
    print("(compare: the chatty OpenCL workloads pay far more over the "
          "network transport; see benchmarks/bench_transports.py)")


if __name__ == "__main__":
    main()
