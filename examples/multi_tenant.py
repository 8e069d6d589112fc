#!/usr/bin/env python
"""Multi-tenant GPU sharing: the consolidation story of the paper's intro.

Three guest VMs run real OpenCL workloads through AvA against the same
hypervisor.  The router interposes every command, enforcing a per-VM
command-rate limit on the noisy neighbor and accounting resource usage
(the §4.3 administration interface), while handle isolation keeps one
tenant from naming another's objects.

Run:  python examples/multi_tenant.py
"""

from repro.guest.library import RemotingError
from repro.hypervisor.policy import ResourcePolicy, VMPolicy
from repro.stack import VirtualStack
from repro.workloads import BFSWorkload, GaussianWorkload, KMeansWorkload


def main():
    policy = ResourcePolicy()
    # tenant-c is rate-limited to 2000 commands/s (it pays for a small slice)
    policy.set_policy("tenant-c", VMPolicy(command_rate=2000.0,
                                           command_burst=16))
    hv = VirtualStack.build("opencl", policy=policy).hypervisor

    tenants = {
        "tenant-a": GaussianWorkload(scale=0.25),
        "tenant-b": KMeansWorkload(scale=0.25),
        "tenant-c": BFSWorkload(scale=0.25),
    }

    print("running three tenants through one AvA hypervisor...\n")
    for vm_id, workload in tenants.items():
        vm = hv.create_vm(vm_id)
        result = workload.run(vm.library("opencl"))
        status = "ok" if result.verified else "FAILED"
        print(f"{vm_id}: {workload.name:10s} -> {status:6s} "
              f"guest time {vm.clock.now * 1e3:8.3f} ms")

    print("\n=== hypervisor administration interface (paper §4.3) ===")
    report = hv.admin_report()
    for vm_id, entry in sorted(report.items()):
        resources = ", ".join(
            f"{key}={value:,.0f}" for key, value in
            sorted(entry["resources"].items())
        )
        print(f"{vm_id}: commands={entry['commands']:5d} "
              f"payload={entry['payload_bytes']:>12,d} B "
              f"rate_delay={entry['rate_delay'] * 1e3:7.3f} ms")
        print(f"    resources: {resources}")

    throttled = report["tenant-c"]["rate_delay"]
    free = report["tenant-a"]["rate_delay"]
    print(f"\nrate limiter injected {throttled * 1e3:.3f} ms of delay into "
          f"tenant-c (vs {free * 1e3:.3f} ms for tenant-a)")

    # isolation: tenant-a cannot use tenant-b's handles
    vm_a = hv.vms["tenant-a"]
    vm_b = hv.vms["tenant-b"]
    plats = [None]
    vm_b.library("opencl").clGetPlatformIDs(1, plats, None)
    try:
        vm_a.library("opencl").clGetPlatformInfo(plats[0], 0x0902, 64,
                                                 bytearray(64), None)
        print("ISOLATION FAILURE: cross-VM handle accepted")
    except RemotingError as err:
        print(f"cross-VM handle correctly rejected: {err}")


if __name__ == "__main__":
    main()
