#!/usr/bin/env python
"""VM migration of accelerator state by record/replay (§4.3).

A guest builds up real device state — context, queue, buffers with data,
a built program, a kernel with bound arguments — then the hypervisor
migrates it to a fresh API server on a *different* simulated GPU, twice:
once stop-the-world (``MigrationPolicy(max_rounds=0)``: everything ships
while the guest is frozen) and once live (the default policy: pre-copy
rounds while the guest keeps running, then a short frozen cutover).  One
engine runs both.  The guest's handles keep working, buffer contents
survive, and the workload finishes correctly after each move.

Run:  python examples/vm_migration.py
"""

import numpy as np

from repro.migration import MigrationPolicy
from repro.opencl import types
from repro.remoting.buffers import OutBox
from repro.stack import VirtualStack

SRC = ("__kernel void vector_scale(__global float* x, float alpha, "
       "int n) {}")


def main():
    hv = VirtualStack.build("opencl").hypervisor
    vm = hv.create_vm("prod-vm")
    cl = vm.library("opencl")

    # --- the guest builds device state -------------------------------------
    n = 4096
    plats = [None]
    cl.clGetPlatformIDs(1, plats, None)
    devs = [None]
    cl.clGetDeviceIDs(plats[0], types.CL_DEVICE_TYPE_GPU, 1, devs, None)
    err = OutBox()
    ctx = cl.clCreateContext(None, 1, devs, None, None, err)
    queue = cl.clCreateCommandQueue(ctx, devs[0], 0, err)
    data = np.linspace(0, 1, n, dtype=np.float32)
    mem = cl.clCreateBuffer(ctx, types.CL_MEM_COPY_HOST_PTR, 4 * n, data,
                            err)
    prog = cl.clCreateProgramWithSource(ctx, 1, SRC, None, err)
    cl.clBuildProgram(prog, 0, None, "", None, None)
    kernel = cl.clCreateKernel(prog, "vector_scale", err)
    cl.clSetKernelArg(kernel, 0, 8, mem)
    cl.clSetKernelArg(kernel, 1, 8, 2.0)
    cl.clSetKernelArg(kernel, 2, 4, n)

    def scale():
        cl.clEnqueueNDRangeKernel(queue, kernel, 1, None, [n], None, 0,
                                  None, None)
        cl.clFinish(queue)

    def device():
        return hv.worker("prod-vm", "opencl").native_session.devices[0]

    # run a third of the work before migrating
    scale()
    devices = [device()]
    recorder = hv.router.vms["prod-vm"].logs["opencl"]
    print(f"state before migration: {len(recorder)} recorded calls, "
          f"{recorder.pruned_calls} pruned by object tracking")

    # --- migrate: stop-the-world, then live; the guest works in between ------
    for policy in (MigrationPolicy(max_rounds=0), MigrationPolicy()):
        report = hv.live_migrate_vm("prod-vm", "opencl", policy=policy)
        devices.append(device())
        print(f"\n{report.mode} migration of VM 'prod-vm' to a fresh "
              f"device ({devices[-2] is not devices[-1]}):")
        print(f"  pre-copy rounds:   {report.rounds}")
        print(f"  replayed calls:    {report.replayed_calls}")
        print(f"  restored buffers:  {report.restored_buffers} "
              f"({report.snapshot_bytes:,d} bytes)")
        print(f"  downtime:          {report.downtime * 1e3:.3f} ms "
              f"(virtual; {report.total_time * 1e3:.3f} ms in all)")
        # the guest continues with its old handles
        scale()

    out = np.zeros(n, dtype=np.float32)
    cl.clEnqueueReadBuffer(queue, mem, types.CL_TRUE, 0, 4 * n, out, 0,
                           None, None)
    expected = data * 8.0  # scaled three times: once per device
    print(f"\nresult correct after both migrations: "
          f"{np.allclose(out, expected, atol=1e-4)}")
    print("kernels per device: "
          f"{[d.op_counts.get('kernel', 0) for d in devices]}")


if __name__ == "__main__":
    main()
