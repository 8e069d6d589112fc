#!/usr/bin/env python
"""Virtualizing a *Python* API: the paper's dynamic-language future work.

Section 5: "We also plan to extend AvA to support dynamic languages,
e.g. Python, allowing us to auto-virtualize TensorFlow running on the
Google TPU."  Here that pipeline runs end to end:

1. the accelerator API is pure Python (`repro.tpu.api`) — no C header,
2. the dynamic front end introspects the module's signatures and marker
   annotations into the same ApiSpec the C path produces,
3. the unchanged CAvA generator emits the guest/server/routing modules,
4. a guest VM runs TensorFlow-style MLP inference through them,
5. the hypervisor live-migrates the graph to a fresh TPU mid-session.

Run:  python examples/tpu_dynamic.py
"""

import numpy as np

from repro.analysis import lint_spec
from repro.codegen.pyfront import spec_from_module
from repro.codegen.specwriter import render_spec
from repro.remoting.buffers import OutBox
from repro.stack import VirtualStack
from repro.tpu import api as tpu_api
from repro.tpu.graphs import OP_MATMUL
from repro.workloads.tpu_mlp import TPUMLPWorkload


def main():
    # --- 1+2: introspect the Python module into a spec --------------------
    spec = spec_from_module(tpu_api, "tpu", "tpu")
    print("=== spec derived from Python introspection "
          "(rendered as .cava) ===")
    rendered = render_spec(spec)
    print("\n".join(rendered.splitlines()[:24]))
    print(f"... ({len(spec.functions)} functions total)\n")
    print(lint_spec(spec, native_module=tpu_api.__name__).format())

    # --- 3+4: generate, deploy, run ----------------------------------------
    hv = VirtualStack.build("tpu").hypervisor
    vm = hv.create_vm("tf-guest")
    workload = TPUMLPWorkload(steps=6)
    result = workload.run(vm.library("tpu"))
    print(f"\nMLP inference through the generated stack: "
          f"verified={result.verified} ({result.detail})")
    print(f"guest time: {vm.clock.now * 1e3:.3f} ms; router saw "
          f"{hv.admin_report()['tf-guest']['commands']} commands")

    # --- 5: live-migrate a compiled graph ---------------------------------
    vm2 = hv.create_vm("tf-guest-2")
    tp = vm2.library("tpu")
    device = OutBox()
    tp.tpuOpenDevice(device)
    graph = OutBox()
    tp.tpuCreateGraph(device.value, graph)
    x = OutBox()
    tp.tpuPlaceholder(graph.value, 4, 4, x)
    w = np.eye(4, dtype=np.float32) * 2
    wnode = OutBox()
    tp.tpuConstant(graph.value, w, w.nbytes, 4, 4, wnode)
    y = OutBox()
    tp.tpuBinaryOp(graph.value, OP_MATMUL, x.value, wnode.value, y)
    tp.tpuCompile(graph.value, OutBox())

    report = hv.live_migrate_vm("tf-guest-2", "tpu")
    feed = np.ones((4, 4), dtype=np.float32)
    out = np.zeros((4, 4), dtype=np.float32)
    tp.tpuRun(graph.value, x.value, feed, feed.nbytes, y.value, out,
              out.nbytes, OutBox())
    print(f"\n{report.mode}-migrated the compiled graph "
          f"({report.replayed_calls} calls replayed, downtime "
          f"{report.downtime * 1e3:.3f} ms); "
          f"post-migration result correct: {np.allclose(out, feed @ w)}")


if __name__ == "__main__":
    main()
