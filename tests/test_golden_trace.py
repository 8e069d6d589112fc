"""The span tree of a fixed call sequence, pinned byte for byte.

``tests/golden/trace.jsonl`` is the :func:`write_jsonl` export of
:func:`golden_spans`: sync, async and batched calls, a cached write
that misses once, a callback, a server-side error reply and a
rate-limited VM.  Regenerating it must give the same bytes, so a change
that moves, renames, reparents or drops a span (the server function
span, say) fails here even when every coarser telemetry test passes.

Rewrite the golden file (only for a deliberate trace change) with::

    PYTHONPATH=src python tests/test_golden_trace.py
"""

import os
import sys

import numpy as np
import pytest

from repro.guest.batching import BatchPolicy
from repro.guest.library import RemotingError
from repro.hypervisor.policy import ResourcePolicy, VMPolicy
from repro.opencl.kernels import BUFFER, SCALAR, register_kernel
from repro.remoting.xfercache import CachePolicy
from repro.stack import VirtualStack
from repro.telemetry import Tracer
from repro.telemetry import tracer as tele
from repro.telemetry.exporters import write_jsonl
from repro.workloads.base import open_env

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden", "trace.jsonl")

SOURCE = "__kernel void golden_poke(__global int *s, int a, int b) {}"


@register_kernel("golden_poke", [BUFFER, SCALAR, SCALAR])
def _golden_poke(ctx):
    ctx.buf(0, np.int32)[int(ctx.scalar(1))] = int(ctx.scalar(2))


def _poke(env, kernel, slot, value):
    """Two async argument sets and an async launch."""
    env.cl.clSetKernelArg(kernel, 1, 8, slot)
    env.cl.clSetKernelArg(kernel, 2, 8, value)
    env.launch(kernel, [1])


def _kernel_env(lib):
    """Discovery, context, queue, program, kernel and a state buffer:
    the sync calls every VM starts with."""
    env = open_env(lib)
    program = env.program(SOURCE)
    kernel = env.kernel(program, "golden_poke")
    env.set_args(kernel, env.buffer(16, host=np.zeros(4, dtype=np.int32)))
    return env, program, kernel


def golden_spans():
    """Run the fixed sequence under a fresh tracer; its spans."""
    policy = ResourcePolicy(per_vm={
        "vm-rate": VMPolicy(command_rate=200_000.0, command_burst=1)})
    stack = VirtualStack.build("opencl", policy=policy)
    tracer = Tracer()
    with tele.use(tracer):
        env, program, kernel = _kernel_env(stack.add_vm("vm-plain").lib)
        _poke(env, kernel, 1, 11)
        fired = []
        assert env.cl.clBuildProgram(program, 0, None, "",
                                     lambda *args: fired.append(args),
                                     None) == 0
        assert fired
        try:
            env.cl.clFinish(9999)       # the worker answers with an error
        except RemotingError:
            pass
        else:
            raise AssertionError("an unknown queue handle must fail")
        env.finish()

        env, _, kernel = _kernel_env(stack.add_vm(
            "vm-batch", batch_policy=BatchPolicy()).lib)
        for slot in range(3):
            _poke(env, kernel, slot, slot + 20)
        env.finish()

        lib = stack.add_vm("vm-cache", cache_policy=CachePolicy(
            shared_index=False, min_bytes=64)).lib
        env = open_env(lib)
        data = np.arange(256, dtype=np.uint8)
        buffer = env.buffer(data.nbytes)
        env.write(buffer, data)
        env.write(buffer, data)         # elided: a hit
        stack.hypervisor.router.vms["vm-cache"].store.clear("golden")
        env.write(buffer, data)         # the ref misses once, then resends

        env, _, kernel = _kernel_env(stack.add_vm("vm-rate").lib)
        for slot in range(4):
            _poke(env, kernel, slot, slot + 40)
        env.finish()
    return tracer.all_spans()


def _render(spans, path):
    write_jsonl(spans, path)
    with open(path, "rb") as handle:
        return handle.read()


def test_trace_matches_golden(tmp_path):
    got = _render(golden_spans(), str(tmp_path / "trace.jsonl"))
    with open(GOLDEN, "rb") as handle:
        want = handle.read()
    assert got.splitlines() == want.splitlines()
    assert got == want


def test_golden_covers_the_layers():
    names = set()
    with open(GOLDEN, encoding="utf-8") as handle:
        for line in handle:
            names.add(line.split('"name": "', 1)[1].split('"', 1)[0])
    for expected in ("clFinish", "marshal", "transport.send",
                     "router.policy", "router.queue", "dispatch",
                     "batch.flush", "router.batch", "xfer.miss",
                     "xfer.retransmit", "wait.reply", "unmarshal"):
        assert expected in names


def test_stub_raising_before_submit_records_no_span():
    """A stub that fails while marshaling never reaches the runtime,
    and the runtime is what opens the call's ``function`` span."""
    env, _, _ = _kernel_env(VirtualStack.build("opencl").add_vm("vm0").lib)
    tracer = Tracer()
    with tele.use(tracer):
        with pytest.raises(RemotingError):
            env.cl.clSetKernelArg("not-a-handle", 1, 8, 1)
    assert tracer.all_spans() == []


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    write_jsonl(golden_spans(), GOLDEN)
    sys.stdout.write(f"wrote {GOLDEN}\n")
