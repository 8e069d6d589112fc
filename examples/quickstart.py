#!/usr/bin/env python
"""Quickstart: virtualize a brand-new accelerator API with CAvA.

This walks the paper's Figure 2 workflow end to end, in-process:

1. you have an accelerator "silo" (here: a toy FFT offload engine with a
   three-function C API and a native Python implementation),
2. CAvA infers a preliminary spec from the C header,
3. you refine the one thing it could not infer,
4. CAvA generates the guest library, server dispatch, and routing table,
5. the stack runs a guest VM's calls through the hypervisor router.

Run:  python examples/quickstart.py

Set ``CAVA_TRACE=/path/to/trace.json`` to record the run's cross-layer
spans and write them as Perfetto JSON (open in https://ui.perfetto.dev,
or replay with ``cava trace`` / ``cava top``).
"""

import os
import sys
import tempfile
from types import SimpleNamespace

import numpy as np

# ---------------------------------------------------------------------------
# Step 0 — the vendor silo: a native API we want to virtualize.
# A real silo would be a vendor library; here it is a tiny module we
# register under a known import path so the generated server can find it.
# ---------------------------------------------------------------------------

TOY_NATIVE_SOURCE = '''
"""Native implementation of the toy FFT offload API."""
import numpy as np
from repro.remoting.buffers import OutBox, read_bytes, write_back

_contexts = {}


class ToyContext:
    def __init__(self, size):
        self.size = size


def toyCreateContext(fft_size, out_ctx):
    if fft_size <= 0 or fft_size & (fft_size - 1):
        return -1  # must be a power of two
    out_ctx[0] = ToyContext(fft_size)
    return 0


def toyForward(ctx, signal, signal_size, spectrum, spectrum_size):
    if not isinstance(ctx, ToyContext):
        return -2
    # signal_size follows the element-count convention CAvA infers
    data = np.frombuffer(read_bytes(signal, signal_size * 4), dtype=np.float32)
    if data.size != ctx.size:
        return -3
    result = np.fft.rfft(data).astype(np.complex64)
    write_back(spectrum, result.tobytes())
    return 0


def toyDestroyContext(ctx):
    if not isinstance(ctx, ToyContext):
        return -2
    return 0
'''

TOY_HEADER = """
#define TOY_SUCCESS 0
typedef int toy_status;
typedef struct _toy_ctx *toy_ctx;

toy_status toyCreateContext(int fft_size, toy_ctx *out_ctx);
toy_status toyForward(toy_ctx ctx, const float *signal,
                      int signal_size, void *spectrum, int spectrum_size);
toy_status toyDestroyContext(toy_ctx ctx);
"""


def main():
    from repro.codegen.generator import generate_api
    from repro.codegen.specwriter import render_spec
    from repro.hypervisor.hypervisor import ApiRegistration, Hypervisor
    from repro.remoting.buffers import OutBox
    from repro.spec import infer_preliminary_spec, parse_header, parse_spec
    from repro.stack import resolve_codec

    workdir = tempfile.mkdtemp(prefix="cava_quickstart_")

    # register the "vendor library" under an importable name
    native_path = os.path.join(workdir, "toy_native.py")
    with open(native_path, "w") as handle:
        handle.write(TOY_NATIVE_SOURCE)
    sys.path.insert(0, workdir)

    # Step 1 — CAvA infers a preliminary spec from the unmodified header
    header = parse_header(TOY_HEADER)
    preliminary = infer_preliminary_spec(header, "toyfft")
    print("=== preliminary spec (CAvA inference) ===")
    print(render_spec(preliminary))
    print("guidance for the developer:")
    for line in preliminary.guidance:
        print("  *", line)

    # Step 2 — the developer refines.  Inference already classified every
    # parameter (sizes via the `_size` convention, the handle box, the
    # record categories); we add the one thing no header can express — a
    # resource-usage estimate for the router's accounting (§4.3).
    refined_text = render_spec(preliminary).replace(
        "    parameter(signal) { buffer(signal_size); }",
        "    consumes(bus_bytes, signal_size * 4 + spectrum_size);\n"
        "    parameter(signal) { buffer(signal_size); }",
    )
    spec = parse_spec(refined_text)
    spec.constants.update(preliminary.constants)
    print("=== refined spec validates:", spec.validate() == [], "===\n")

    # Step 3 — push-button generation
    stack = generate_api(spec, os.path.join(workdir, "gen"), "toy_native")
    print("generated modules:")
    for kind, path in sorted(stack.paths.items()):
        print(f"  {kind}: {path}")

    # Step 4 — deploy: hypervisor + VM, run a forwarded FFT
    hv = Hypervisor(resolve_codec(None, [stack]))
    hv.register_api(ApiRegistration(
        name="toyfft",
        routing_table=stack.routing_table(),
        dispatch=stack.dispatch(),
        guest_module=stack.guest_module,
        # the native library is stateless: a placeholder session, with
        # a stack for the worker to push it on
        session_binder=lambda worker: SimpleNamespace(stack=[]),
    ))
    vm = hv.create_vm("guest-1")
    toy = vm.library("toyfft")

    trace_path = os.environ.get("CAVA_TRACE")
    tracer = None
    if trace_path:
        from repro.telemetry import Tracer, tracer as telemetry

        tracer = Tracer(trace_id="quickstart")
        telemetry.install(tracer)

    n = 256
    signal = np.sin(np.linspace(0, 8 * np.pi, n)).astype(np.float32)
    spectrum = np.zeros(n // 2 + 1, dtype=np.complex64)
    ctx = OutBox()
    assert toy.toyCreateContext(n, ctx) == 0
    code = toy.toyForward(ctx.value, signal, n, spectrum,
                          spectrum.nbytes)
    assert code == 0, code
    assert toy.toyDestroyContext(ctx.value) == 0

    expected = np.fft.rfft(signal).astype(np.complex64)
    peak = int(np.argmax(np.abs(spectrum)))
    print(f"\nforwarded FFT matches numpy: "
          f"{np.allclose(spectrum, expected, atol=1e-3)}")
    print(f"dominant frequency bin: {peak} (signal had 4 cycles)")
    print(f"guest virtual time: {vm.clock.now * 1e6:.1f} us; "
          f"commands routed: {hv.admin_report()['guest-1']['commands']}")

    if tracer is not None:
        from repro.telemetry import tracer as telemetry, write_perfetto

        telemetry.install(None)
        spans = tracer.all_spans()
        write_perfetto(spans, trace_path)
        layers = sorted({s.layer for s in spans})
        print(f"wrote {len(spans)} spans across layers {layers} "
              f"to {trace_path}")


if __name__ == "__main__":
    main()
