"""Rodinia ``backprop``: one training step of a 2-layer perceptron.

Call pattern: a handful of medium buffers up, four kernel launches, two
reads back — moderate chattiness, moderate data volume.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.opencl.kernels import BUFFER, SCALAR, LaunchContext, register_kernel
from repro.workloads.base import OpenCLWorkload, WorkloadResult, allclose, close_env, open_env

SOURCE = """
__kernel void bp_layerforward(__global float *x, __global float *w,
                              __global float *out, int in_n, int out_n) {}
__kernel void bp_output_error(__global float *out, __global float *target,
                              __global float *delta, int n) {}
__kernel void bp_hidden_error(__global float *delta_o, __global float *w2,
                              __global float *hidden, __global float *delta_h,
                              int hid_n, int out_n) {}
__kernel void bp_adjust_weights(__global float *delta, __global float *ly,
                                __global float *w, int in_n, int out_n,
                                float eta) {}
"""


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _weights(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """``(rng.random(shape) - 0.5) * 0.1`` in float32, built in place."""
    w = rng.random(shape, dtype=np.float32)
    w -= 0.5
    w *= 0.1
    return w


@register_kernel("bp_layerforward", [BUFFER, BUFFER, BUFFER, SCALAR, SCALAR],
                 flops_per_item=2.0, bytes_per_item=8.0)
def _bp_layerforward(ctx: LaunchContext) -> None:
    in_n = int(ctx.scalar(3))
    out_n = int(ctx.scalar(4))
    x = ctx.buf(0)[:in_n]
    w = ctx.buf(1)[: in_n * out_n].reshape(in_n, out_n)
    ctx.buf(2)[:out_n] = _sigmoid(x @ w)


@register_kernel("bp_output_error", [BUFFER, BUFFER, BUFFER, SCALAR],
                 flops_per_item=3.0, bytes_per_item=12.0)
def _bp_output_error(ctx: LaunchContext) -> None:
    n = int(ctx.scalar(3))
    out = ctx.buf(0)[:n]
    target = ctx.buf(1)[:n]
    ctx.buf(2)[:n] = out * (1.0 - out) * (target - out)


@register_kernel("bp_hidden_error",
                 [BUFFER, BUFFER, BUFFER, BUFFER, SCALAR, SCALAR],
                 flops_per_item=4.0, bytes_per_item=12.0)
def _bp_hidden_error(ctx: LaunchContext) -> None:
    hid_n = int(ctx.scalar(4))
    out_n = int(ctx.scalar(5))
    delta_o = ctx.buf(0)[:out_n]
    w2 = ctx.buf(1)[: hid_n * out_n].reshape(hid_n, out_n)
    hidden = ctx.buf(2)[:hid_n]
    ctx.buf(3)[:hid_n] = hidden * (1.0 - hidden) * (w2 @ delta_o)


@register_kernel("bp_adjust_weights",
                 [BUFFER, BUFFER, BUFFER, SCALAR, SCALAR, SCALAR],
                 flops_per_item=3.0, bytes_per_item=12.0)
def _bp_adjust_weights(ctx: LaunchContext) -> None:
    in_n = int(ctx.scalar(3))
    out_n = int(ctx.scalar(4))
    eta = float(ctx.scalar(5))
    delta = ctx.buf(0)[:out_n]
    ly = ctx.buf(1)[:in_n]
    w = ctx.buf(2)[: in_n * out_n].reshape(in_n, out_n)
    step = np.outer(ly, delta)
    step *= eta
    w += step


class BackpropWorkload(OpenCLWorkload):
    """One forward + backward + update step, verified against numpy."""

    name = "backprop"

    def __init__(self, scale: float = 1.0, seed: int = 42) -> None:
        super().__init__(scale, seed)
        self.in_n = max(8, int(131072 * scale))
        self.hid_n = 128
        self.out_n = 16
        self.eta = 0.3

    def _inputs(self) -> Dict[str, np.ndarray]:
        rng = np.random.default_rng(self.seed)
        return {
            "x": rng.random(self.in_n, dtype=np.float32),
            "w1": _weights(rng, (self.in_n, self.hid_n)),
            "w2": _weights(rng, (self.hid_n, self.out_n)),
            "target": rng.random(self.out_n, dtype=np.float32),
        }

    def reference(self) -> Dict[str, np.ndarray]:
        v = self._inputs()
        hidden = _sigmoid(v["x"] @ v["w1"])
        out = _sigmoid(hidden @ v["w2"])
        delta_o = out * (1 - out) * (v["target"] - out)
        delta_h = hidden * (1 - hidden) * (v["w2"] @ delta_o)
        w2 = v["w2"] + self.eta * np.outer(hidden, delta_o)
        w1 = v["w1"]
        step = np.outer(v["x"], delta_h)
        step *= self.eta
        w1 += step
        return {"w1": w1, "w2": w2, "out": out}

    def run(self, cl: Any) -> WorkloadResult:
        v = self._inputs()
        env = open_env(cl)
        try:
            program = env.program(SOURCE)
            forward = env.kernel(program, "bp_layerforward")
            out_err = env.kernel(program, "bp_output_error")
            hid_err = env.kernel(program, "bp_hidden_error")
            adjust = env.kernel(program, "bp_adjust_weights")

            x = env.buffer(v["x"].nbytes, host=v["x"])
            w1 = env.buffer(v["w1"].nbytes, host=v["w1"])
            w2 = env.buffer(v["w2"].nbytes, host=v["w2"])
            target = env.buffer(v["target"].nbytes, host=v["target"])
            hidden = env.buffer(4 * self.hid_n)
            out = env.buffer(4 * self.out_n)
            delta_o = env.buffer(4 * self.out_n)
            delta_h = env.buffer(4 * self.hid_n)
            del v  # the buffers hold the inputs now

            env.set_args(forward, x, w1, hidden, self.in_n, self.hid_n)
            env.launch(forward, [self.in_n * self.hid_n])
            env.set_args(forward, hidden, w2, out, self.hid_n, self.out_n)
            env.launch(forward, [self.hid_n * self.out_n])
            env.set_args(out_err, out, target, delta_o, self.out_n)
            env.launch(out_err, [self.out_n])
            env.set_args(hid_err, delta_o, w2, hidden, delta_h, self.hid_n,
                         self.out_n)
            env.launch(hid_err, [self.hid_n])
            env.set_args(adjust, delta_o, hidden, w2, self.hid_n, self.out_n,
                         float(self.eta))
            env.launch(adjust, [self.hid_n * self.out_n])
            env.set_args(adjust, delta_h, x, w1, self.in_n, self.hid_n,
                         float(self.eta))
            env.launch(adjust, [self.in_n * self.hid_n])
            env.finish()

            got_w1 = env.read(w1, 4 * self.in_n * self.hid_n).reshape(
                self.in_n, self.hid_n)
            got_w2 = env.read(w2, 4 * self.hid_n * self.out_n).reshape(
                self.hid_n, self.out_n)
        finally:
            close_env(env)
        ref = self.reference()
        ok = (allclose(got_w1, ref["w1"], atol=1e-4)
              and allclose(got_w2, ref["w2"], atol=1e-4))
        return WorkloadResult(self.name, {"w1": got_w1, "w2": got_w2}, ok)
