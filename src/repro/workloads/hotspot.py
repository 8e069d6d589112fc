"""Rodinia ``hotspot``: thermal simulation, iterative 2-D stencil.

Call pattern: one kernel launch per timestep on a ping-pong buffer
pair, all asynchronous, with a single read at the end.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.opencl.kernels import BUFFER, SCALAR, LaunchContext, register_kernel
from repro.workloads.base import OpenCLWorkload, WorkloadResult, allclose, close_env, open_env

SOURCE = """
__kernel void hotspot_step(__global float *temp_in, __global float *power,
                           __global float *temp_out, int rows, int cols,
                           float cap, float rx, float ry, float rz,
                           float amb) {}
"""


def _step(temp, power, cap, rx, ry, rz, amb):
    padded = np.pad(temp, 1, mode="edge")
    north = padded[:-2, 1:-1]
    south = padded[2:, 1:-1]
    west = padded[1:-1, :-2]
    east = padded[1:-1, 2:]
    delta = (
        power
        + (north + south - 2.0 * temp) / ry
        + (east + west - 2.0 * temp) / rx
        + (amb - temp) / rz
    ) / cap
    return (temp + delta).astype(np.float32)


@register_kernel(
    "hotspot_step",
    [BUFFER, BUFFER, BUFFER, SCALAR, SCALAR, SCALAR, SCALAR, SCALAR, SCALAR,
     SCALAR],
    flops_per_item=15.0, bytes_per_item=12.0,
)
def _hotspot_step(ctx: LaunchContext) -> None:
    rows = int(ctx.scalar(3))
    cols = int(ctx.scalar(4))
    cap, rx, ry, rz, amb = (float(ctx.scalar(i)) for i in range(5, 10))
    temp = ctx.buf(0)[: rows * cols].reshape(rows, cols)
    power = ctx.buf(1)[: rows * cols].reshape(rows, cols)
    ctx.buf(2)[: rows * cols] = _step(temp, power, cap, rx, ry, rz,
                                      amb).reshape(-1)


class HotspotWorkload(OpenCLWorkload):
    """Iterated thermal stencil with ping-pong temperature grids."""

    name = "hotspot"
    # cap=16 keeps the explicit scheme stable: each neighbour term
    # contributes 1/16 ≤ the 0.25 diffusion stability bound
    params = dict(cap=16.0, rx=1.0, ry=1.0, rz=4.0, amb=80.0)

    def __init__(self, scale: float = 1.0, seed: int = 42) -> None:
        super().__init__(scale, seed)
        self.rows = self.cols = max(16, int(512 * scale))
        self.steps = 60

    def _inputs(self):
        rng = np.random.default_rng(self.seed)
        temp = 60 + 20 * rng.random((self.rows, self.cols), dtype=np.float32)
        power = rng.random((self.rows, self.cols), dtype=np.float32) * 0.5
        return temp, power

    def reference(self) -> Dict[str, np.ndarray]:
        temp, power = self._inputs()
        for _ in range(self.steps):
            temp = _step(temp, power, **self.params)
        return {"temp": temp}

    def run(self, cl: Any) -> WorkloadResult:
        temp, power = self._inputs()
        size = temp.nbytes
        env = open_env(cl)
        try:
            program = env.program(SOURCE)
            kernel = env.kernel(program, "hotspot_step")
            b_power = env.buffer(size, host=power)
            grids = [env.buffer(size, host=temp), env.buffer(size)]
            p = self.params
            for step in range(self.steps):
                src, dst = grids[step % 2], grids[(step + 1) % 2]
                env.set_args(kernel, src, b_power, dst, self.rows, self.cols,
                             float(p["cap"]), float(p["rx"]), float(p["ry"]),
                             float(p["rz"]), float(p["amb"]))
                env.launch(kernel, [self.rows * self.cols])
            env.finish()
            got = env.read(grids[self.steps % 2], size).reshape(
                self.rows, self.cols)
        finally:
            close_env(env)
        ok = allclose(got, self.reference()["temp"], atol=1e-2)
        return WorkloadResult(self.name, {"temp": got}, ok,
                              detail=f"{self.steps} steps")
