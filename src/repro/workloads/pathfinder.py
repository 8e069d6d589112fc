"""Rodinia ``pathfinder``: row-by-row dynamic programming.

Call pattern: one small kernel per grid row, all async, one final read.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.opencl.kernels import BUFFER, SCALAR, LaunchContext, register_kernel
from repro.workloads.base import OpenCLWorkload, WorkloadResult, close_env, open_env

SOURCE = """
__kernel void pathfinder_row(__global int *wall, __global int *src,
                             __global int *dst, int cols, int row) {}
"""


@register_kernel("pathfinder_row", [BUFFER, BUFFER, BUFFER, SCALAR, SCALAR],
                 flops_per_item=4.0, bytes_per_item=16.0)
def _pathfinder_row(ctx: LaunchContext) -> None:
    cols = int(ctx.scalar(3))
    row = int(ctx.scalar(4))
    wall = ctx.buf(0, np.int32)
    src = ctx.buf(1, np.int32)[:cols]
    dst = ctx.buf(2, np.int32)
    left = np.empty(cols, dtype=np.int32)
    right = np.empty(cols, dtype=np.int32)
    left[0], left[1:] = src[0], src[:-1]
    right[-1], right[:-1] = src[-1], src[1:]
    best = np.minimum(src, np.minimum(left, right))
    dst[:cols] = wall[row * cols:(row + 1) * cols] + best


def _pathfinder_reference(wall: np.ndarray) -> np.ndarray:
    rows, cols = wall.shape
    current = wall[0].astype(np.int32)
    for row in range(1, rows):
        left = np.empty(cols, dtype=np.int32)
        right = np.empty(cols, dtype=np.int32)
        left[0], left[1:] = current[0], current[:-1]
        right[-1], right[:-1] = current[-1], current[1:]
        current = wall[row] + np.minimum(current,
                                         np.minimum(left, right))
    return current


class PathfinderWorkload(OpenCLWorkload):
    """Minimum-cost path accumulation over a cost grid."""

    name = "pathfinder"

    def __init__(self, scale: float = 1.0, seed: int = 42) -> None:
        super().__init__(scale, seed)
        self.rows = 100
        self.cols = max(256, int(131072 * scale))

    def _inputs(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        wall = np.empty((self.rows, self.cols), dtype=np.int32)
        for row in wall:   # one row at a time: the same draws, no int64 grid
            row[:] = rng.integers(0, 10, self.cols)
        return wall

    def reference(self) -> Dict[str, np.ndarray]:
        return {"result": _pathfinder_reference(self._inputs())}

    def run(self, cl: Any) -> WorkloadResult:
        wall = self._inputs()
        rows, cols = wall.shape
        env = open_env(cl)
        try:
            program = env.program(SOURCE)
            kernel = env.kernel(program, "pathfinder_row")
            b_wall = env.buffer(wall.nbytes, host=wall)
            pong = [env.buffer(4 * cols, host=wall[0].copy()),
                    env.buffer(4 * cols)]
            for row in range(1, rows):
                src, dst = pong[(row - 1) % 2], pong[row % 2]
                env.set_args(kernel, b_wall, src, dst, cols, row)
                env.launch(kernel, [cols])
            env.finish()
            got = env.read(pong[(rows - 1) % 2], 4 * cols, dtype=np.int32)
        finally:
            close_env(env)
        ok = bool((got == self.reference()["result"]).all())
        return WorkloadResult(self.name, {"result": got}, ok,
                              detail=f"{rows} rows")
