"""Rodinia ``lavaMD``: particle potentials in a 3-D box grid.

Call pattern: a couple of big uploads and ONE heavy kernel — the
compute-bound end of the suite, where forwarding overhead vanishes.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.opencl.kernels import BUFFER, SCALAR, LaunchContext, register_kernel
from repro.workloads.base import OpenCLWorkload, WorkloadResult, allclose, close_env, open_env

SOURCE = """
__kernel void lavamd_force(__global float *pos, __global float *charge,
                           __global float *force, int boxes_1d,
                           int per_box, float alpha) {}
"""


def _neighbor_boxes(boxes_1d: int):
    """For each box, the flat indices of itself + adjacent boxes."""
    neighbors = []
    for bx in range(boxes_1d):
        for by in range(boxes_1d):
            for bz in range(boxes_1d):
                local = []
                for dx in (-1, 0, 1):
                    for dy in (-1, 0, 1):
                        for dz in (-1, 0, 1):
                            nx, ny, nz = bx + dx, by + dy, bz + dz
                            if (0 <= nx < boxes_1d and 0 <= ny < boxes_1d
                                    and 0 <= nz < boxes_1d):
                                local.append(
                                    (nx * boxes_1d + ny) * boxes_1d + nz
                                )
                neighbors.append(local)
    return neighbors


def _forces(pos, charge, boxes_1d, per_box, alpha):
    n_boxes = boxes_1d ** 3
    force = np.zeros_like(pos)
    neighbors = _neighbor_boxes(boxes_1d)
    a2 = alpha * alpha
    for home in range(n_boxes):
        h0 = home * per_box
        hp = pos[h0:h0 + per_box]
        for other in neighbors[home]:
            o0 = other * per_box
            op = pos[o0:o0 + per_box]
            oq = charge[o0:o0 + per_box]
            delta = hp[:, None, :] - op[None, :, :]
            r2 = (delta ** 2).sum(axis=2) + 0.5
            u2 = a2 * r2
            vij = np.exp(-u2) * oq[None, :]
            force[h0:h0 + per_box] += (
                (vij / r2)[:, :, None] * delta
            ).sum(axis=1)
    return force.astype(np.float32)


# cost metadata reflects the real Rodinia kernel's arithmetic density
# (~27 neighbour boxes × ~100 particles × ~60 flops per interaction) and
# its heavy divergence, independent of the scaled-down particle count the
# simulator executes
@register_kernel("lavamd_force", [BUFFER, BUFFER, BUFFER, SCALAR, SCALAR,
                                  SCALAR],
                 flops_per_item=160000.0, bytes_per_item=48.0,
                 efficiency=0.1)
def _lavamd_force(ctx: LaunchContext) -> None:
    boxes_1d = int(ctx.scalar(3))
    per_box = int(ctx.scalar(4))
    alpha = float(ctx.scalar(5))
    n = boxes_1d ** 3 * per_box
    pos = ctx.buf(0)[: 3 * n].reshape(n, 3)
    charge = ctx.buf(1)[:n]
    out = ctx.buf(2)[: 3 * n].reshape(n, 3)
    out[:] = _forces(pos, charge, boxes_1d, per_box, alpha)


class LavaMDWorkload(OpenCLWorkload):
    """One heavy n-body-in-boxes kernel."""

    name = "lavamd"

    def __init__(self, scale: float = 1.0, seed: int = 42) -> None:
        super().__init__(scale, seed)
        self.boxes_1d = max(2, int(6 * scale))
        self.per_box = 32
        self.alpha = 0.5

    def _inputs(self):
        rng = np.random.default_rng(self.seed)
        n = self.boxes_1d ** 3 * self.per_box
        pos = rng.random((n, 3), dtype=np.float32) * self.boxes_1d
        charge = rng.random(n, dtype=np.float32)
        return pos, charge

    def reference(self) -> Dict[str, np.ndarray]:
        pos, charge = self._inputs()
        return {"force": _forces(pos, charge, self.boxes_1d, self.per_box,
                                 self.alpha)}

    def run(self, cl: Any) -> WorkloadResult:
        pos, charge = self._inputs()
        n = pos.shape[0]
        env = open_env(cl)
        try:
            program = env.program(SOURCE)
            kernel = env.kernel(program, "lavamd_force")
            b_pos = env.buffer(pos.nbytes, host=pos)
            b_charge = env.buffer(charge.nbytes, host=charge)
            b_force = env.buffer(pos.nbytes)
            env.set_args(kernel, b_pos, b_charge, b_force, self.boxes_1d,
                         self.per_box, float(self.alpha))
            env.launch(kernel, [n])
            env.finish()
            got = env.read(b_force, pos.nbytes).reshape(n, 3)
        finally:
            close_env(env)
        ok = allclose(got, self.reference()["force"], atol=1e-3)
        return WorkloadResult(self.name, {"force": got}, ok,
                              detail=f"{n} particles")
