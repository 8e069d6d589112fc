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


#: particle pairs per batched step: 256 boxes of 32 x 32, so each
#: (3, boxes, per_box, per_box) temporary stays 3 MiB at any grid size
_PAIRS_PER_STEP = 1 << 18

#: neighbour offsets in the order each home box visits its neighbours
_OFFSETS = [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
            for dz in (-1, 0, 1)]


def _forces(pos, charge, boxes_1d, per_box, alpha):
    """Every particle's force from its own and the 26 adjacent boxes.

    One batched step per neighbour offset (and per :data:`_PAIRS_PER_STEP`
    particle pairs): the home boxes whose neighbour at that offset lies
    in the grid, each against that neighbour.  Positions are held
    component-major, so ``r2`` is the sequential 3-term sum a length-3
    reduction takes, the force is summed over the other particle on a
    non-innermost axis (which numpy adds in order), and each home box
    receives its neighbours' contributions in offset order: the same
    float operations as one (home box, neighbour box) pair at a time."""
    b = boxes_1d
    grid = np.arange(b ** 3).reshape(b, b, b)
    # (3, boxes, per_box), component-major
    points = np.ascontiguousarray(
        pos.reshape(-1, per_box, 3).transpose(2, 0, 1))
    charges = charge.reshape(-1, per_box)
    force = np.zeros_like(points)
    a2 = alpha * alpha
    step = max(1, _PAIRS_PER_STEP // (per_box * per_box))
    for offset in _OFFSETS:
        home = tuple(slice(max(0, -d), b - max(0, d)) for d in offset)
        other = tuple(slice(max(0, d), b - max(0, -d)) for d in offset)
        homes, others = grid[home].ravel(), grid[other].ravel()
        for lo in range(0, homes.size, step):
            h, o = homes[lo:lo + step], others[lo:lo + step]
            # delta[c, box, j, i] = home particle i - other particle j
            delta = points[:, h, None, :] - points[:, o, :, None]
            r2 = delta[0] ** 2
            r2 += delta[1] ** 2
            r2 += delta[2] ** 2
            r2 += 0.5
            weight = np.exp(-(a2 * r2)) * charges[o, :, None]
            weight /= r2
            delta *= weight
            force[:, h] += delta.sum(axis=2)
    return force.reshape(3, -1).T.astype(np.float32, order="C")


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
