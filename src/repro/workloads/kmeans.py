"""Rodinia ``kmeans``: clustering with per-iteration host read-back.

Call pattern follows Rodinia's split: the device assigns memberships,
the *host* recomputes centroids — so every iteration writes centers
down and blocks reading memberships back.  Moderate chattiness with
medium payloads.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.opencl.kernels import BUFFER, SCALAR, LaunchContext, register_kernel
from repro.workloads.base import OpenCLWorkload, WorkloadResult, close_env, open_env

SOURCE = """
__kernel void kmeans_assign(__global float *points, __global float *centers,
                            __global int *membership, int n, int d, int k) {}
"""


def _pairwise_sum(rows: np.ndarray) -> np.ndarray:
    """``rows`` summed down axis 0 in the order numpy's float
    ``add.reduce`` takes over a contiguous run of ``len(rows)`` elements
    (its pairwise summation, for terms that are never -0.0): below 8 a
    sequential sum from zero; to 128 eight interleaved partial sums
    ``r[j] = rows[j] + rows[j + 8] + ...`` combined as
    ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``, then the tail
    in order; above 128 the two halves, split at a multiple of 8.

    This mirrors numpy's implementation, not a documented contract:
    ``test_nearest_center_matches_the_broadcast`` is the guard if numpy
    ever changes it."""
    d = len(rows)
    if d < 8:
        return sum(rows, np.zeros_like(rows[0]))
    if d > 128:
        half = d // 2 - d // 2 % 8
        return _pairwise_sum(rows[:half]) + _pairwise_sum(rows[half:])
    body = d - d % 8
    r = sum((rows[i:i + 8] for i in range(8, body, 8)), rows[:8])
    pairs = r[0::2] + r[1::2]
    return sum(rows[body:], (pairs[0] + pairs[1]) + (pairs[2] + pairs[3]))


def _nearest_center(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Each point's nearest center by squared distance (the first one on
    a tie), one (d, n) pass per center over the points held column-wise:
    every distance is the same d-element sum the whole (n, k, d)
    broadcast would take."""
    columns = np.ascontiguousarray(points.T)
    squares = np.empty(columns.shape, dtype=np.result_type(points, centers))
    distances = np.empty((len(centers), len(points)), dtype=squares.dtype)
    for j, center in enumerate(centers):
        np.subtract(columns, center[:, None], out=squares)
        np.square(squares, out=squares)
        distances[j] = _pairwise_sum(squares)
    return distances.argmin(axis=0)


@register_kernel("kmeans_assign", [BUFFER, BUFFER, BUFFER, SCALAR, SCALAR,
                                   SCALAR],
                 flops_per_item=48.0, bytes_per_item=36.0)
def _kmeans_assign(ctx: LaunchContext) -> None:
    n = int(ctx.scalar(3))
    d = int(ctx.scalar(4))
    k = int(ctx.scalar(5))
    points = ctx.buf(0)[: n * d].reshape(n, d)
    centers = ctx.buf(1)[: k * d].reshape(k, d)
    ctx.buf(2, np.int32)[:n] = _nearest_center(points, centers)


def _kmeans_reference(points: np.ndarray, centers: np.ndarray,
                      iterations: int):
    k = centers.shape[0]
    membership = None
    for _ in range(iterations):
        new_membership = _nearest_center(points, centers)
        if membership is not None and (new_membership == membership).all():
            membership = new_membership
            break
        membership = new_membership
        for j in range(k):
            chosen = points[membership == j]
            if len(chosen):
                centers[j] = chosen.mean(axis=0)
    return membership.astype(np.int32), centers


class KMeansWorkload(OpenCLWorkload):
    """Device assignment + host centroid update until convergence."""

    name = "kmeans"

    def __init__(self, scale: float = 1.0, seed: int = 42) -> None:
        super().__init__(scale, seed)
        self.n = max(64, int(49152 * scale))
        self.d = 16
        self.k = 8
        self.max_iters = 20

    def _inputs(self):
        rng = np.random.default_rng(self.seed)
        blob_centers = rng.random((self.k, self.d), dtype=np.float32) * 10
        assignments = rng.integers(0, self.k, self.n)
        points = (blob_centers[assignments]
                  + rng.normal(0, 0.5, (self.n, self.d))).astype(np.float32)
        initial = points[:: self.n // self.k][: self.k].copy()
        return points, initial

    def reference(self) -> Dict[str, np.ndarray]:
        points, centers = self._inputs()
        membership, final = _kmeans_reference(points.copy(), centers.copy(),
                                              self.max_iters)
        return {"membership": membership, "centers": final}

    def run(self, cl: Any) -> WorkloadResult:
        points, centers = self._inputs()
        n, d, k = self.n, self.d, self.k
        env = open_env(cl)
        try:
            program = env.program(SOURCE)
            assign = env.kernel(program, "kmeans_assign")
            b_points = env.buffer(points.nbytes, host=points)
            b_centers = env.buffer(centers.nbytes, host=centers)
            b_membership = env.buffer(4 * n)
            env.set_args(assign, b_points, b_centers, b_membership, n, d, k)

            membership = None
            iterations = 0
            for _ in range(self.max_iters):
                env.launch(assign, [n * k])
                new_membership = env.read(b_membership, 4 * n,
                                          dtype=np.int32)
                iterations += 1
                if membership is not None and \
                        (new_membership == membership).all():
                    membership = new_membership
                    break
                membership = new_membership
                for j in range(k):
                    chosen = points[membership == j]
                    if len(chosen):
                        centers[j] = chosen.mean(axis=0)
                env.write(b_centers, centers, blocking=False)
            env.finish()
        finally:
            close_env(env)
        ref = self.reference()
        ok = (membership == ref["membership"]).mean() > 0.99
        return WorkloadResult(self.name, {"membership": membership}, bool(ok),
                              detail=f"{iterations} iterations")
