"""Rodinia ``nn``: k-nearest-neighbors by brute-force distance.

Call pattern: one large upload, one streaming kernel, one large read —
dominated by PCIe traffic, light on calls.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.opencl.kernels import BUFFER, SCALAR, LaunchContext, register_kernel
from repro.workloads.base import OpenCLWorkload, WorkloadResult, close_env, open_env

SOURCE = """
__kernel void nn_distance(__global float *locations, __global float *dist,
                          float lat, float lng, int n) {}
"""


@register_kernel("nn_distance", [BUFFER, BUFFER, SCALAR, SCALAR, SCALAR],
                 flops_per_item=5.0, bytes_per_item=12.0)
def _nn_distance(ctx: LaunchContext) -> None:
    lat = float(ctx.scalar(2))
    lng = float(ctx.scalar(3))
    n = int(ctx.scalar(4))
    locations = ctx.buf(0)[: 2 * n].reshape(n, 2)
    ctx.buf(1)[:n] = np.sqrt(
        (locations[:, 0] - lat) ** 2 + (locations[:, 1] - lng) ** 2
    )


def nearest_k(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` smallest ``values``, in index order.

    The same indices as ``np.sort(np.argsort(values, kind="stable")[:k])``
    (ties at the k-th value go to the lower indices) for values without
    NaN, in O(n): a partition finds the k-th value, then every index
    below it and the first ties at it are kept.
    """
    if k >= values.size:
        return np.arange(values.size)
    kth = np.partition(values, k - 1)[k - 1]
    below = np.flatnonzero(values < kth)
    ties = np.flatnonzero(values == kth)[: k - below.size]
    return np.sort(np.concatenate((below, ties)))


class NNWorkload(OpenCLWorkload):
    """Find the k closest records to a query point."""

    name = "nn"

    def __init__(self, scale: float = 1.0, seed: int = 42) -> None:
        super().__init__(scale, seed)
        self.n = max(256, int(2097152 * scale))
        self.k = 10
        self.query = (30.0, 90.0)

    def _inputs(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        locations = np.empty((self.n, 2), dtype=np.float32)
        locations[:, 0] = rng.random(self.n, dtype=np.float32) * 180 - 90
        locations[:, 1] = rng.random(self.n, dtype=np.float32) * 360 - 180
        return locations

    def reference(self) -> Dict[str, np.ndarray]:
        locations = self._inputs()
        distances = np.sqrt(
            (locations[:, 0] - self.query[0]) ** 2
            + (locations[:, 1] - self.query[1]) ** 2
        )
        return {"nearest": nearest_k(distances, self.k)}

    def run(self, cl: Any) -> WorkloadResult:
        locations = self._inputs()
        env = open_env(cl)
        try:
            program = env.program(SOURCE)
            kernel = env.kernel(program, "nn_distance")
            b_locations = env.buffer(locations.nbytes, host=locations)
            b_dist = env.buffer(4 * self.n)
            env.set_args(kernel, b_locations, b_dist, float(self.query[0]),
                         float(self.query[1]), self.n)
            env.launch(kernel, [self.n])
            distances = env.read(b_dist, 4 * self.n)
        finally:
            close_env(env)
        nearest = nearest_k(distances, self.k)
        ok = bool((nearest == self.reference()["nearest"]).all())
        return WorkloadResult(self.name, {"nearest": nearest}, ok)
