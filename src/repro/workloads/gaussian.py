"""Rodinia ``gaussian``: dense Gaussian elimination, Fan1/Fan2 kernels.

Call pattern: 2·(n−1) dependent kernel launches with no host read-backs
until the end — deep asynchronous pipelining territory.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.opencl.kernels import BUFFER, SCALAR, LaunchContext, register_kernel
from repro.workloads.base import OpenCLWorkload, WorkloadResult, allclose, close_env, open_env

SOURCE = """
__kernel void gaussian_fan1(__global float *a, __global float *m, int n,
                            int t) {}
__kernel void gaussian_fan2(__global float *a, __global float *b,
                            __global float *m, int n, int t) {}
"""


@register_kernel("gaussian_fan1", [BUFFER, BUFFER, SCALAR, SCALAR],
                 flops_per_item=1.0, bytes_per_item=8.0)
def _fan1(ctx: LaunchContext) -> None:
    n = int(ctx.scalar(2))
    t = int(ctx.scalar(3))
    a = ctx.buf(0)[: n * n].reshape(n, n)
    m = ctx.buf(1)[: n * n].reshape(n, n)
    m[t + 1:, t] = a[t + 1:, t] / a[t, t]


@register_kernel("gaussian_fan2", [BUFFER, BUFFER, BUFFER, SCALAR, SCALAR],
                 flops_per_item=2.0, bytes_per_item=12.0)
def _fan2(ctx: LaunchContext) -> None:
    n = int(ctx.scalar(3))
    t = int(ctx.scalar(4))
    a = ctx.buf(0)[: n * n].reshape(n, n)
    b = ctx.buf(1)[:n]
    m = ctx.buf(2)[: n * n].reshape(n, n)
    multipliers = m[t + 1:, t][:, None]
    a[t + 1:, t:] -= multipliers * a[t, t:][None, :]
    b[t + 1:] -= m[t + 1:, t] * b[t]


class GaussianWorkload(OpenCLWorkload):
    """Solve Ax=b by forward elimination + host back-substitution."""

    name = "gaussian"

    def __init__(self, scale: float = 1.0, seed: int = 42) -> None:
        super().__init__(scale, seed)
        self.n = max(16, int(512 * scale))

    def _inputs(self):
        rng = np.random.default_rng(self.seed)
        a = rng.random((self.n, self.n), dtype=np.float32)
        a += np.eye(self.n, dtype=np.float32) * self.n  # well-conditioned
        b = rng.random(self.n, dtype=np.float32)
        return a, b

    def reference(self) -> Dict[str, np.ndarray]:
        a, b = self._inputs()
        return {"x": np.linalg.solve(a.astype(np.float64),
                                     b.astype(np.float64)).astype(np.float32)}

    def run(self, cl: Any) -> WorkloadResult:
        a, b = self._inputs()
        n = self.n
        env = open_env(cl)
        try:
            program = env.program(SOURCE)
            fan1 = env.kernel(program, "gaussian_fan1")
            fan2 = env.kernel(program, "gaussian_fan2")

            b_a = env.buffer(a.nbytes, host=a)
            b_b = env.buffer(b.nbytes, host=b)
            b_m = env.buffer(a.nbytes,
                             host=np.zeros((n, n), dtype=np.float32))

            for t in range(n - 1):
                env.set_args(fan1, b_a, b_m, n, t)
                env.launch(fan1, [n - t - 1])
                env.set_args(fan2, b_a, b_b, b_m, n, t)
                env.launch(fan2, [(n - t - 1) * (n - t)])
            env.finish()

            upper = env.read(b_a, a.nbytes).reshape(n, n)
            rhs = env.read(b_b, b.nbytes)
        finally:
            close_env(env)

        x = np.zeros(n, dtype=np.float64)
        for i in range(n - 1, -1, -1):
            x[i] = (rhs[i] - upper[i, i + 1:] @ x[i + 1:]) / upper[i, i]
        got = x.astype(np.float32)
        ok = allclose(got, self.reference()["x"], atol=1e-2)
        return WorkloadResult(self.name, {"x": got}, ok)
