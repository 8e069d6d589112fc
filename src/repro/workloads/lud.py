"""Rodinia ``lud``: blocked LU decomposition.

Call pattern: three kernels per block step (diagonal, perimeter,
internal) over a shrinking trailing matrix — a medium-length dependent
launch chain with no intermediate read-backs.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.opencl.kernels import BUFFER, SCALAR, LaunchContext, register_kernel
from repro.workloads.base import OpenCLWorkload, WorkloadResult, allclose, close_env, open_env

SOURCE = """
__kernel void lud_diagonal(__global float *a, int n, int offset, int bs) {}
__kernel void lud_perimeter(__global float *a, int n, int offset, int bs) {}
__kernel void lud_internal(__global float *a, int n, int offset, int bs) {}
"""


@register_kernel("lud_diagonal", [BUFFER, SCALAR, SCALAR, SCALAR],
                 flops_per_item=8.0, bytes_per_item=16.0)
def _lud_diagonal(ctx: LaunchContext) -> None:
    n = int(ctx.scalar(1))
    offset = int(ctx.scalar(2))
    bs = int(ctx.scalar(3))
    a = ctx.buf(0)[: n * n].reshape(n, n)
    block = a[offset:offset + bs, offset:offset + bs]
    for i in range(bs):
        block[i + 1:, i] /= block[i, i]
        block[i + 1:, i + 1:] -= np.outer(block[i + 1:, i], block[i, i + 1:])


@register_kernel("lud_perimeter", [BUFFER, SCALAR, SCALAR, SCALAR],
                 flops_per_item=16.0, bytes_per_item=24.0)
def _lud_perimeter(ctx: LaunchContext) -> None:
    n = int(ctx.scalar(1))
    offset = int(ctx.scalar(2))
    bs = int(ctx.scalar(3))
    a = ctx.buf(0)[: n * n].reshape(n, n)
    end = offset + bs
    diag = a[offset:end, offset:end]
    lower = np.tril(diag, -1) + np.eye(bs, dtype=np.float32)
    upper = np.triu(diag)
    if end < n:
        # row panel: solve L @ X = A_panel
        a[offset:end, end:] = np.linalg.solve(
            lower.astype(np.float64), a[offset:end, end:].astype(np.float64)
        ).astype(np.float32)
        # column panel: solve X @ U = A_panel
        a[end:, offset:end] = np.linalg.solve(
            upper.T.astype(np.float64), a[end:, offset:end].T.astype(np.float64)
        ).T.astype(np.float32)


@register_kernel("lud_internal", [BUFFER, SCALAR, SCALAR, SCALAR],
                 flops_per_item=32.0, bytes_per_item=24.0)
def _lud_internal(ctx: LaunchContext) -> None:
    n = int(ctx.scalar(1))
    offset = int(ctx.scalar(2))
    bs = int(ctx.scalar(3))
    a = ctx.buf(0)[: n * n].reshape(n, n)
    end = offset + bs
    if end < n:
        a[end:, end:] -= a[end:, offset:end] @ a[offset:end, end:]


class LUDWorkload(OpenCLWorkload):
    """In-place blocked LU; verified by L @ U ≈ A."""

    name = "lud"

    def __init__(self, scale: float = 1.0, seed: int = 42) -> None:
        super().__init__(scale, seed)
        self.block = 16
        # the kernels factor whole blocks: round n down to a multiple
        self.n = max(32, int(512 * scale)) // self.block * self.block

    def _inputs(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        a = rng.random((self.n, self.n), dtype=np.float32)
        a += np.eye(self.n, dtype=np.float32) * self.n
        return a

    def reference(self) -> Dict[str, np.ndarray]:
        return {"a": self._inputs()}

    def run(self, cl: Any) -> WorkloadResult:
        a = self._inputs()
        n, bs = self.n, self.block
        env = open_env(cl)
        try:
            program = env.program(SOURCE)
            diagonal = env.kernel(program, "lud_diagonal")
            perimeter = env.kernel(program, "lud_perimeter")
            internal = env.kernel(program, "lud_internal")
            b_a = env.buffer(a.nbytes, host=a)
            for offset in range(0, n, bs):
                env.set_args(diagonal, b_a, n, offset, bs)
                env.launch(diagonal, [bs * bs])
                if offset + bs < n:
                    env.set_args(perimeter, b_a, n, offset, bs)
                    env.launch(perimeter, [(n - offset) * bs])
                    env.set_args(internal, b_a, n, offset, bs)
                    env.launch(internal, [(n - offset - bs) ** 2])
            env.finish()
            decomposed = env.read(b_a, a.nbytes).reshape(n, n)
        finally:
            close_env(env)
        lower = np.tril(decomposed, -1) + np.eye(n, dtype=np.float32)
        upper = np.triu(decomposed)
        product = lower @ upper
        ok = allclose(product, a, atol=self.n * 1e-3)
        return WorkloadResult(self.name, {"lu": decomposed}, bool(ok))
