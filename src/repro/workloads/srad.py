"""Rodinia ``srad``: speckle-reducing anisotropic diffusion.

Call pattern: two dependent kernels per iteration plus a small blocking
statistics read each iteration (the mean/variance of the ROI, which the
host needs to parameterize the next step) — mixed chattiness.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

import numpy as np

from repro.opencl.kernels import BUFFER, SCALAR, LaunchContext, register_kernel
from repro.workloads.base import OpenCLWorkload, WorkloadResult, allclose, close_env, open_env

SOURCE = """
__kernel void srad_kernel1(__global float *img, __global float *c,
                           int rows, int cols, float q0sqr) {}
__kernel void srad_kernel2(__global float *img, __global float *c,
                           int rows, int cols, float lam) {}
__kernel void srad_stats(__global float *img, __global float *out,
                         int rows, int cols) {}
"""


def _shifts(img: np.ndarray) -> Tuple[np.ndarray, ...]:
    """North, south, west and east neighbours, the edge repeated."""
    padded = np.pad(img, 1, mode="edge")
    return (padded[:-2, 1:-1], padded[2:, 1:-1], padded[1:-1, :-2],
            padded[1:-1, 2:])


def _diffusion_coefficient(img: np.ndarray, q0sqr: float) -> np.ndarray:
    north, south, west, east = _shifts(img)
    laplacian = north + south + west + east - 4 * img
    gradient2 = ((north - img) ** 2 + (south - img) ** 2
                 + (west - img) ** 2 + (east - img) ** 2) / (img ** 2 + 1e-8)
    ratio = laplacian / (4 * img + 1e-8)
    num = 0.5 * gradient2 - ratio ** 2
    den = (1 + ratio) ** 2 + 1e-8
    q = num / den
    c = 1.0 / (1.0 + (q - q0sqr) / (q0sqr * (1 + q0sqr) + 1e-8))
    return np.clip(c, 0.0, 1.0).astype(np.float32)


def _diffuse(img: np.ndarray, c: np.ndarray, lam: float) -> np.ndarray:
    # only the south and east neighbours of c: pad the far edges
    padded_c = np.pad(c, ((0, 1), (0, 1)), mode="edge")
    south_c, east_c = padded_c[1:, :-1], padded_c[:-1, 1:]
    north, south, west, east = _shifts(img)
    divergence = (
        c * (north - img) + south_c * (south - img)
        + c * (west - img) + east_c * (east - img)
    )
    return (img + (lam / 4.0) * divergence).astype(np.float32)


@register_kernel("srad_kernel1", [BUFFER, BUFFER, SCALAR, SCALAR, SCALAR],
                 flops_per_item=30.0, bytes_per_item=24.0)
def _srad_kernel1(ctx: LaunchContext) -> None:
    rows = int(ctx.scalar(2))
    cols = int(ctx.scalar(3))
    q0sqr = float(ctx.scalar(4))
    img = ctx.buf(0)[: rows * cols].reshape(rows, cols)
    ctx.buf(1)[: rows * cols] = _diffusion_coefficient(
        img, q0sqr).reshape(-1)


@register_kernel("srad_kernel2", [BUFFER, BUFFER, SCALAR, SCALAR, SCALAR],
                 flops_per_item=20.0, bytes_per_item=24.0)
def _srad_kernel2(ctx: LaunchContext) -> None:
    rows = int(ctx.scalar(2))
    cols = int(ctx.scalar(3))
    lam = float(ctx.scalar(4))
    img = ctx.buf(0)[: rows * cols].reshape(rows, cols)
    c = ctx.buf(1)[: rows * cols].reshape(rows, cols)
    img[:] = _diffuse(img, c, lam)


@register_kernel("srad_stats", [BUFFER, BUFFER, SCALAR, SCALAR],
                 flops_per_item=2.0, bytes_per_item=4.0)
def _srad_stats(ctx: LaunchContext) -> None:
    rows = int(ctx.scalar(2))
    cols = int(ctx.scalar(3))
    img = ctx.buf(0)[: rows * cols]
    out = ctx.buf(1)
    out[0] = img.mean(dtype=np.float64)
    out[1] = img.var(dtype=np.float64)


class SradWorkload(OpenCLWorkload):
    """Iterative despeckling with per-iteration ROI statistics."""

    name = "srad"

    def __init__(self, scale: float = 1.0, seed: int = 42) -> None:
        super().__init__(scale, seed)
        self.rows = self.cols = max(16, int(512 * scale))
        self.iterations = 30
        self.lam = 0.5

    def _inputs(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        img = rng.random((self.rows, self.cols), dtype=np.float32) + 0.5
        return np.exp(img).astype(np.float32)

    def reference(self) -> Dict[str, np.ndarray]:
        img = self._inputs()
        for _ in range(self.iterations):
            mean = img.mean(dtype=np.float64)
            var = img.var(dtype=np.float64)
            q0sqr = float(var / (mean * mean + 1e-8))
            c = _diffusion_coefficient(img, q0sqr)
            img = _diffuse(img, c, self.lam)
        return {"img": img}

    def run(self, cl: Any) -> WorkloadResult:
        img = self._inputs()
        rows, cols = img.shape
        env = open_env(cl)
        try:
            program = env.program(SOURCE)
            kernel1 = env.kernel(program, "srad_kernel1")
            kernel2 = env.kernel(program, "srad_kernel2")
            stats = env.kernel(program, "srad_stats")
            b_img = env.buffer(img.nbytes, host=img)
            b_c = env.buffer(img.nbytes)
            b_stats = env.buffer(8)
            env.set_args(stats, b_img, b_stats, rows, cols)
            for _ in range(self.iterations):
                env.launch(stats, [rows * cols])
                mean_var = env.read(b_stats, 8)
                q0sqr = float(mean_var[1] / (mean_var[0] ** 2 + 1e-8))
                env.set_args(kernel1, b_img, b_c, rows, cols, q0sqr)
                env.launch(kernel1, [rows * cols])
                env.set_args(kernel2, b_img, b_c, rows, cols,
                             float(self.lam))
                env.launch(kernel2, [rows * cols])
            env.finish()
            got = env.read(b_img, img.nbytes).reshape(rows, cols)
        finally:
            close_env(env)
        ok = allclose(got, self.reference()["img"], rtol=1e-3, atol=1e-2)
        return WorkloadResult(self.name, {"img": got}, bool(ok),
                              detail=f"{self.iterations} iterations")
