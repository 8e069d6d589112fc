"""Transfer-cache comparison harness: same workload, cache off vs on.

The stock Rodinia-style workloads upload each input once, so the
content-addressed transfer cache has little to bite on.  The workload
that shows the paper-motivating win is the *iterative* pattern — a
solver that re-uploads an unchanged coefficient block every step while
streaming a small varying input (parameter servers, stencil constants,
per-frame uniform blocks all look like this on the wire).
:class:`IterativeUploadWorkload` models exactly that, and
:func:`run_cache_compare` runs any workload twice on identical stacks —
:class:`~repro.remoting.xfercache.CachePolicy` disarmed and armed — and
reports virtual time and wire bytes side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Type

import numpy as np

from repro.opencl.kernels import BUFFER, SCALAR, LaunchContext, register_kernel
from repro.remoting.xfercache import CachePolicy
from repro.stack import VirtualStack
from repro.workloads.base import (
    OpenCLWorkload,
    WorkloadResult,
    close_env,
    open_env,
)

SOURCE = """
__kernel void xfer_step(__global float *state, __global float *coeffs,
                        __global float *delta, int n) {}
"""


@register_kernel("xfer_step", [BUFFER, BUFFER, BUFFER, SCALAR],
                 flops_per_item=2.0, bytes_per_item=12.0)
def _xfer_step(ctx: LaunchContext) -> None:
    n = int(ctx.scalar(3))
    state = ctx.buf(0, np.float32)[:n]
    coeffs = ctx.buf(1, np.float32)[:n]
    delta = ctx.buf(2, np.float32)[:n]
    state[:] = state + coeffs * delta


class IterativeUploadWorkload(OpenCLWorkload):
    """Iterative solver re-uploading an unchanged coefficient block.

    Every step writes the *same* ``coeffs`` payload (the transfer
    cache's target) and a small step-dependent ``delta`` (which must
    never be served from cache), then accumulates into ``state``.
    """

    name = "iterative-upload"

    def __init__(self, scale: float = 1.0, seed: int = 42,
                 iterations: Optional[int] = None) -> None:
        super().__init__(scale, seed)
        self.n = max(1024, int(16384 * scale))
        self.iterations = (iterations if iterations is not None
                           else max(4, int(16 * scale)))

    def _coeffs(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        return rng.standard_normal(self.n).astype(np.float32)

    def _delta(self, step: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed + 1 + step)
        return rng.standard_normal(self.n).astype(np.float32)

    def reference(self) -> Dict[str, np.ndarray]:
        coeffs = self._coeffs()
        state = np.zeros(self.n, dtype=np.float32)
        for step in range(self.iterations):
            state = state + coeffs * self._delta(step)
        return {"state": state}

    def run(self, cl: Any) -> WorkloadResult:
        coeffs = self._coeffs()
        env = open_env(cl)
        try:
            program = env.program(SOURCE)
            kernel = env.kernel(program, "xfer_step")
            b_state = env.buffer(coeffs.nbytes,
                                 host=np.zeros(self.n, dtype=np.float32))
            b_coeffs = env.buffer(coeffs.nbytes)
            b_delta = env.buffer(coeffs.nbytes)
            for step in range(self.iterations):
                # the unchanged block is re-uploaded every step, exactly
                # as an unmodified guest application would
                env.write(b_coeffs, coeffs)
                env.write(b_delta, self._delta(step))
                env.set_args(kernel, b_state, b_coeffs, b_delta, self.n)
                env.launch(kernel, [self.n])
                # iterative solvers sync every step (residual check), so
                # the upload leg — not the device queue — is the
                # critical path
                env.finish()
            got = env.read(b_state, coeffs.nbytes, dtype=np.float32)
        finally:
            close_env(env)
        want = self.reference()["state"]
        ok = bool(np.allclose(got, want, rtol=1e-4, atol=1e-5))
        return WorkloadResult(
            self.name, {"state": got}, ok,
            detail=f"{self.iterations} iterations x {coeffs.nbytes} B",
        )


@dataclass
class XferRun:
    """One leg (cache off or on) of a comparison."""

    label: str
    runtime: float
    verified: bool
    tx_bytes: int
    rx_bytes: int
    hits: int = 0
    misses: int = 0
    bytes_elided: int = 0
    retransmits: int = 0
    store: Optional[Dict[str, Any]] = None


@dataclass
class XferComparison:
    """Cache-off vs cache-on legs of the same workload."""

    workload: str
    off: XferRun
    on: XferRun

    @property
    def runtime_saving(self) -> float:
        """Fraction of virtual time saved by the cache (0..1)."""
        if self.off.runtime == 0:
            return 0.0
        return 1.0 - self.on.runtime / self.off.runtime

    @property
    def tx_saving(self) -> float:
        """Fraction of guest→host wire bytes elided (0..1)."""
        if self.off.tx_bytes == 0:
            return 0.0
        return 1.0 - self.on.tx_bytes / self.off.tx_bytes

    def rows(self) -> List[List[str]]:
        """Table rows for ``repro.harness.report.format_table``."""
        out = []
        for run in (self.off, self.on):
            out.append([
                run.label,
                f"{run.runtime * 1e6:.2f} us",
                "yes" if run.verified else "NO",
                f"{run.tx_bytes}",
                f"{run.hits}",
                f"{run.misses}",
                f"{run.bytes_elided}",
                f"{run.retransmits}",
            ])
        return out


def run_cache_compare(
    workload_cls: Type[OpenCLWorkload] = IterativeUploadWorkload,
    scale: float = 1.0,
    transport: str = "ring",
    policy: Optional[CachePolicy] = None,
    **workload_kwargs: Any,
) -> XferComparison:
    """Run one workload twice — cache disarmed, then armed — and compare.

    Both legs use identical VMs (same ``vm_id``, transport and scale) so
    every byte of difference on the wire is the cache's doing.
    """
    armed = policy if policy is not None else CachePolicy()
    legs: Dict[str, XferRun] = {}
    for label, cache_policy in (("off", None), ("on", armed)):
        hv = VirtualStack.build("opencl").hypervisor
        vm = hv.create_vm("vm-xfer", transport=transport,
                          cache_policy=cache_policy)
        workload = workload_cls(scale=scale, **workload_kwargs)
        result = workload.run(vm.library("opencl"))
        vm.flush()
        metrics = hv.router.metrics_for("vm-xfer")
        store = metrics.store
        cache = vm.xfer_cache
        legs[label] = XferRun(
            label=label,
            runtime=vm.clock.now,
            verified=result.verified,
            tx_bytes=vm.driver.transport.tx_bytes,
            rx_bytes=vm.driver.transport.rx_bytes,
            hits=metrics.xfer_hits,
            misses=metrics.xfer_misses,
            bytes_elided=metrics.xfer_bytes_elided,
            retransmits=cache.retransmits if cache is not None else 0,
            store=store.snapshot() if store is not None else None,
        )
    return XferComparison(workload=workload_cls.name, off=legs["off"],
                          on=legs["on"])
