"""Kernel registry and the simulated OpenCL C "compiler".

Real OpenCL builds device code from source at run time.  The mini
runtime keeps that flow: programs carry source text containing
``__kernel void <name>(...)`` declarations; ``clBuildProgram`` resolves
each declared kernel against this registry, which maps kernel names to
**vectorized numpy implementations** plus cost-model metadata.  Missing
implementations produce ``CL_BUILD_PROGRAM_FAILURE`` with a build log,
exactly where a vendor compiler would report an error.

A kernel implementation receives a :class:`LaunchContext` and operates on
whole NDRanges at once (one numpy pass instead of per-work-item Python),
producing real results while the device cost model accounts time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.opencl.device import KernelCost
from repro.opencl.errors import CLError, check
from repro.opencl import types

#: argument kinds a kernel declares, by position
BUFFER = "buffer"
SCALAR = "scalar"
LOCAL = "local"  # local-memory scratch: size is passed, no data marshaled


@dataclass
class LaunchContext:
    """Everything a kernel implementation sees for one launch."""

    global_size: Tuple[int, ...]
    local_size: Optional[Tuple[int, ...]]
    #: raw arguments in slot order: memory objects, scalars, or local sizes
    args: List[Any] = field(default_factory=list)

    @property
    def work_items(self) -> int:
        total = 1
        for dim in self.global_size:
            total *= dim
        return total

    def buf(self, index: int, dtype: Any = np.float32) -> np.ndarray:
        """A typed view of buffer argument ``index`` (shared storage)."""
        mem = self.args[index]
        data = getattr(mem, "data", None)
        if data is None:
            raise CLError(
                types.CL_INVALID_KERNEL_ARGS,
                f"kernel argument {index} is not a buffer",
            )
        return data.view(dtype)

    def scalar(self, index: int) -> Any:
        value = self.args[index]
        if hasattr(value, "data"):
            raise CLError(
                types.CL_INVALID_KERNEL_ARGS,
                f"kernel argument {index} is a buffer, expected a scalar",
            )
        return value


@dataclass
class KernelImpl:
    """One registered kernel: implementation + metadata."""

    name: str
    fn: Callable[[LaunchContext], None]
    arg_kinds: Tuple[str, ...]
    cost: KernelCost = field(default_factory=KernelCost)

    @property
    def num_args(self) -> int:
        return len(self.arg_kinds)


class KernelRegistry:
    """Name → implementation map (the simulated compiler's backend)."""

    def __init__(self) -> None:
        self._impls: Dict[str, KernelImpl] = {}

    def register(
        self,
        name: str,
        arg_kinds: Sequence[str],
        flops_per_item: float = 1.0,
        bytes_per_item: float = 4.0,
        efficiency: float = 1.0,
    ) -> Callable[[Callable[[LaunchContext], None]], Callable]:
        """Decorator registering a kernel implementation.

        Re-registration replaces the implementation — convenient for
        tests; workload modules register at import time and must use
        unique names.
        """
        for kind in arg_kinds:
            if kind not in (BUFFER, SCALAR, LOCAL):
                raise ValueError(f"bad argument kind {kind!r}")

        def decorator(fn: Callable[[LaunchContext], None]) -> Callable:
            self._impls[name] = KernelImpl(
                name=name,
                fn=fn,
                arg_kinds=tuple(arg_kinds),
                cost=KernelCost(
                    flops_per_item=flops_per_item,
                    bytes_per_item=bytes_per_item,
                    efficiency=efficiency,
                ),
            )
            return fn

        return decorator

    def lookup(self, name: str) -> KernelImpl:
        impl = self._impls.get(name)
        if impl is None:
            raise KeyError(name)
        return impl

    def __contains__(self, name: str) -> bool:
        return name in self._impls


#: the process-wide registry (workload modules populate it at import)
REGISTRY = KernelRegistry()

register_kernel = REGISTRY.register

_KERNEL_DECL = re.compile(r"__kernel\s+\w+[\s\*]+(\w+)\s*\(")


def declared_kernels(source: str) -> List[str]:
    """Kernel names declared in program source, in declaration order."""
    return _KERNEL_DECL.findall(source)


def build_program(source: str, options: str = "") -> Tuple[Dict[str, KernelImpl], str]:
    """"Compile" program source: resolve declared kernels in the registry.

    Returns (resolved kernels, build log).  Raises :class:`CLError` with
    ``CL_BUILD_PROGRAM_FAILURE`` if any declared kernel has no registered
    implementation — the log names the missing kernels like a compiler
    error would.
    """
    names = declared_kernels(source)
    check(bool(names), types.CL_BUILD_PROGRAM_FAILURE,
          "program declares no __kernel functions")
    resolved: Dict[str, KernelImpl] = {}
    missing: List[str] = []
    for name in names:
        try:
            resolved[name] = REGISTRY.lookup(name)
        except KeyError:
            missing.append(name)
    if missing:
        log = "\n".join(
            f"error: undefined kernel '{name}': no device implementation"
            for name in missing
        )
        raise CLError(types.CL_BUILD_PROGRAM_FAILURE, log)
    log = "build succeeded: " + ", ".join(names)
    if options:
        log += f" (options: {options})"
    return resolved, log


# ---------------------------------------------------------------------------
# Built-in kernels used by the examples, tests, and the quickstart
# ---------------------------------------------------------------------------


@register_kernel("vector_add", [BUFFER, BUFFER, BUFFER, SCALAR],
                 flops_per_item=1.0, bytes_per_item=12.0)
def _vector_add(ctx: LaunchContext) -> None:
    """c[i] = a[i] + b[i] for i < n."""
    n = int(ctx.scalar(3))
    a = ctx.buf(0)[:n]
    b = ctx.buf(1)[:n]
    ctx.buf(2)[:n] = a + b


@register_kernel("vector_scale", [BUFFER, SCALAR, SCALAR],
                 flops_per_item=1.0, bytes_per_item=8.0)
def _vector_scale(ctx: LaunchContext) -> None:
    """x[i] *= alpha for i < n."""
    alpha = float(ctx.scalar(1))
    n = int(ctx.scalar(2))
    ctx.buf(0)[:n] *= alpha


@register_kernel("saxpy", [SCALAR, BUFFER, BUFFER, SCALAR],
                 flops_per_item=2.0, bytes_per_item=12.0)
def _saxpy(ctx: LaunchContext) -> None:
    """y[i] += alpha * x[i] for i < n."""
    alpha = float(ctx.scalar(0))
    n = int(ctx.scalar(3))
    x = ctx.buf(1)[:n]
    y = ctx.buf(2)
    y[:n] = y[:n] + alpha * x


@register_kernel("reduce_sum", [BUFFER, BUFFER, SCALAR],
                 flops_per_item=1.0, bytes_per_item=4.0)
def _reduce_sum(ctx: LaunchContext) -> None:
    """out[0] = sum(x[0:n])."""
    n = int(ctx.scalar(2))
    ctx.buf(1)[0] = ctx.buf(0)[:n].sum(dtype=np.float64)
