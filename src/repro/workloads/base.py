"""Shared host-side plumbing for the OpenCL workloads.

Everything here goes through the public API object (``cl``) only — the
workloads cannot tell whether they are talking to the native library or
to an AvA guest library, because the call surface is identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.opencl import types
from repro.remoting.buffers import OutBox


class WorkloadError(Exception):
    """A workload hit an unexpected API error."""


def _check(code: int, what: str) -> None:
    if code != types.CL_SUCCESS:
        raise WorkloadError(f"{what} failed with CL error {code}")


@dataclass
class CLEnv:
    """One opened OpenCL environment (platform→queue) plus cleanup state."""

    cl: Any
    platform: Any
    device: Any
    context: Any
    queue: Any
    _mems: List[Any] = field(default_factory=list)
    _kernels: List[Any] = field(default_factory=list)
    _programs: List[Any] = field(default_factory=list)

    # -- buffers -------------------------------------------------------------

    def buffer(self, size: int, flags: int = types.CL_MEM_READ_WRITE,
               host: Optional[np.ndarray] = None) -> Any:
        if host is not None:
            flags |= types.CL_MEM_COPY_HOST_PTR
        err = OutBox()
        mem = self.cl.clCreateBuffer(self.context, flags, int(size), host,
                                     err)
        _check(err.value, "clCreateBuffer")
        self._mems.append(mem)
        return mem

    def write(self, mem: Any, data: np.ndarray, blocking: bool = True,
              offset: int = 0) -> None:
        _check(
            self.cl.clEnqueueWriteBuffer(
                self.queue, mem,
                types.CL_TRUE if blocking else types.CL_FALSE,
                offset, data.nbytes, data, 0, None, None,
            ),
            "clEnqueueWriteBuffer",
        )

    def read(self, mem: Any, nbytes: int, dtype: Any = np.float32,
             blocking: bool = True, offset: int = 0) -> np.ndarray:
        out = np.zeros(nbytes // np.dtype(dtype).itemsize, dtype=dtype)
        _check(
            self.cl.clEnqueueReadBuffer(
                self.queue, mem,
                types.CL_TRUE if blocking else types.CL_FALSE,
                offset, nbytes, out, 0, None, None,
            ),
            "clEnqueueReadBuffer",
        )
        return out

    # -- programs / kernels ---------------------------------------------------

    def program(self, source: str) -> Any:
        err = OutBox()
        program = self.cl.clCreateProgramWithSource(self.context, 1, source,
                                                    None, err)
        _check(err.value, "clCreateProgramWithSource")
        _check(
            self.cl.clBuildProgram(program, 0, None, "", None, None),
            "clBuildProgram",
        )
        self._programs.append(program)
        return program

    def kernel(self, program: Any, name: str) -> Any:
        err = OutBox()
        kernel = self.cl.clCreateKernel(program, name, err)
        _check(err.value, f"clCreateKernel({name})")
        self._kernels.append(kernel)
        return kernel

    def set_args(self, kernel: Any, *args: Any) -> None:
        for index, value in enumerate(args):
            if isinstance(value, float):
                size, wire = 8, float(value)
            elif isinstance(value, int) and not isinstance(value, bool):
                # could be a scalar or a buffer handle; either way one word
                size, wire = 8, value
            else:
                size, wire = 8, value
            _check(
                self.cl.clSetKernelArg(kernel, index, size, wire),
                f"clSetKernelArg({index})",
            )

    def launch(self, kernel: Any, global_size: List[int],
               local_size: Optional[List[int]] = None) -> None:
        _check(
            self.cl.clEnqueueNDRangeKernel(
                self.queue, kernel, len(global_size), None,
                [int(g) for g in global_size],
                [int(l) for l in local_size] if local_size else None,
                0, None, None,
            ),
            "clEnqueueNDRangeKernel",
        )

    def finish(self) -> None:
        _check(self.cl.clFinish(self.queue), "clFinish")

    # -- teardown ----------------------------------------------------------------

    def close(self) -> None:
        for kernel in self._kernels:
            self.cl.clReleaseKernel(kernel)
        for program in self._programs:
            self.cl.clReleaseProgram(program)
        for mem in self._mems:
            self.cl.clReleaseMemObject(mem)
        self.cl.clReleaseCommandQueue(self.queue)
        self.cl.clReleaseContext(self.context)
        self._kernels.clear()
        self._programs.clear()
        self._mems.clear()


def open_env(cl: Any) -> CLEnv:
    """Standard discovery + context + queue boilerplate."""
    platforms = [None]
    _check(cl.clGetPlatformIDs(1, platforms, None), "clGetPlatformIDs")
    devices = [None]
    _check(
        cl.clGetDeviceIDs(platforms[0], types.CL_DEVICE_TYPE_GPU, 1, devices,
                          None),
        "clGetDeviceIDs",
    )
    err = OutBox()
    context = cl.clCreateContext(None, 1, devices, None, None, err)
    _check(err.value, "clCreateContext")
    queue = cl.clCreateCommandQueue(context, devices[0], 0, err)
    _check(err.value, "clCreateCommandQueue")
    return CLEnv(cl=cl, platform=platforms[0], device=devices[0],
                 context=context, queue=queue)


def close_env(env: CLEnv) -> None:
    env.close()


@dataclass
class WorkloadResult:
    """Outcome of one workload run."""

    name: str
    outputs: Dict[str, np.ndarray]
    verified: bool
    detail: str = ""


#: elements per slice :func:`allclose` compares at a time
_SLICE = 1 << 18


def allclose(a: Any, b: Any, rtol: float = 1e-05,
             atol: float = 1e-08) -> bool:
    """``np.allclose(a, b, rtol, atol)``; two arrays of one shape are
    compared a slice of leading-axis rows at a time, so verifying a large
    output builds no temporary of its size."""
    if not (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
            and a.shape == b.shape and a.ndim):
        return np.allclose(a, b, rtol=rtol, atol=atol)
    step = max(1, _SLICE // max(1, a[:1].size))
    return all(np.allclose(a[i:i + step], b[i:i + step], rtol=rtol,
                           atol=atol)
               for i in range(0, len(a), step))


#: ``reference()`` outputs, one read-only mapping per workload ``memo_key``
_REFERENCES: Dict[Any, Any] = {}


def once_per_key(memo: Dict[Any, Any], key: Any,
                 compute: Callable[[], Any]) -> Any:
    """``memo[key]``, computed on the first request in this process; an
    unhashable key cannot name an entry, so its value is just computed."""
    try:
        hash(key)
    except TypeError:
        return compute()
    if key not in memo:
        memo[key] = compute()
    return memo[key]


class Deterministic:
    """A workload whose outputs are a function of :attr:`memo_key`:
    ``reference()`` (and the native baseline, see
    :mod:`repro.harness.runner`) is computed once per process per key and
    handed out read-only.  Inputs are regenerated per run, never kept."""

    @property
    def memo_key(self) -> Any:
        """The class and everything the instance holds (constructor
        arguments and the sizes derived from them).  A class holding an
        unhashable attribute states its own key or goes unmemoised."""
        return (type(self), *sorted(vars(self).items()))

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if "reference" in cls.__dict__:
            uncached = cls.__dict__["reference"]

            def cached(self, _uncached=uncached):
                def compute():
                    outputs = _uncached(self)
                    for array in outputs.values():
                        array.flags.writeable = False
                    return MappingProxyType(outputs)

                return once_per_key(_REFERENCES, self.memo_key, compute)

            cached.__doc__ = uncached.__doc__
            cls.reference = cached


class OpenCLWorkload(Deterministic):
    """Base class: a named, sized, verifiable OpenCL application."""

    name = "abstract"
    #: rough native runtime scale; used by tests to pick small cases
    default_scale = 1.0

    def __init__(self, scale: float = 1.0, seed: int = 42) -> None:
        self.scale = scale
        self.seed = seed

    def run(self, cl: Any) -> WorkloadResult:
        """Run against an API object; must verify its own results."""
        raise NotImplementedError

    def reference(self) -> Dict[str, np.ndarray]:
        """Pure-numpy reference results."""
        raise NotImplementedError
