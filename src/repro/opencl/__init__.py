"""A from-scratch mini-OpenCL runtime over a simulated GPU.

This package is the reproduction's stand-in for the vendor accelerator
silo (Figure 1 of the paper): a user-mode API (:mod:`repro.opencl.api`,
39 functions), a runtime object model (:mod:`repro.opencl.runtime`), a
"compiler" + kernel registry (:mod:`repro.opencl.kernels`) and a
simulated GPU with a virtual-time cost model (:mod:`repro.opencl.device`).

Kernels really execute (vectorized numpy implementations registered under
the kernel names that programs declare), so workloads produce real
results; *time* comes from the device cost model so benchmarks are
deterministic.
"""

from repro.opencl.device import DeviceSpec, SimulatedGPU
from repro.opencl.errors import CLError
from repro.opencl.runtime import Session, session
from repro.opencl import api
from repro.opencl import types

__all__ = [
    "CLError",
    "DeviceSpec",
    "Session",
    "SimulatedGPU",
    "api",
    "session",
    "types",
]
