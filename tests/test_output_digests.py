"""Figure 5's output values, pinned.

``benchmarks/BENCH_figure5.json`` holds virtual times and call counts,
not output values, so it cannot see a float that moved.  These digests
can: a sha256 over every array (name, dtype, shape and bytes) of
``backprop``'s and ``pathfinder``'s inputs, numpy reference and native
run at scale 0.25.  Rewriting how a workload builds or checks its
arrays (in place, one row at a time) must leave every digest as it is.

The digests were taken on x86-64 with numpy 2.4.6 and its bundled
OpenBLAS; ``backprop``'s matrix products go through BLAS, whose kernels
may round differently on another CPU or BLAS build.
"""

import hashlib

import numpy as np
import pytest

from repro.opencl import api as cl_api
from repro.opencl import session
from repro.opencl.device import SimulatedGPU
from repro.workloads import BackpropWorkload, PathfinderWorkload

SCALE = 0.25

#: (workload, part) -> sha256 of :func:`digest`
PINNED = {
    ("backprop", "inputs"):
        "92f140b3c08dc1f965b78951673d77b583999f828d397936d8bf058b0b4d141b",
    ("backprop", "reference"):
        "3db8f585398beaa7762f89a9557b2d415df88482b69da98d4d73f49c627e84af",
    ("backprop", "native"):
        "201dd5260fb6ccdae4ecacc306edab417ac2080d1713ff12f237fb680d55ed97",
    ("pathfinder", "inputs"):
        "05df97a055b8997ddb05880d8bef6a188a4da09fb7b644ac02bb4ab9a0431a6b",
    ("pathfinder", "reference"):
        "1798cc5b2bdf6a9f243b4dc9d54015dbad23579707485c90cb2b3906a16e5283",
    ("pathfinder", "native"):
        "1798cc5b2bdf6a9f243b4dc9d54015dbad23579707485c90cb2b3906a16e5283",
}

WORKLOADS = {"backprop": BackpropWorkload, "pathfinder": PathfinderWorkload}


def digest(arrays):
    """sha256 over a name -> array mapping (or one array), in name order."""
    if isinstance(arrays, np.ndarray):
        arrays = {"": arrays}
    h = hashlib.sha256()
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        h.update(f"{name}|{array.dtype.str}|{array.shape}|".encode())
        h.update(array.tobytes())
    return h.hexdigest()


def part(workload, which):
    if which == "inputs":
        return workload._inputs()
    if which == "reference":
        return dict(workload.reference())
    with session([SimulatedGPU()]):
        result = workload.run(cl_api)
    assert result.verified
    return result.outputs


@pytest.mark.parametrize("name,which", sorted(PINNED),
                         ids=lambda v: v)
def test_digest_pinned(name, which):
    workload = WORKLOADS[name](scale=SCALE)
    assert digest(part(workload, which)) == PINNED[name, which]


if __name__ == "__main__":
    for name, which in sorted(PINNED):
        print(f'    ("{name}", "{which}"):\n        '
              f'"{digest(part(WORKLOADS[name](scale=SCALE), which))}",')
