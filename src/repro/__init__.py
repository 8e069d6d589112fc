"""AvA — Automatic Virtualization of Accelerators (HotOS '19), reproduced.

The public surface, by role:

Deploying the shipped stacks
    :meth:`repro.VirtualStack.build` builds a hypervisor with generated
    stacks for any of the APIs in :data:`repro.apis.APIS` ("opencl",
    "mvnc", "qat", "tpu"); ``add_vm(...)`` (or ``.hypervisor.create_vm``)
    then yields guest VMs whose ``library(api)`` objects speak the
    accelerator API.

Virtualizing a new API (the CAvA workflow)
    Parse a spec (:func:`repro.parse_spec_file` or, for C headers,
    :func:`repro.spec.parse_header_file` + ``infer_preliminary_spec``;
    for Python modules, :func:`repro.codegen.pyfront.spec_from_module`),
    then :func:`repro.generate_api` — or use the ``cava`` CLI.

Measurement
    :func:`repro.run_figure5` and the rest of :mod:`repro.harness`
    reproduce the paper's evaluation; ``benchmarks/`` drives them.
"""

from repro.codegen.generator import GeneratedStack, generate_api
from repro.harness.runner import run_figure5, run_virtualized
from repro.hypervisor.hypervisor import Hypervisor
from repro.hypervisor.policy import ResourcePolicy, VMPolicy
from repro.hypervisor.vm import GuestVM
from repro.remoting.buffers import OutBox
from repro.spec import parse_spec, parse_spec_file
from repro.stack import VirtualStack, build_stack, load_spec
from repro.vclock import VirtualClock

__version__ = "0.1.0"

__all__ = [
    "GeneratedStack",
    "GuestVM",
    "Hypervisor",
    "OutBox",
    "ResourcePolicy",
    "VMPolicy",
    "VirtualClock",
    "VirtualStack",
    "build_stack",
    "generate_api",
    "load_spec",
    "parse_spec",
    "parse_spec_file",
    "run_figure5",
    "run_virtualized",
]
