"""The router's `consumes` estimates for every shipped expression.

Each case routes one command of a shipped API, with sample arguments,
through the generated routing table and checks the exact float the
router bills: the per-command estimate and the VM's resource totals in
``admin_report()``.  The expected values are C arithmetic over the
arguments taken as doubles.
"""

import types

import pytest

from repro.hypervisor.hypervisor import ApiRegistration, Hypervisor
from repro.remoting.codec import Command
from repro.stack import build_stack
from tests.wire_oracle import ORACLE, decode_message, encode_message

BIG = 2 ** 53 + 1   # not a double: the sum must round each term first

#: (api, function, scalars, expected resources) — all 15 shipped
#: ``consumes`` expressions: opencl 9, mvnc 4, qat 2
CASES = [
    ("opencl", "clCreateBuffer", {"flags": 0, "size": 4096},
     {"bus_bytes": 4096.0, "device_memory": 4096.0}),
    ("opencl", "clCreateImage",
     {"flags": 0, "image_width": 640, "image_height": 480},
     {"device_memory": 4915200.0}),
    ("opencl", "clEnqueueReadBuffer",
     {"blocking_read": 1, "offset": 0, "size": 65536},
     {"bus_bytes": 65536.0}),
    ("opencl", "clEnqueueWriteBuffer",
     {"blocking_write": 0, "offset": 0, "size": 1 << 20},
     {"bus_bytes": 1048576.0}),
    ("opencl", "clEnqueueCopyBuffer",
     {"src_offset": 0, "dst_offset": 0, "size": 333},
     {"device_bytes": 333.0}),
    ("opencl", "clEnqueueFillBuffer",
     {"pattern_size": 4, "offset": 0, "size": 7},
     {"device_bytes": 7.0}),
    ("opencl", "clEnqueueNDRangeKernel", {"work_dim": 1},
     {"kernel_launches": 1.0}),
    ("opencl", "clEnqueueTask", {}, {"kernel_launches": 1.0}),
    ("mvnc", "mvncAllocateGraph", {"graph_file_length": 12345},
     {"bus_bytes": 12345.0, "device_memory": 12345.0}),
    ("mvnc", "mvncLoadTensor",
     {"input_tensor_length": 150528, "user_param": 9},
     {"bus_bytes": 150528.0}),
    ("mvnc", "mvncGetResult", {"output_tensor_capacity": 2000},
     {"bus_bytes": 2000.0}),
    ("qat", "cpaDcCompressData", {"src_size": 1000, "dst_capacity": 2048},
     {"bus_bytes": 3048.0}),
    ("qat", "cpaDcDecompressData", {"src_size": BIG, "dst_capacity": 1},
     {"bus_bytes": float(BIG) + 1.0}),
]


@pytest.fixture(scope="module")
def hypervisor():
    hv = Hypervisor(ORACLE)
    for api in ("opencl", "mvnc", "qat"):
        stack = build_stack(api)
        hv.register_api(ApiRegistration(
            name=api, routing_table=stack.routing_table(), dispatch={},
            guest_module=stack.guest_module,
            session_binder=lambda worker: types.SimpleNamespace(stack=[])))
    return hv


def route(hv, vm_id, api, function, scalars):
    """Route one command on a fresh VM; returns (estimate, totals)."""
    hv.create_vm(vm_id)
    command = Command(seq=1, vm_id=vm_id, api=api, function=function,
                      scalars=dict(scalars))
    table = hv.router.tables[api]
    estimate = table.estimate(table.functions[function], command)
    decode_message(hv.router.deliver(encode_message(command), 0.0,
                                     source=vm_id))
    return estimate, hv.admin_report()[vm_id]["resources"]


def test_cases_cover_every_shipped_consumes(hypervisor):
    shipped = {
        (api, name, resource)
        for api in ("opencl", "mvnc", "qat")
        for name, info in hypervisor.router.tables[api].functions.items()
        for resource in info.resources
    }
    covered = {(api, function, resource)
               for api, function, _, expected in CASES
               for resource in expected}
    assert covered == shipped and len(shipped) == 15


@pytest.mark.parametrize("api,function,scalars,expected", CASES,
                         ids=[case[1] for case in CASES])
def test_estimate_is_exact(hypervisor, api, function, scalars, expected):
    estimate, totals = route(hypervisor, f"vm-{function}", api, function,
                             scalars)
    assert estimate == expected
    assert totals == expected
    for value in (*estimate.values(), *totals.values()):
        assert type(value) is float


def test_estimates_accumulate_per_vm(hypervisor):
    hypervisor.create_vm("vm-twice")
    for seq, size in enumerate((100, 28)):
        command = Command(seq=seq, vm_id="vm-twice", api="opencl",
                          function="clEnqueueWriteBuffer",
                          scalars={"blocking_write": 1, "offset": 0,
                                   "size": size})
        hypervisor.router.deliver(encode_message(command), 0.0,
                                  source="vm-twice")
    assert hypervisor.admin_report()["vm-twice"]["resources"] == {
        "bus_bytes": 128.0}


def test_unbound_argument_leaves_the_estimate_out(hypervisor):
    """An estimate that cannot be computed never fails the call."""
    estimate, totals = route(hypervisor, "vm-unbound", "opencl",
                             "clEnqueueWriteBuffer", {"offset": 0})
    assert estimate == {} and totals == {}
    assert hypervisor.admin_report()["vm-unbound"]["commands"] == 1
