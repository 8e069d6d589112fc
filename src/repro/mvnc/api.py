"""The NCSDK-style MVNC API over the simulated Neural Compute Stick.

Thirteen functions following NCSDK v1's shapes.  One documented
deviation: ``mvncGetResult`` takes a caller-allocated output buffer and
an explicit capacity instead of returning a runtime-owned pointer —
Python has no caller-visible malloc, and an explicit capacity makes the
output-buffer size computable from the arguments, which is exactly the
property CAvA's specification language needs (paper §3).  Guests size
the buffer via ``mvncGetGraphOption(MVNC_GRAPH_OPTION_OUTPUT_SIZE)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.mvnc.device import AllocatedGraph, PendingInference, SimulatedNCS
from repro.mvnc.graph import GraphDefinition, GraphError
from repro.native import NativeSession, set_box
from repro.remoting.buffers import OutBox, borrow_bytes, read_bytes, write_back

# -- status codes (NCSDK v1 values) ------------------------------------------
MVNC_OK = 0
MVNC_BUSY = -1
MVNC_ERROR = -2
MVNC_OUT_OF_MEMORY = -3
MVNC_DEVICE_NOT_FOUND = -4
MVNC_INVALID_PARAMETERS = -5
MVNC_TIMEOUT = -6
MVNC_NO_DATA = -8
MVNC_GONE = -9
MVNC_UNSUPPORTED_GRAPH_FILE = -10

# -- options -----------------------------------------------------------------
MVNC_GRAPH_OPTION_DONT_BLOCK = 0
MVNC_GRAPH_OPTION_TIME_TAKEN = 1
MVNC_GRAPH_OPTION_OUTPUT_SIZE = 2  # reproduction extension, see module doc
MVNC_DEVICE_OPTION_THERMAL_STATS = 100
MVNC_GLOBAL_OPTION_LOG_LEVEL = 200

#: the MVNC functions this module virtualizes
FUNCTION_NAMES = [
    "mvncGetDeviceName", "mvncOpenDevice", "mvncCloseDevice",
    "mvncAllocateGraph", "mvncDeallocateGraph", "mvncLoadTensor",
    "mvncGetResult", "mvncSetGraphOption", "mvncGetGraphOption",
    "mvncSetDeviceOption", "mvncGetDeviceOption", "mvncSetGlobalOption",
    "mvncGetGlobalOption",
]

@dataclass(eq=False)
class NCSSession(NativeSession):
    """Binding of the MVNC API to a device set and a caller clock."""

    stack = []
    device = SimulatedNCS
    clock_name = "ncapp"
    call_overhead = 0.3e-6

    global_options: dict = field(default_factory=dict)


_session = NCSSession.enter


# ---------------------------------------------------------------------------
# device discovery and lifecycle
# ---------------------------------------------------------------------------


def mvncGetDeviceName(index: int, name: Any, name_size: int) -> int:
    sess = _session()
    if name is None or name_size <= 0:
        return MVNC_INVALID_PARAMETERS
    if not 0 <= index < len(sess.devices):
        return MVNC_DEVICE_NOT_FOUND
    encoded = sess.devices[index].name.encode("utf-8")[: name_size - 1] + b"\0"
    write_back(name, encoded)
    return MVNC_OK


def mvncOpenDevice(name: Optional[str], device_handle: OutBox) -> int:
    sess = _session()
    if device_handle is None:
        return MVNC_INVALID_PARAMETERS
    for device in sess.devices:
        if name is None or device.name == name:
            holding = device.held(sess)
            if holding.opened:
                return MVNC_BUSY
            holding.opened = True
            # USB enumeration + firmware boot
            sess.clock.advance(2e-3, "device_open")
            set_box(device_handle, device)
            return MVNC_OK
    return MVNC_DEVICE_NOT_FOUND


def mvncCloseDevice(device_handle: Any) -> int:
    sess = _session()
    if not isinstance(device_handle, SimulatedNCS) or \
            not device_handle.held(sess).opened:
        return MVNC_INVALID_PARAMETERS
    device_handle.held(sess).opened = False
    return MVNC_OK


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------


def mvncAllocateGraph(device_handle: Any, graph_handle: OutBox,
                      graph_file: Any, graph_file_length: int) -> int:
    sess = _session()
    if not isinstance(device_handle, SimulatedNCS) or graph_handle is None:
        return MVNC_INVALID_PARAMETERS
    if not device_handle.held(sess).opened:
        return MVNC_GONE
    blob = borrow_bytes(graph_file, limit=int(graph_file_length))
    try:
        definition = GraphDefinition.deserialize(blob)
    except GraphError:
        return MVNC_UNSUPPORTED_GRAPH_FILE
    try:
        device_handle.allocate(sess, len(blob))
    except MemoryError:
        return MVNC_OUT_OF_MEMORY
    graph = AllocatedGraph(device_handle, sess, definition, len(blob))
    # graph upload over USB
    spec = device_handle.spec
    sess.clock.advance(
        spec.usb_overhead + len(blob) / spec.usb_bandwidth, "graph_upload"
    )
    set_box(graph_handle, graph)
    return MVNC_OK


def mvncDeallocateGraph(graph_handle: Any) -> int:
    _session()
    if not isinstance(graph_handle, AllocatedGraph) or graph_handle.deallocated:
        return MVNC_INVALID_PARAMETERS
    graph_handle.device.free(graph_handle.owner, graph_handle.blob_size)
    graph_handle.deallocated = True
    return MVNC_OK


def mvncLoadTensor(graph_handle: Any, input_tensor: Any,
                   input_tensor_length: int, user_param: Any) -> int:
    """Queue one inference.  Blocks only for the input USB transfer."""
    sess = _session()
    if not isinstance(graph_handle, AllocatedGraph) or graph_handle.deallocated:
        return MVNC_INVALID_PARAMETERS
    if input_tensor is None:
        return MVNC_INVALID_PARAMETERS
    blob = read_bytes(input_tensor, limit=int(input_tensor_length))
    expected = 1
    for dim in graph_handle.definition.input_shape:
        expected *= dim
    if len(blob) != expected * 2:  # FP16
        return MVNC_INVALID_PARAMETERS
    tensor = np.frombuffer(blob, dtype=np.float16).reshape(
        graph_handle.definition.input_shape
    )
    device = graph_handle.device
    transfer = (
        device.spec.usb_overhead + len(blob) / device.spec.usb_bandwidth
    )
    sess.clock.advance(transfer, "tensor_upload")
    try:
        # the network runs now (host truth); its completion is queued
        report = graph_handle.executor.run(tensor)
    except GraphError:
        return MVNC_ERROR
    cost = graph_handle.infer_cost(
        input_bytes=tensor.nbytes, output_bytes=report.output.nbytes)
    timer = device.occupy(cost, sess.clock.now, "inference")
    graph_handle.inference_time_total += cost
    graph_handle.pending.append(PendingInference(
        output=report.output, complete_at=timer.end, user_param=user_param))
    return MVNC_OK


def mvncGetResult(graph_handle: Any, output_tensor: Any,
                  output_tensor_capacity: int, output_length: OutBox,
                  user_param: OutBox) -> int:
    """Block for the oldest queued inference and copy its output out."""
    sess = _session()
    if not isinstance(graph_handle, AllocatedGraph) or graph_handle.deallocated:
        return MVNC_INVALID_PARAMETERS
    if not graph_handle.pending:
        return MVNC_NO_DATA
    pending = graph_handle.pending.popleft()
    payload = pending.output.astype(np.float16).tobytes()
    if output_tensor is None or output_tensor_capacity < len(payload):
        graph_handle.pending.appendleft(pending)  # result is not consumed
        return MVNC_INVALID_PARAMETERS
    sess.clock.advance_to(pending.complete_at, "inference_wait")
    write_back(output_tensor, payload)
    set_box(output_length, len(payload))
    set_box(user_param, pending.user_param)
    return MVNC_OK


# ---------------------------------------------------------------------------
# options
# ---------------------------------------------------------------------------


def mvncSetGraphOption(graph_handle: Any, option: int, data: Any,
                       data_length: int) -> int:
    _session()
    if not isinstance(graph_handle, AllocatedGraph):
        return MVNC_INVALID_PARAMETERS
    if option == MVNC_GRAPH_OPTION_DONT_BLOCK:
        graph_handle.options[option] = int(data)
        return MVNC_OK
    if option in (MVNC_GRAPH_OPTION_TIME_TAKEN, MVNC_GRAPH_OPTION_OUTPUT_SIZE):
        return MVNC_INVALID_PARAMETERS  # read-only options
    return MVNC_INVALID_PARAMETERS


def _graph_output_size(graph: AllocatedGraph) -> int:
    """Output byte count, derived by probing the network shape."""
    probe = np.zeros(graph.definition.input_shape, dtype=np.float16)
    return graph.executor.run(probe).output.nbytes


def mvncGetGraphOption(graph_handle: Any, option: int, data: OutBox,
                       data_length: OutBox) -> int:
    _session()
    if not isinstance(graph_handle, AllocatedGraph) or data is None:
        return MVNC_INVALID_PARAMETERS
    if option == MVNC_GRAPH_OPTION_TIME_TAKEN:
        value: Any = graph_handle.inference_time_total * 1e3  # milliseconds
    elif option == MVNC_GRAPH_OPTION_OUTPUT_SIZE:
        value = _graph_output_size(graph_handle)
    elif option == MVNC_GRAPH_OPTION_DONT_BLOCK:
        value = graph_handle.options.get(option, 0)
    else:
        return MVNC_INVALID_PARAMETERS
    set_box(data, value)
    set_box(data_length, 8)
    return MVNC_OK


def mvncSetDeviceOption(device_handle: Any, option: int, data: Any,
                        data_length: int) -> int:
    _session()
    if not isinstance(device_handle, SimulatedNCS):
        return MVNC_INVALID_PARAMETERS
    return MVNC_INVALID_PARAMETERS  # no writable device options in v1 subset


def mvncGetDeviceOption(device_handle: Any, option: int, data: OutBox,
                        data_length: OutBox) -> int:
    _session()
    if not isinstance(device_handle, SimulatedNCS) or data is None:
        return MVNC_INVALID_PARAMETERS
    if option == MVNC_DEVICE_OPTION_THERMAL_STATS:
        set_box(data, 35.0)  # a comfortably cool simulated stick
        set_box(data_length, 8)
        return MVNC_OK
    return MVNC_INVALID_PARAMETERS


def mvncSetGlobalOption(option: int, data: Any, data_length: int) -> int:
    sess = _session()
    if option == MVNC_GLOBAL_OPTION_LOG_LEVEL:
        sess.global_options[option] = int(data)
        return MVNC_OK
    return MVNC_INVALID_PARAMETERS


def mvncGetGlobalOption(option: int, data: OutBox,
                        data_length: OutBox) -> int:
    sess = _session()
    if data is None:
        return MVNC_INVALID_PARAMETERS
    if option == MVNC_GLOBAL_OPTION_LOG_LEVEL:
        set_box(data, sess.global_options.get(option, 0))
        set_box(data_length, 8)
        return MVNC_OK
    return MVNC_INVALID_PARAMETERS
