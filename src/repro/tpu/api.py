"""The TPU's dynamic (Python-native) public API.

There is no C header for this accelerator — the functions below, with
their :mod:`repro.codegen.pyfront` marker annotations, ARE the API
definition CAvA consumes.  Eleven functions in the TensorFlow-1.x
shape: open a device, build a graph of nodes (ids are plain ints,
graph-scoped), compile, run with a feed and a fetch.
"""

from __future__ import annotations

import numpy as np

from repro.codegen.pyfront import (
    Handle,
    InBuffer,
    NewHandle,
    OutBuffer,
    OutScalar,
)
from repro.native import NativeSession, set_box
from repro.remoting.buffers import borrow_bytes, read_bytes, write_back
from repro.tpu.device import SimulatedTPU
from repro.tpu.graphs import (
    BINARY_OPS,
    UNARY_OPS,
    GraphError,
    TPUGraph,
)

TPU_OK = 0
TPU_INVALID = -1
TPU_BUSY = -2
TPU_GRAPH_ERROR = -3
TPU_OVERFLOW = -4
TPU_NOT_COMPILED = -5

#: node-building calls return only fresh ids and may forward async
AVA_ASYNC: set = set()
AVA_NORECORD = {"tpuRun"}
#: graph construction mutates replayable state (migration §4.3)
AVA_RECORD = {
    "tpuPlaceholder": "modify",
    "tpuConstant": "modify",
    "tpuBinaryOp": "modify",
    "tpuUnaryOp": "modify",
    "tpuCompile": "modify",
}
AVA_DEALLOCATES = {
    "tpuCloseDevice": "device_handle",
    "tpuDestroyGraph": "graph_handle",
}

FUNCTION_NAMES = [
    "tpuOpenDevice", "tpuCloseDevice", "tpuCreateGraph", "tpuDestroyGraph",
    "tpuPlaceholder", "tpuConstant", "tpuBinaryOp", "tpuUnaryOp",
    "tpuCompile", "tpuRun", "tpuDeviceStats",
]


class TPUSession(NativeSession):
    """Binding of the TPU API to a device set and a caller clock."""

    stack = []
    device = SimulatedTPU
    clock_name = "tpuapp"
    call_overhead = 0.3e-6


_session = TPUSession.enter


# ---------------------------------------------------------------------------
# device and graph lifecycle
# ---------------------------------------------------------------------------


def tpuOpenDevice(device_handle: NewHandle) -> int:
    sess = _session()
    if device_handle is None:
        return TPU_INVALID
    for device in sess.devices:
        holding = device.held(sess)
        if not holding.opened:
            holding.opened = True
            sess.clock.advance(1e-3, "device_open")  # runtime attach
            set_box(device_handle, device)
            return TPU_OK
    return TPU_BUSY


def tpuCloseDevice(device_handle: Handle) -> int:
    sess = _session()
    if not isinstance(device_handle, SimulatedTPU) or \
            not device_handle.held(sess).opened:
        return TPU_INVALID
    device_handle.held(sess).opened = False
    return TPU_OK


def tpuCreateGraph(device_handle: Handle, graph_handle: NewHandle) -> int:
    sess = _session()
    if not isinstance(device_handle, SimulatedTPU) or \
            not device_handle.held(sess).opened:
        return TPU_INVALID
    set_box(graph_handle, TPUGraph(device=device_handle))
    return TPU_OK


def tpuDestroyGraph(graph_handle: Handle) -> int:
    _session()
    if not isinstance(graph_handle, TPUGraph) or graph_handle.destroyed:
        return TPU_INVALID
    graph_handle.destroyed = True
    return TPU_OK


# ---------------------------------------------------------------------------
# graph construction
# ---------------------------------------------------------------------------


def tpuPlaceholder(graph_handle: Handle, rows: int, cols: int,
                   node_id: OutScalar) -> int:
    _session()
    if not isinstance(graph_handle, TPUGraph):
        return TPU_INVALID
    try:
        set_box(node_id, graph_handle.placeholder(int(rows), int(cols)))
    except GraphError:
        return TPU_GRAPH_ERROR
    return TPU_OK


def tpuConstant(graph_handle: Handle, data: InBuffer, data_size: int,
                rows: int, cols: int, node_id: OutScalar) -> int:
    _session()
    if not isinstance(graph_handle, TPUGraph) or data is None:
        return TPU_INVALID
    payload = read_bytes(data, limit=int(data_size))
    if len(payload) != int(rows) * int(cols) * 4:
        return TPU_INVALID
    value = np.frombuffer(payload, dtype=np.float32).reshape(
        int(rows), int(cols)
    )
    try:
        set_box(node_id, graph_handle.constant(value))
    except GraphError:
        return TPU_GRAPH_ERROR
    return TPU_OK


def tpuBinaryOp(graph_handle: Handle, op_code: int, a_node: int,
                b_node: int, node_id: OutScalar) -> int:
    _session()
    if not isinstance(graph_handle, TPUGraph):
        return TPU_INVALID
    if int(op_code) not in BINARY_OPS:
        return TPU_INVALID
    try:
        set_box(node_id,
                 graph_handle.binary(int(op_code), int(a_node),
                                     int(b_node)))
    except GraphError:
        return TPU_GRAPH_ERROR
    return TPU_OK


def tpuUnaryOp(graph_handle: Handle, op_code: int, a_node: int,
               node_id: OutScalar) -> int:
    _session()
    if not isinstance(graph_handle, TPUGraph):
        return TPU_INVALID
    if int(op_code) not in UNARY_OPS:
        return TPU_INVALID
    try:
        set_box(node_id, graph_handle.unary(int(op_code), int(a_node)))
    except GraphError:
        return TPU_GRAPH_ERROR
    return TPU_OK


# ---------------------------------------------------------------------------
# compile & run
# ---------------------------------------------------------------------------


def tpuCompile(graph_handle: Handle, flops_estimate: OutScalar) -> int:
    sess = _session()
    if not isinstance(graph_handle, TPUGraph):
        return TPU_INVALID
    flops = graph_handle.compile()
    # XLA-ish compilation takes real time, proportional to graph size
    sess.clock.advance(0.5e-3 + 20e-6 * len(graph_handle.nodes), "compile")
    set_box(flops_estimate, int(flops))
    return TPU_OK


def tpuRun(graph_handle: Handle, feed_node: int, feed_data: InBuffer,
           feed_data_size: int, fetch_node: int, out_data: OutBuffer,
           out_data_capacity: int, produced: OutScalar) -> int:
    sess = _session()
    if not isinstance(graph_handle, TPUGraph) or feed_data is None:
        return TPU_INVALID
    if not graph_handle.compiled:
        return TPU_NOT_COMPILED
    try:
        shape = graph_handle.nodes_shape(int(feed_node))
    except GraphError:
        return TPU_GRAPH_ERROR
    payload = borrow_bytes(feed_data, limit=int(feed_data_size))
    if len(payload) != shape[0] * shape[1] * 4:
        return TPU_INVALID
    feed = np.frombuffer(payload, dtype=np.float32).reshape(shape)
    try:
        result = graph_handle.run({int(feed_node): feed}, int(fetch_node))
    except GraphError:
        return TPU_GRAPH_ERROR
    blob = result.astype(np.float32).tobytes()
    if len(blob) > int(out_data_capacity):
        return TPU_OVERFLOW
    device = graph_handle.device
    compute = (
        graph_handle.step_cost
        + device.transfer_cost(len(payload) + len(blob))
    )
    timer = device.occupy(device.step_cost(compute), sess.clock.now, "step")
    sess.clock.advance_to(timer.end, "step_wait")
    write_back(out_data, blob)
    set_box(produced, len(blob))
    return TPU_OK


def tpuDeviceStats(device_handle: Handle, steps: OutScalar,
                   busy_us: OutScalar) -> int:
    _session()
    if not isinstance(device_handle, SimulatedTPU):
        return TPU_INVALID
    set_box(steps, device_handle.op_counts.get("step", 0))
    set_box(busy_us, int(device_handle.busy_time * 1e6))
    return TPU_OK
