"""The QAT-style data-compression (DC) API.

Eight functions following the CPA DC shapes: discover instances, start
one, open a session (level + direction), push compress/decompress
requests with caller-provided source and destination buffers, read
engine statistics.  Compression is real zlib, so corrupted marshaling
cannot hide.

Deviation from the vendor API: requests are synchronous (the CPA
callback machinery adds nothing under AvA's interposition — the paper's
NCS port makes the same simplification with LoadTensor/GetResult).
"""

from __future__ import annotations

import zlib
from typing import Any

from repro.native import NativeSession, set_box
from repro.qat.device import SimulatedQAT
from repro.remoting.buffers import OutBox, borrow_bytes, write_back

CPA_STATUS_SUCCESS = 0
CPA_STATUS_FAIL = -1
CPA_STATUS_INVALID_PARAM = -4
CPA_STATUS_RESOURCE = -5
CPA_DC_OVERFLOW = -11
CPA_DC_BAD_DATA = -12

CPA_DC_DIR_COMPRESS = 0
CPA_DC_DIR_DECOMPRESS = 1

FUNCTION_NAMES = [
    "cpaDcGetNumInstances", "cpaDcStartInstance", "cpaDcStopInstance",
    "cpaDcInitSession", "cpaDcRemoveSession", "cpaDcCompressData",
    "cpaDcDecompressData", "cpaDcGetStats",
]


class DcSession:
    """One compression session bound to an instance."""

    def __init__(self, instance: SimulatedQAT, owner: QATSession,
                 level: int, direction: int) -> None:
        self.instance = instance
        #: the native session whose instance entry counts this session
        self.owner = owner
        self.level = level
        self.direction = direction
        self.removed = False


class QATSession(NativeSession):
    """Process binding of the QAT API to devices and a caller clock."""

    stack = []
    device = SimulatedQAT
    clock_name = "qatapp"
    call_overhead = 0.25e-6


_session = QATSession.enter


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------


def cpaDcGetNumInstances(num_instances: OutBox) -> int:
    sess = _session()
    if num_instances is None:
        return CPA_STATUS_INVALID_PARAM
    set_box(num_instances, len(sess.devices))
    return CPA_STATUS_SUCCESS


def cpaDcStartInstance(index: int, instance: OutBox) -> int:
    sess = _session()
    if instance is None or not 0 <= int(index) < len(sess.devices):
        return CPA_STATUS_INVALID_PARAM
    device = sess.devices[int(index)]
    holding = device.held(sess)
    if holding.opened:
        return CPA_STATUS_RESOURCE
    holding.opened = True
    set_box(instance, device)
    return CPA_STATUS_SUCCESS


def cpaDcStopInstance(instance: Any) -> int:
    sess = _session()
    if not isinstance(instance, SimulatedQAT):
        return CPA_STATUS_INVALID_PARAM
    holding = instance.held(sess)
    if not holding.opened:
        return CPA_STATUS_INVALID_PARAM
    if holding.sessions:
        return CPA_STATUS_RESOURCE  # sessions still open
    holding.opened = False
    return CPA_STATUS_SUCCESS


# ---------------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------------


def cpaDcInitSession(instance: Any, session: OutBox, level: int,
                     direction: int) -> int:
    sess = _session()
    if not isinstance(instance, SimulatedQAT) or session is None:
        return CPA_STATUS_INVALID_PARAM
    holding = instance.held(sess)
    if not holding.opened:
        return CPA_STATUS_RESOURCE
    if not 1 <= int(level) <= 9:
        return CPA_STATUS_INVALID_PARAM
    if direction not in (CPA_DC_DIR_COMPRESS, CPA_DC_DIR_DECOMPRESS):
        return CPA_STATUS_INVALID_PARAM
    if holding.sessions >= instance.spec.max_sessions:
        return CPA_STATUS_RESOURCE
    holding.sessions += 1
    set_box(session, DcSession(instance, sess, int(level), int(direction)))
    return CPA_STATUS_SUCCESS


def cpaDcRemoveSession(session: Any) -> int:
    _session()
    if not isinstance(session, DcSession) or session.removed:
        return CPA_STATUS_INVALID_PARAM
    session.removed = True
    session.instance.held(session.owner).sessions -= 1
    return CPA_STATUS_SUCCESS


# ---------------------------------------------------------------------------
# data path
# ---------------------------------------------------------------------------


def _run_request(session: DcSession, src: Any, src_size: int, dst: Any,
                 dst_capacity: int, produced: OutBox,
                 decompress: bool) -> int:
    sess = _session()
    if not isinstance(session, DcSession) or session.removed:
        return CPA_STATUS_INVALID_PARAM
    if src is None or dst is None or produced is None:
        return CPA_STATUS_INVALID_PARAM
    expected = (CPA_DC_DIR_DECOMPRESS if decompress
                else CPA_DC_DIR_COMPRESS)
    if session.direction != expected:
        return CPA_STATUS_INVALID_PARAM
    payload = borrow_bytes(src, limit=int(src_size))
    if len(payload) < int(src_size):
        return CPA_STATUS_INVALID_PARAM
    try:
        if decompress:
            result = zlib.decompress(payload)
        else:
            result = zlib.compress(payload, session.level)
    except zlib.error:
        return CPA_DC_BAD_DATA
    if len(result) > int(dst_capacity):
        return CPA_DC_OVERFLOW
    write_back(dst, result)
    set_box(produced, len(result))
    instance = session.instance
    timer = instance.occupy(
        instance.request_cost(len(payload), decompress), sess.clock.now,
        "decompress" if decompress else "compress")
    instance.bytes_consumed += len(payload)
    instance.bytes_produced += len(result)
    sess.clock.advance_to(timer.end, "dc_wait")
    return CPA_STATUS_SUCCESS


def cpaDcCompressData(session: Any, src: Any, src_size: int, dst: Any,
                      dst_capacity: int, produced: OutBox) -> int:
    return _run_request(session, src, src_size, dst, dst_capacity,
                        produced, decompress=False)


def cpaDcDecompressData(session: Any, src: Any, src_size: int, dst: Any,
                        dst_capacity: int, produced: OutBox) -> int:
    return _run_request(session, src, src_size, dst, dst_capacity,
                        produced, decompress=True)


def cpaDcGetStats(instance: Any, bytes_consumed: OutBox,
                  bytes_produced: OutBox, num_requests: OutBox) -> int:
    _session()
    if not isinstance(instance, SimulatedQAT):
        return CPA_STATUS_INVALID_PARAM
    set_box(bytes_consumed, instance.bytes_consumed)
    set_box(bytes_produced, instance.bytes_produced)
    set_box(num_requests, sum(instance.op_counts.values()))
    return CPA_STATUS_SUCCESS
