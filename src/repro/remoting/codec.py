"""Wire format for forwarded API calls.

A forwarded invocation crosses the guest/hypervisor/host boundary as a
:class:`Command`; the host answers with a :class:`Reply` (or, batched,
:class:`CommandBatch` and :class:`ReplyBatch`; a transfer-cache miss is
answered with :class:`NeedBytes`).  This module holds those messages,
:class:`CodecError`, and the small tagged-value format every frame is
written in (no pickle — the router must be able to treat guest input as
untrusted data):

========  =======================================
tag byte  payload
========  =======================================
``N``     None
``T``     true / ``F`` false
``I``     int64 (big endian)
``D``     float64
``S``     utf-8 string  (u32 length prefix)
``B``     raw bytes     (u32 length prefix)
``L``     list          (u32 count, then items)
``M``     dict[str, v]  (u32 count, then pairs)
========  =======================================

A frame is a two-byte magic, a u32 body length, and the message's wire
dict as one ``M`` value.  The one codec that writes and reads frames is
the table-driven walker of :mod:`repro.remoting.speccodec`; it packs the
common tags inline and hands everything else to the shared
:func:`_encode_value` / :func:`_decode_value` below, which
:mod:`repro.mvnc.graph` uses too.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.remoting.buffers import WireBuffer


class CodecError(Exception):
    """Malformed wire data."""


# ---------------------------------------------------------------------------
# tagged-value encoding
# ---------------------------------------------------------------------------

_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")

#: maximum container nesting; guests have no business sending deeper
#: structures, and unbounded depth turns the recursive decoder into a
#: guest-triggerable RecursionError inside the router
_MAX_DEPTH = 64


def _encode_value(value: Any, out: List[bytes]) -> None:
    if value is None:
        out.append(b"N")
    elif value is True:
        out.append(b"T")
    elif value is False:
        out.append(b"F")
    elif isinstance(value, int):
        out.append(b"I")
        out.append(_I64.pack(value))
    elif isinstance(value, float):
        out.append(b"D")
        out.append(_F64.pack(value))
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out.append(b"S")
        out.append(_U32.pack(len(data)))
        out.append(data)
    elif isinstance(value, (bytes, bytearray, memoryview, WireBuffer)):
        if isinstance(value, WireBuffer):
            value = value.view()
        if isinstance(value, memoryview):
            # splice views without a bytes() round-trip; only shapes
            # b"".join cannot consume directly are normalized
            if not value.c_contiguous:
                value = bytes(value)
            elif value.ndim != 1 or value.itemsize != 1:
                value = value.cast("B")
        out.append(b"B")
        out.append(_U32.pack(len(value)))
        out.append(value)
    elif isinstance(value, (list, tuple)):
        out.append(b"L")
        out.append(_U32.pack(len(value)))
        for item in value:
            _encode_value(item, out)
    elif isinstance(value, dict):
        out.append(b"M")
        out.append(_U32.pack(len(value)))
        for key, item in value.items():
            if not isinstance(key, str):
                raise CodecError(f"dict keys must be str, got {type(key).__name__}")
            data = key.encode("utf-8")
            out.append(_U32.pack(len(data)))
            out.append(data)
            _encode_value(item, out)
    else:
        raise CodecError(f"cannot encode {type(value).__name__} on the wire")


def _unpack_from(fmt: struct.Struct, data: bytes, offset: int) -> Any:
    """``Struct.unpack_from`` that fails as :class:`CodecError`.

    Every fixed-width read in the decoder goes through here, so a frame
    truncated mid-field can never surface as a raw ``struct.error``.
    """
    try:
        (value,) = fmt.unpack_from(data, offset)
    except struct.error as err:
        raise CodecError(f"truncated wire data: {err}") from err
    return value


def _decode_value(data: bytes, offset: int, depth: int = 0) -> Tuple[Any, int]:
    if depth > _MAX_DEPTH:
        raise CodecError(f"wire data nested deeper than {_MAX_DEPTH}")
    if offset >= len(data):
        raise CodecError("truncated wire data")
    tag = data[offset:offset + 1]
    offset += 1
    if tag == b"N":
        return None, offset
    if tag == b"T":
        return True, offset
    if tag == b"F":
        return False, offset
    if tag == b"I":
        return _unpack_from(_I64, data, offset), offset + 8
    if tag == b"D":
        return _unpack_from(_F64, data, offset), offset + 8
    if tag in (b"S", b"B"):
        length = _unpack_from(_U32, data, offset)
        offset += 4
        chunk = data[offset:offset + length]
        if len(chunk) != length:
            raise CodecError("truncated string/bytes payload")
        offset += length
        return (chunk.decode("utf-8") if tag == b"S" else chunk), offset
    if tag == b"L":
        count = _unpack_from(_U32, data, offset)
        offset += 4
        # the count is attacker-controlled: every item costs at least one
        # tag byte, so a count beyond the remaining bytes is malformed —
        # reject it before looping rather than after ~4G iterations
        if count > len(data) - offset:
            raise CodecError(
                f"list count {count} exceeds {len(data) - offset} "
                f"remaining bytes"
            )
        items = []
        for _ in range(count):
            item, offset = _decode_value(data, offset, depth + 1)
            items.append(item)
        return items, offset
    if tag == b"M":
        count = _unpack_from(_U32, data, offset)
        offset += 4
        # each pair costs at least 4 length bytes + 1 value tag byte
        if count * 5 > len(data) - offset:
            raise CodecError(
                f"dict count {count} exceeds {len(data) - offset} "
                f"remaining bytes"
            )
        result: Dict[str, Any] = {}
        for _ in range(count):
            key_len = _unpack_from(_U32, data, offset)
            offset += 4
            key_chunk = data[offset:offset + key_len]
            if len(key_chunk) != key_len:
                raise CodecError("truncated dict key")
            key = key_chunk.decode("utf-8")
            offset += key_len
            value, offset = _decode_value(data, offset, depth + 1)
            result[key] = value
        return result, offset
    raise CodecError(f"unknown wire tag {tag!r}")


def encode_value(value: Any) -> bytes:
    """Encode one value in the tagged wire format."""
    out: List[bytes] = []
    _encode_value(value, out)
    return b"".join(out)


def decode_value(data: bytes) -> Any:
    """Decode one value; trailing bytes are an error.

    This is a trust boundary: the bytes come from guests.  Every
    malformation — truncated fields, invalid UTF-8, bad tags — must
    surface as :class:`CodecError`, never as a raw library exception
    that could escape the router's handler.
    """
    try:
        value, offset = _decode_value(data, 0)
    except (struct.error, UnicodeDecodeError, OverflowError,
            RecursionError) as err:
        raise CodecError(f"malformed wire data: {err}") from err
    if offset != len(data):
        raise CodecError(f"{len(data) - offset} trailing bytes after value")
    return value


# ---------------------------------------------------------------------------
# commands and replies
# ---------------------------------------------------------------------------


#: digest length the transfer cache puts on the wire (blake2b-16)
_DIGEST_BYTES = 16


@dataclass
class Command:
    """One forwarded API invocation, guest → host."""

    seq: int
    vm_id: str
    api: str
    function: str
    #: "sync" or "async" — resolved by the guest stub from the spec
    mode: str = "sync"
    #: scalar arguments by parameter name (ints, floats, bools, strings)
    scalars: Dict[str, Any] = field(default_factory=dict)
    #: handle arguments: guest ids (int), lists of ids, or None
    handles: Dict[str, Any] = field(default_factory=dict)
    #: input buffer payloads, already serialized
    in_buffers: Dict[str, bytes] = field(default_factory=dict)
    #: declared byte sizes of output buffers the host must fill
    out_sizes: Dict[str, int] = field(default_factory=dict)
    #: content-addressed stand-ins for elided payloads:
    #: ``param -> [digest, size, kind]`` (see ``repro.remoting.xfercache``);
    #: empty unless a :class:`~repro.remoting.xfercache.CachePolicy` is
    #: armed, so the wire encoding without one is unchanged
    cached_refs: Dict[str, List[Any]] = field(default_factory=dict)
    #: guest virtual time at which the command was issued
    issue_time: float = 0.0
    #: propagated trace context (set only while tracing is enabled, so
    #: the untraced wire encoding — and thus its costs — is unchanged)
    trace_id: Optional[str] = None
    span_id: Optional[int] = None

    def payload_bytes(self) -> int:
        """Bytes of bulk payload carried guest → host."""
        return sum(map(len, self.in_buffers.values()))


@dataclass
class Reply:
    """The host's answer to one :class:`Command`."""

    seq: int
    return_value: Any = None
    #: filled output buffers by parameter name
    out_payloads: Dict[str, bytes] = field(default_factory=dict)
    #: scalar out-parameters (OutBox results) by parameter name
    out_scalars: Dict[str, Any] = field(default_factory=dict)
    #: freshly allocated handles by parameter name (id or list of ids)
    new_handles: Dict[str, Any] = field(default_factory=dict)
    #: deferred guest-callback invocations: [callback_id, [scalar args]]
    callbacks: List[Any] = field(default_factory=list)
    #: host-side failure (exception text); None on success
    error: Optional[str] = None
    #: host virtual time at which execution completed
    complete_time: float = 0.0
    #: server-side dispatch span id (set only while tracing is enabled)
    span_id: Optional[int] = None

    def payload_bytes(self) -> int:
        """Bytes of bulk payload carried host → guest."""
        return sum(map(len, self.out_payloads.values()))


@dataclass
class CommandBatch:
    """A coalesced frame of asynchronous commands, guest → host.

    The guest runtime queues async :class:`Command`\\ s between
    synchronization points and flushes them as *one* wire frame (one
    transport delivery, one doorbell).  The batch carries no semantics
    of its own: the router unbundles it and routes every inner command
    through the ordinary verification/policy path, in order.
    """

    vm_id: str
    commands: List[Command] = field(default_factory=list)
    #: guest virtual time at which the batch was flushed
    flush_time: float = 0.0

    def __len__(self) -> int:
        return len(self.commands)

    def payload_bytes(self) -> int:
        """Bytes of bulk payload carried guest → host, summed."""
        return sum(command.payload_bytes() for command in self.commands)


@dataclass
class ReplyBatch:
    """The host's answer to one :class:`CommandBatch`.

    Carries exactly one :class:`Reply` per inner command, in command
    order, so the guest runtime can apply outputs and record deferred
    async errors positionally.
    """

    replies: List[Reply] = field(default_factory=list)
    #: host virtual time at which the last inner command completed
    complete_time: float = 0.0

    def __len__(self) -> int:
        return len(self.replies)

    def payload_bytes(self) -> int:
        """Bytes of bulk payload carried host → guest, summed."""
        return sum(reply.payload_bytes() for reply in self.replies)


@dataclass
class NeedBytes:
    """Host → guest: cached refs in a frame missed the transfer store.

    The router answers a frame whose :class:`Command.cached_refs` cannot
    all be resolved with one ``NeedBytes`` naming every missing ref —
    and executes *nothing* from that frame — so the guest can restore
    the payloads and re-deliver the frame exactly once.
    """

    #: seq of the first command in the rejected frame (batch: first cmd)
    seq: int
    #: every unresolved ref as ``[seq, param, digest]``
    missing: List[Any] = field(default_factory=list)
    #: host virtual time at which the miss was detected
    complete_time: float = 0.0


_COMMAND_MAGIC = b"\xabC"
_REPLY_MAGIC = b"\xabR"
_COMMAND_BATCH_MAGIC = b"\xabB"
_REPLY_BATCH_MAGIC = b"\xabP"
_NEED_BYTES_MAGIC = b"\xabN"
