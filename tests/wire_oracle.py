"""The byte-format oracle: the self-describing codec the walker is held to.

Every message has a *wire dict* (:func:`to_wire_dict`), and a frame is
its magic, a u32 body length and that dict written in the tagged-value
format of :mod:`repro.remoting.codec`.  This module interprets that
format field by field at run time, validating each decoded field's type
(:func:`from_wire_dict`), so it accepts any key order and any value the
dict may hold.  It is the reference the parity fuzz
(``tests/test_codec_parity.py``) compares the generated walker's bytes
and decodes against, the fake codec hand-built ``Router``/``Transport``
tests pass in (:class:`OracleCodec`), and the baseline
``benchmarks/bench_codec.py`` races.  :class:`StreamFramer` cuts a byte
stream into such frames.  The runtime never uses any of it; hostile-frame
tests write their frames with :func:`raw_frame` and throw each at the
oracle and at the runtime's walker (:func:`walker`).
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List

from repro.remoting.buffers import BYTES_LIKE
from repro.remoting.codec import (
    _COMMAND_BATCH_MAGIC,
    _COMMAND_MAGIC,
    _NEED_BYTES_MAGIC,
    _REPLY_BATCH_MAGIC,
    _REPLY_MAGIC,
    CodecError,
    Command,
    CommandBatch,
    NeedBytes,
    Reply,
    ReplyBatch,
    _unpack_from,
    decode_value,
    encode_value,
)
from repro.remoting.wire import FrameLike, WireCodec, frame_bytes

_U32 = struct.Struct(">I")


def _checked(value: Any, types: Any, what: str) -> Any:
    """Require a decoded wire field to have its declared type.

    Message fields come from guests; building a :class:`Command` out of
    mistyped ones would defer the blow-up to the router's accounting or
    dispatch path (or worse: ``bytes(huge_int)`` is a memory bomb).
    """
    accepted = types if isinstance(types, tuple) else (types,)
    mistyped = not isinstance(value, accepted) or (
        isinstance(value, bool) and bool not in accepted
    )
    if mistyped:
        raise CodecError(f"{what} has wire type {type(value).__name__}")
    return value


def _buffer_dict(value: Any, what: str) -> Dict[str, bytes]:
    """Validate and normalize a dict of bulk byte payloads."""
    _checked(value, dict, what)
    result: Dict[str, bytes] = {}
    for key, chunk in value.items():
        if not isinstance(chunk, BYTES_LIKE):
            raise CodecError(
                f"{what} entry {key!r} must be bytes, "
                f"got {type(chunk).__name__}"
            )
        result[key] = bytes(chunk)
    return result


#: payload kinds a cached ref may replace: a bulk ``in`` buffer or a
#: large string scalar (kernel/program source)
_CACHED_REF_KINDS = ("buf", "str")


def _cached_ref_dict(value: Any, what: str) -> Dict[str, List[Any]]:
    """Validate a dict of ``param -> [digest, size, kind]`` cached refs.

    Refs come from guests and stand in for real payload bytes, so every
    field is load-bearing at the trust boundary: the digest keys the
    server store, the size feeds quota/cost accounting before any bytes
    exist, and the kind decides where the resolved payload lands.
    """
    _checked(value, dict, what)
    result: Dict[str, List[Any]] = {}
    for key, entry in value.items():
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise CodecError(
                f"{what} entry {key!r} must be [digest, size, kind]"
            )
        digest, size, kind = entry
        if not isinstance(digest, BYTES_LIKE):
            raise CodecError(
                f"{what} entry {key!r} digest must be bytes, "
                f"got {type(digest).__name__}"
            )
        digest = bytes(digest)
        if not 1 <= len(digest) <= 64:
            raise CodecError(
                f"{what} entry {key!r} digest length {len(digest)} "
                f"outside [1, 64]"
            )
        if not isinstance(size, int) or isinstance(size, bool) or size < 0:
            raise CodecError(
                f"{what} entry {key!r} size must be a non-negative int, "
                f"got {size!r}"
            )
        if kind not in _CACHED_REF_KINDS:
            raise CodecError(
                f"{what} entry {key!r} kind must be one of "
                f"{_CACHED_REF_KINDS}, got {kind!r}"
            )
        result[key] = [digest, size, kind]
    return result


# ---------------------------------------------------------------------------
# message → wire dict
# ---------------------------------------------------------------------------


def _command_wire(command: Command) -> Dict[str, Any]:
    wire: Dict[str, Any] = {
        "seq": command.seq,
        "vm": command.vm_id,
        "api": command.api,
        "fn": command.function,
        "mode": command.mode,
        "scalars": command.scalars,
        "handles": command.handles,
        "inbufs": command.in_buffers,
        "outsz": command.out_sizes,
        "t": command.issue_time,
    }
    if command.trace_id is not None or command.span_id is not None:
        wire["tr"] = [command.trace_id, command.span_id]
    if command.cached_refs:
        wire["xr"] = command.cached_refs
    return wire


def _reply_wire(reply: Reply) -> Dict[str, Any]:
    wire: Dict[str, Any] = {
        "seq": reply.seq,
        "ret": reply.return_value,
        "outs": reply.out_payloads,
        "oscal": reply.out_scalars,
        "new": reply.new_handles,
        "cbs": reply.callbacks,
        "err": reply.error,
        "t": reply.complete_time,
    }
    if reply.span_id is not None:
        wire["tr"] = reply.span_id
    return wire


def _batch_wire(batch: CommandBatch) -> Dict[str, Any]:
    return {
        "vm": batch.vm_id,
        "cmds": [_command_wire(command) for command in batch.commands],
        "t": batch.flush_time,
    }


def _reply_batch_wire(batch: ReplyBatch) -> Dict[str, Any]:
    return {
        "replies": [_reply_wire(reply) for reply in batch.replies],
        "t": batch.complete_time,
    }


def _need_bytes_wire(message: NeedBytes) -> Dict[str, Any]:
    return {
        "seq": message.seq,
        "miss": message.missing,
        "t": message.complete_time,
    }


# ---------------------------------------------------------------------------
# wire dict → message (validated: the bytes come from guests)
# ---------------------------------------------------------------------------


def _command_from_wire(data: Dict[str, Any]) -> Command:
    trace = data.get("tr")
    if trace is None:
        trace = (None, None)
    elif not isinstance(trace, (list, tuple)) or len(trace) != 2:
        raise CodecError(f"malformed trace context {trace!r}")
    try:
        command = Command(
            seq=_checked(data["seq"], int, "command seq"),
            vm_id=_checked(data["vm"], str, "command vm"),
            api=_checked(data["api"], str, "command api"),
            function=_checked(data["fn"], str, "command fn"),
            mode=_checked(data["mode"], str, "command mode"),
            scalars=_checked(data["scalars"], dict, "command scalars"),
            handles=_checked(data["handles"], dict, "command handles"),
            in_buffers=_buffer_dict(data["inbufs"], "command inbufs"),
            out_sizes=_checked(data["outsz"], dict, "command outsz"),
            issue_time=_checked(data["t"], (int, float), "command t"),
            trace_id=trace[0],
            span_id=trace[1],
            cached_refs=_cached_ref_dict(data.get("xr", {}), "command xr"),
        )
    except KeyError as missing:
        raise CodecError(f"command missing field {missing}") from None
    for name, size in command.out_sizes.items():
        if not isinstance(size, int) or isinstance(size, bool):
            raise CodecError(
                f"command out-size {name!r} must be an int, "
                f"got {type(size).__name__}"
            )
    for name in command.cached_refs:
        # a ref and a literal payload for the same parameter is
        # contradictory — resolving it would silently pick one
        if name in command.in_buffers:
            raise CodecError(
                f"command parameter {name!r} carries both a cached "
                f"ref and literal payload bytes"
            )
    return command


def _reply_from_wire(data: Dict[str, Any]) -> Reply:
    error = data.get("err")
    if error is not None and not isinstance(error, str):
        raise CodecError(f"reply err has wire type {type(error).__name__}")
    try:
        return Reply(
            seq=_checked(data["seq"], int, "reply seq"),
            return_value=data["ret"],
            out_payloads=_buffer_dict(data["outs"], "reply outs"),
            out_scalars=_checked(data["oscal"], dict, "reply oscal"),
            new_handles=_checked(data["new"], dict, "reply new"),
            callbacks=_checked(data.get("cbs", []), list, "reply cbs"),
            error=error,
            complete_time=_checked(data["t"], (int, float), "reply t"),
            span_id=data.get("tr"),
        )
    except KeyError as missing:
        raise CodecError(f"reply missing field {missing}") from None


def _batch_from_wire(data: Dict[str, Any]) -> CommandBatch:
    try:
        vm_id = _checked(data["vm"], str, "batch vm")
        entries = _checked(data["cmds"], list, "batch cmds")
        flush_time = _checked(data["t"], (int, float), "batch t")
    except KeyError as missing:
        raise CodecError(f"batch missing field {missing}") from None
    if not entries:
        raise CodecError("batch carries no commands")
    commands: List[Command] = []
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise CodecError(
                f"batch command #{index} has wire type "
                f"{type(entry).__name__}"
            )
        commands.append(_command_from_wire(entry))
    return CommandBatch(vm_id=vm_id, commands=commands,
                        flush_time=flush_time)


def _reply_batch_from_wire(data: Dict[str, Any]) -> ReplyBatch:
    try:
        entries = _checked(data["replies"], list, "reply-batch replies")
        complete_time = _checked(data["t"], (int, float), "reply-batch t")
    except KeyError as missing:
        raise CodecError(f"reply batch missing field {missing}") from None
    replies: List[Reply] = []
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise CodecError(
                f"reply-batch reply #{index} has wire type "
                f"{type(entry).__name__}"
            )
        replies.append(_reply_from_wire(entry))
    return ReplyBatch(replies=replies, complete_time=complete_time)


def _need_bytes_from_wire(data: Dict[str, Any]) -> NeedBytes:
    try:
        seq = _checked(data["seq"], int, "need-bytes seq")
        entries = _checked(data["miss"], list, "need-bytes miss")
        complete_time = _checked(data["t"], (int, float), "need-bytes t")
    except KeyError as missing:
        raise CodecError(f"need-bytes missing field {missing}") from None
    if not entries:
        raise CodecError("need-bytes names no missing refs")
    parsed: List[Any] = []
    for index, entry in enumerate(entries):
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise CodecError(
                f"need-bytes miss #{index} must be [seq, param, digest]"
            )
        cmd_seq, param, digest = entry
        _checked(cmd_seq, int, f"need-bytes miss #{index} seq")
        _checked(param, str, f"need-bytes miss #{index} param")
        if not isinstance(digest, BYTES_LIKE):
            raise CodecError(
                f"need-bytes miss #{index} digest must be bytes, "
                f"got {type(digest).__name__}"
            )
        parsed.append([cmd_seq, param, bytes(digest)])
    return NeedBytes(seq=seq, missing=parsed, complete_time=complete_time)


#: message type → (magic, to wire dict, from wire dict)
_FORMS = {
    Command: (_COMMAND_MAGIC, _command_wire, _command_from_wire),
    Reply: (_REPLY_MAGIC, _reply_wire, _reply_from_wire),
    CommandBatch: (_COMMAND_BATCH_MAGIC, _batch_wire, _batch_from_wire),
    ReplyBatch: (_REPLY_BATCH_MAGIC, _reply_batch_wire,
                 _reply_batch_from_wire),
    NeedBytes: (_NEED_BYTES_MAGIC, _need_bytes_wire, _need_bytes_from_wire),
}
_BY_MAGIC = {magic: parse for magic, _, parse in _FORMS.values()}


def to_wire_dict(message: Any) -> Dict[str, Any]:
    """The wire dict of any message."""
    return _FORMS[type(message)][1](message)


def from_wire_dict(kind: type, data: Dict[str, Any]) -> Any:
    """A ``kind`` message (``Command``, ``Reply``, ...) from its wire
    dict, every field type-checked."""
    return _FORMS[kind][2](data)


def encode_message(message: Any) -> bytes:
    """Encode any message to one contiguous frame."""
    form = _FORMS.get(type(message))
    if form is None:
        raise CodecError(
            f"cannot encode {type(message).__name__} as a message"
        )
    body = encode_value(form[1](message))
    return form[0] + _U32.pack(len(body)) + body


def decode_message(data: FrameLike) -> Any:
    """Decode any frame; a trust boundary: any malformation raises
    :class:`CodecError`."""
    data = frame_bytes(data)
    if len(data) < 6:
        raise CodecError("message too short")
    magic, length = data[:2], _unpack_from(_U32, data, 2)
    body = data[6:6 + length]
    if len(body) != length:
        raise CodecError("truncated message body")
    decoded = decode_value(body)
    if not isinstance(decoded, dict):
        raise CodecError(
            f"message body is a {type(decoded).__name__}, not a dict"
        )
    parse = _BY_MAGIC.get(magic)
    if parse is None:
        raise CodecError(f"bad message magic {magic!r}")
    try:
        return parse(decoded)
    except (TypeError, AttributeError, ValueError) as err:
        raise CodecError(f"malformed message fields: {err}") from err


class OracleCodec(WireCodec):
    """The oracle as a :class:`WireCodec`: spec-agnostic, copy-based
    (every buffer crosses as fresh ``bytes``), hints ignored."""

    name = "interpreted"

    def encode_command(self, command: Any) -> bytes:
        return encode_message(command)

    def decode_command(self, data: FrameLike) -> Any:
        return decode_message(data)

    def encode_reply(self, reply: Any, reply_to: Any = None) -> bytes:
        return encode_message(reply)

    def decode_reply(self, data: FrameLike, reply_to: Any = None) -> Any:
        return decode_message(data)

    def decode_message(self, data: FrameLike, reply_to: Any = None) -> Any:
        return decode_message(data)


#: one shared instance for tests that only need a codec to pass in
ORACLE = OracleCodec()


def raw_frame(kind: type, wire_dict: Any) -> bytes:
    """The frame of a ``kind`` message whose wire dict is ``wire_dict``,
    whatever that holds: how a test writes a hostile frame."""
    body = encode_value(wire_dict)
    return _FORMS[kind][0] + _U32.pack(len(body)) + body


def walker(*apis: str) -> WireCodec:
    """A fresh runtime codec holding the generated tables of ``apis``:
    the decoder a hostile frame has to get past."""
    from repro.stack import build_stack, resolve_codec

    return resolve_codec(None, [build_stack(api) for api in apis])


class StreamFramer:
    """Stateful framing helper for stream transports (sockets).

    Feed raw stream chunks in with :meth:`feed`; complete messages pop
    out of :meth:`messages`, decoded by the oracle.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, chunk: bytes) -> None:
        self._buffer.extend(chunk)

    def messages(self) -> List[Any]:
        """Drain and decode all complete messages buffered so far."""
        result = []
        while len(self._buffer) >= 6:
            (length,) = _U32.unpack_from(self._buffer, 2)
            total = 6 + length
            if len(self._buffer) < total:
                break
            frame = bytes(self._buffer[:total])
            del self._buffer[:total]
            result.append(decode_message(frame))
        return result
