"""The runtime codec: table-driven marshaling walkers.

At codegen time, :mod:`repro.codegen.codec_gen` emits one module per
API holding a :class:`CommandTable` / :class:`ReplyTable` pair per
function.  A table describes each of its frame sections once — a
header constant per entry count plus the declared parameters in spec
order, each with its precomputed key bytes and the values its kind
admits — and one encode walker and one decode walker serve all seven
sections.  Encode appends straight into one growing frame allocation
(:class:`FrameBuilder`, length patched with ``pack_into`` at finish)
and splices bulk payloads in by reference; decode walks such a vectored
frame without joining it and hands the payload segments on as they
are (a contiguous frame's payloads come back as ``memoryview`` slices
of it), so in both directions a payload is borrowed from its producer
to its consumer — see :mod:`repro.remoting.buffers` for who may keep
one.

The optional fields ride the same walk: trace context ``tr``
(``[trace id, span id]``, and the span id alone on a reply), the
transfer cache's ``xr`` section, whose entries a :class:`CommandTable`
precomputes once per parameter a cached ref may stand in for — each
in-buffer (kind ``buf``) and each string scalar (kind ``str``) — and a
reply's callbacks (``cbs``) and error text (``err``).  Frames that need
no table walk too: a refusal reply (empty sections, so it encodes and
decodes with no ``reply_to`` or under a :class:`CommandBatch` one) and
a :class:`NeedBytes` answer.

**One conformance rule.**  A section carries an *in-order subset* of
its declared parameters, which is what the generated stubs produce
(they fill their dicts in parameter order and omit NULL pointers);
``xr`` counts as a section whose entries are ``[16-byte digest,
non-negative size, the parameter's kind]`` with no literal payload for
the same parameter.  Payload slots hold bytes and out-size slots ints;
a scalar, handle or reply value outside its kind's inline tags (a
bool, a nested list) goes through the shared tagged-value writer and
reader of :mod:`repro.remoting.codec`.  Anything else — keys out of
spec order, a duplicated or unknown key, a function without tables, a
mode other than sync/async, a malformed ref or trace context, an
integer time, a section that is not a dict, a truncated, forged or
trailing-byte frame, nesting deeper than 64 — is a
:class:`~repro.remoting.codec.CodecError` raised by the walker itself
(an encoder before it returns a frame).  A batch holding one such
command is malformed as a whole.  Nothing decodes a frame twice.

Where the rule leaves only numbers free, the walk is one precomputed
run, decided per message and never by a setting.  A *plain* reply — an
``int`` return value, every section ``== {}``, ``callbacks == []``,
``error is None``, untraced — is the same layout for every function, so
its body is one ``struct.Struct`` (fixed run, seq, fixed run, return
value, fixed run, time): one pack, or one unpack and three constant
compares, alone or inside a :class:`ReplyBatch`.  A *plain* command —
every declared scalar and handle present, in spec order, each an
``int`` (a bool is not); ``in_buffers == {}``, ``out_sizes == {}``, no
trace context, no cached refs, a float time — is one layout per
function: everything after its head is its table's one ``struct``
(:attr:`CommandTable.plain`: static run, value, ..., static run, time),
one pack, or one unpack and one compare of the static runs, alone or
inside a :class:`CommandBatch`.  Alone, either plain message skips
:class:`FrameBuilder`: the frame's magic and length are packed with
its head, and a plain reply frame decodes, header and all, in one
unpack.  A message or frame one field off plain walks.  A command's
``api`` + ``fn`` + ``mode`` run is a per-mode table constant
(:attr:`CommandTable.heads`): the encoder appends it, the decoder finds
table and mode with one dict probe, and a run of empty sections is
stepped over with one compare (:attr:`CommandTable.empty_runs`).

**Byte identity is the contract.**  For every message it encodes, the
walker emits exactly the bytes of the self-describing tagged-value
encoding of the message's wire dict, and decodes them back to the same
message; ``tests/wire_oracle.py`` keeps that encoding as the oracle the
parity fuzz holds the walker to.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.remoting import codec as _codec
from repro.remoting.buffers import BYTES_LIKE, WireBuffer
from repro.remoting.codec import (
    CodecError,
    Command,
    CommandBatch,
    NeedBytes,
    Reply,
    ReplyBatch,
)
from repro.remoting.wire import FrameLike, WireCodec, WireFrame, frame_bytes

_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
#: tag byte + fixed-width value, packed in one call
_TI64 = struct.Struct(">cq")
_TF64 = struct.Struct(">cd")

#: the one size line of the data path: payloads at or above this many
#: bytes are borrowed (the guest stub hands a view, frames carry it as
#: a segment, decode passes it on); smaller ones are copied into the
#: contiguous header allocation, where a copy is cheaper than a segment
_SPLICE_THRESHOLD = 512

#: what a walker's own reads and packs raise on a frame or message it
#: cannot carry; each codec operation reports them as CodecError
_MALFORMED = (struct.error, IndexError, UnicodeError)


def _key(name: str) -> bytes:
    """A dict key as encoded on the wire: u32 length + utf-8 bytes."""
    encoded = name.encode("utf-8")
    return _U32.pack(len(encoded)) + encoded


def _s(text: str) -> bytes:
    """A string value as encoded on the wire: S tag + u32 + utf-8."""
    encoded = text.encode("utf-8")
    return b"S" + _U32.pack(len(encoded)) + encoded


# ---------------------------------------------------------------------------
# frame assembly
# ---------------------------------------------------------------------------


class FrameBuilder:
    """Builds one frame in a single growing allocation.

    The first 6 bytes are reserved for magic + u32 body length and
    patched with ``pack_into`` at :meth:`finish`.  Large payloads are
    spliced in as segments via :meth:`splice`; everything else lands in
    the current contiguous tail (``cur``).  Callers must re-read
    :attr:`cur` after every :meth:`splice`.
    """

    __slots__ = ("first", "cur", "parts")

    def __init__(self) -> None:
        self.first = bytearray(6)
        self.cur = self.first
        self.parts: Optional[List[Any]] = None

    def splice(self, view: Any) -> None:
        """Append a payload segment by reference (no copy)."""
        if self.parts is None:
            self.parts = [self.first]
        self.parts.append(view)
        self.cur = bytearray()
        self.parts.append(self.cur)

    def finish(self, magic: bytes) -> Any:
        first = self.first
        first[0:2] = magic
        if self.parts is None:
            _U32.pack_into(first, 2, len(first) - 6)
            return bytes(first)
        # inline run, payload, inline run, ..., inline run: the shape
        # the decoder walks without joining (see WireFrame)
        _U32.pack_into(first, 2, sum(map(len, self.parts)) - 6)
        return WireFrame(self.parts)


def _payload_view(value: Any) -> Tuple[Any, int]:
    """Normalize a byte-like payload to (spliceable, nbytes)."""
    if isinstance(value, WireBuffer):
        value = value.view()
    if isinstance(value, bytes):
        return value, len(value)
    if isinstance(value, bytearray):
        return memoryview(value), len(value)
    if isinstance(value, memoryview):
        if not value.c_contiguous:
            value = bytes(value)
            return value, len(value)
        if value.ndim != 1 or value.itemsize != 1:
            value = value.cast("B")
        return value, value.nbytes
    raise CodecError(f"payload must be bytes, got {type(value).__name__}")


# ---------------------------------------------------------------------------
# marshaling tables (constructed at generated-module import time)
# ---------------------------------------------------------------------------

#: integer tag bytes for single-index comparisons (faster than slicing)
_TAG_N, _TAG_I, _TAG_D, _TAG_S, _TAG_L, _TAG_B = b"NIDSLB"

#: kind → the one tag its slot admits, or 0 for any tagged value.  The
#: first five are what a generated ``LAYOUT`` declares for scalars and
#: handles; the tables assign ``size`` to out-sizes, ``buf`` to
#: payloads and ``any`` to reply values, which the spec does not type.
_KIND_TAG = {
    "int": 0, "float": 0, "num": 0, "str": 0, "ints": 0, "any": 0,
    "size": _TAG_I, "buf": _TAG_B,
}


class _Section:
    """One frame section (an ``M`` dict under a fixed key), described
    once for both walkers."""

    __slots__ = ("name", "key", "headers", "entries")

    def __init__(self, key: str, kinds: Dict[str, str]) -> None:
        self.name = key
        #: section key + ``M`` tag; ``headers[n]`` adds the u32 count n
        self.key = _key(key) + b"M"
        self.headers = [self.key + _U32.pack(count)
                        for count in range(len(kinds) + 1)]
        #: (key constant, the kind's one tag or 0, name) in spec order
        self.entries: List[Tuple[bytes, int, str]] = []
        for name, kind in kinds.items():
            if kind not in _KIND_TAG:
                raise ValueError(
                    f"{key}: unknown kind {kind!r} for {name!r}")
            self.entries.append((_key(name), _KIND_TAG[kind], name))


#: a cached ref's value up to its digest: ``L[B digest, I size, S kind]``
#: with the digest as long as the transfer cache makes it
_REF_HEAD = b"L" + _U32.pack(3) + b"B" + _U32.pack(_codec._DIGEST_BYTES)

#: a command's ``mode`` field, by mode
_MODES = {mode: _key("mode") + _s(mode) for mode in ("sync", "async")}
#: issue/flush/complete times come off the virtual clock: floats
_T_KEY = _key("t") + b"D"


def _empty_runs(sections: Tuple[_Section, ...]) -> Tuple[bytes, ...]:
    """``runs[i]``: the wire run of ``sections[i:]``, every one empty."""
    return tuple(b"".join(section.headers[0] for section in sections[i:])
                 for i in range(len(sections)))


class CommandTable:
    """Precomputed wire layout for one function's Command frames."""

    def __init__(self, api: str, fn: str,
                 scalars: Optional[Dict[str, str]] = None,
                 handles: Optional[Dict[str, str]] = None,
                 inbufs: Iterable[str] = (),
                 outsz: Iterable[str] = ()) -> None:
        self.api = api
        self.fn = fn
        scalars = scalars or {}
        inbufs = list(inbufs)
        #: the raw ``api`` + ``fn`` + ``mode`` wire region, by mode: what
        #: the encoder appends and the decoder looks this table up by
        api_fn = _key("api") + _s(api) + _key("fn") + _s(fn)
        self.heads = {mode: api_fn + run for mode, run in _MODES.items()}
        #: the frame's sections in wire order
        self.sections = (
            _Section("scalars", scalars),
            _Section("handles", handles or {}),
            _Section("inbufs", dict.fromkeys(inbufs, "buf")),
            _Section("outsz", dict.fromkeys(outsz, "size")),
        )
        #: ``empty_runs[i]``: the wire run of sections ``i`` onward, all
        #: of them empty (decode steps over such a tail in one compare)
        self.empty_runs = _empty_runs(self.sections)
        #: the plain run — every declared scalar and handle an int, in
        #: spec order, no payload or out-size, then the time: one
        #: ``struct`` of (static run, value) pairs and the time, whose
        #: static runs (``plain_runs``) are the decoder's one compare
        #: and fill the even slots of its pack arguments (``plain_args``);
        #: ``*_slots`` say where in the unpacked run each value sits
        self.names = (*scalars, *(handles or {}))
        self.plain_types = (int,) * len(self.names) + (float,)
        slots = tuple((name, 2 * index + 1)
                      for index, name in enumerate(self.names))
        self.scalar_slots = slots[:len(scalars)]
        self.handle_slots = slots[len(scalars):]
        runs, run = [], b""
        for section in self.sections[:2]:
            run += section.headers[len(section.entries)]
            for key, _, _ in section.entries:
                runs.append(run + key + b"I")
                run = b""
        runs.append(run + self.empty_runs[2] + _T_KEY)
        self.plain = struct.Struct(
            ">" + "".join(f"{len(run)}sq" for run in runs[:-1])
            + f"{len(runs[-1])}sd")
        self.plain_runs = tuple(runs)
        #: where the last static run starts in a plain run: a value of
        #: another width shifts it, so a walked frame rarely matches it
        self.plain_tail_at = self.plain.size - 8 - len(runs[-1])
        self.plain_args: List[Any] = [None] * (2 * len(runs))
        self.plain_args[0::2] = runs
        #: the optional ``xr`` section: (key + value head, kind run,
        #: name, kind) per parameter a cached ref may stand in for, in
        #: the guest's elision order — in-buffers, then string scalars
        self.refs = tuple(
            (_key(name) + _REF_HEAD, _s(kind), name, kind)
            for name, kind in [(name, "buf") for name in inbufs] + [
                (name, "str") for name, kind in scalars.items()
                if kind == "str"])


class ReplyTable:
    """Precomputed wire layout for one function's Reply frames."""

    def __init__(self, ret: str = "scalar",
                 outs: Iterable[str] = (),
                 oscal: Iterable[str] = (),
                 new: Iterable[str] = ()) -> None:
        if ret not in ("scalar", "handle", "none"):
            raise ValueError(f"unknown return kind {ret!r}")
        self.ret = ret
        # the server stub binds a returned handle before any out-param
        new_names = ["__ret__"] if ret == "handle" else []
        new_names.extend(new)
        #: the frame's sections in wire order
        self.sections = (
            _Section("outs", dict.fromkeys(outs, "buf")),
            _Section("oscal", dict.fromkeys(oscal, "any")),
            _Section("new", dict.fromkeys(new_names, "any")),
        )
        self.empty_runs = _empty_runs(self.sections)


#: the layout of a reply that answers no one function — a refusal of a
#: whole frame, or any reply without its command as ``reply_to``: it
#: carries no outputs, so every section is empty
_BARE_REPLY = ReplyTable()

# static frame runs shared by every function
#: the command dict's head, by how many of the optional trailing
#: fields (``tr``, ``xr``) follow its ten fixed ones
_CMD_PREFIXES = {extra: b"M" + _U32.pack(10 + extra) + _key("seq") + b"I"
                 for extra in range(3)}
_CMD_EXTRA = {prefix: extra for extra, prefix in _CMD_PREFIXES.items()}
#: a plain command frame's head: magic, body length, prefix and seq
_CMD_FRAME = struct.Struct(f">2sI{len(_CMD_PREFIXES[0])}sq")
_VM_KEY = _key("vm") + b"S"
_BATCH_PREFIX = b"M" + _U32.pack(3) + _key("vm") + b"S"
_CMDS_KEY = _key("cmds") + b"L"
#: the reply dict's head, untraced (8 fields) and traced (+ ``tr``)
_REPLY_PREFIXES = (b"M" + _U32.pack(8) + _key("seq") + b"I",
                   b"M" + _U32.pack(9) + _key("seq") + b"I")
_REPLY_TRACED = {prefix: traced
                 for traced, prefix in enumerate(_REPLY_PREFIXES)}
_RET_KEY = _key("ret")
_CBS_KEY = _key("cbs")
_ERR_KEY = _key("err")
#: the common reply tail: no callbacks, no error, then the time
_REPLY_TAIL = _CBS_KEY + b"L" + _U32.pack(0) + _ERR_KEY + b"N" + _T_KEY
#: the plain reply — an int return, every section empty, no callbacks,
#: no error, untraced — is one fixed layout whatever the function:
#: (head run, seq, ``ret`` run, return value, tail run, time)
_PLAIN_HEAD = _REPLY_PREFIXES[0]
_PLAIN_RET = _RET_KEY + b"I"
_PLAIN_TAIL = _BARE_REPLY.empty_runs[0] + _REPLY_TAIL
_PLAIN_REST = f"q{len(_PLAIN_RET)}sq{len(_PLAIN_TAIL)}sd"
_PLAIN_REPLY = struct.Struct(f">{len(_PLAIN_HEAD)}s{_PLAIN_REST}")
#: a plain reply alone is a whole frame of one fixed layout too: its
#: magic and length join the head run
_PLAIN_FRAME_HEAD = (_codec._REPLY_MAGIC + _U32.pack(_PLAIN_REPLY.size)
                     + _PLAIN_HEAD)
_PLAIN_FRAME = struct.Struct(f">{len(_PLAIN_FRAME_HEAD)}s{_PLAIN_REST}")
_RB_PREFIX = b"M" + _U32.pack(2) + _key("replies") + b"L"
#: trace context: ``[trace id, span id]`` on a command, the span id
#: alone on a reply
_TR_KEY = _key("tr") + b"L" + _U32.pack(2) + b"S"
_REPLY_TR_KEY = _key("tr") + b"I"
_XR_KEY = _key("xr") + b"M"
#: a NeedBytes answer: seq, then its ``miss`` list, then the time
_NB_PREFIX = b"M" + _U32.pack(3) + _key("seq") + b"I"
_MISS_KEY = _key("miss")

_LP = len(_CMD_PREFIXES[0])
_LRP = len(_REPLY_PREFIXES[0])
_LTR = len(_TR_KEY)
_LVM = len(_VM_KEY)
#: where the u32 length of the api, fn and mode strings sits in each
#: field's run: past its key and the ``S`` tag
_LAPI, _LFN, _LMODE = (len(_key(name)) + 1 for name in ("api", "fn", "mode"))
_LPLAIN = _PLAIN_REPLY.size
_LPLAIN_FRAME = _PLAIN_FRAME.size

#: how many VM ids' ``vm`` runs a codec keeps (``SpecializedCodec.vm_runs``)
_VM_RUNS_BOUND = 1024


class _Tables(dict):
    """Table registry: a function without tables has no frame."""

    def __missing__(self, key: Any) -> Any:
        raise CodecError(f"no marshaling tables for {key!r}")


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------


def _enc_value(cur: bytearray, value: Any) -> None:
    """One tagged value: None, ints, floats, strings and flat int lists
    inline, anything else through the shared tagged-value writer."""
    kind = type(value)
    if kind is int:
        cur += _TI64.pack(b"I", value)
    elif kind is float:
        cur += _TF64.pack(b"D", value)
    elif value is None:
        cur += b"N"
    elif kind is str:
        encoded = value.encode("utf-8")
        cur += b"S"
        cur += _U32.pack(len(encoded))
        cur += encoded
    elif kind is list and all(type(item) is int for item in value):
        cur += b"L"
        cur += _U32.pack(len(value))
        for item in value:
            cur += _TI64.pack(b"I", item)
    else:
        parts: List[Any] = []
        _codec._encode_value(value, parts)
        cur += b"".join(parts)


def _enc_sections(builder: FrameBuilder, sections: Tuple[_Section, ...],
                  dicts: Tuple[Dict[str, Any], ...]) -> None:
    """Append a message's sections, each any in-order subset of its
    declared entries.

    Every message dict is walked against its section's entries in spec
    order; a key that is unknown, or known but behind the walk, is
    refused.  Payloads of :data:`_SPLICE_THRESHOLD` bytes and up ride
    as frame segments, by reference, instead of being copied.
    """
    cur = builder.cur
    for section, values in zip(sections, dicts):
        if not values:
            if not isinstance(values, dict):
                raise CodecError(f"{section.name} must be a dict")
            cur += section.headers[0]
            continue
        entries = section.entries
        if not isinstance(values, dict) or len(values) > len(entries):
            raise CodecError(f"{section.name} must be a dict of at most "
                             f"{len(entries)} declared entries")
        cur += section.headers[len(values)]
        declared = iter(entries)
        for name, value in values.items():
            for key, want, declared_name in declared:
                if declared_name == name:
                    break
            else:
                raise CodecError(f"{section.name}: {name!r} is undeclared "
                                 f"or out of spec order")
            cur += key
            if want == _TAG_B:
                view, nbytes = _payload_view(value)
                cur += b"B"
                cur += _U32.pack(nbytes)
                if nbytes >= _SPLICE_THRESHOLD:
                    builder.splice(view)
                    cur = builder.cur
                else:
                    cur += view
            elif type(value) is int:  # dominant, inlined
                cur += _TI64.pack(b"I", value)
            elif want:
                raise CodecError(f"{section.name}: {name!r} must be an int, "
                                 f"got {type(value).__name__}")
            else:
                _enc_value(cur, value)


def _enc_refs(command: Command, table: CommandTable) -> bytearray:
    """The command's ``xr`` section, checked whole before any of the
    frame is emitted: each ref an in-order entry of ``table.refs`` with
    a 16-byte digest, a non-negative int size and its entry's kind, and
    no literal payload beside it."""
    refs = command.cached_refs
    if type(refs) is not dict or len(refs) > len(table.refs):
        raise CodecError("xr: more refs than ref-eligible parameters")
    out = bytearray(_XR_KEY)
    out += _U32.pack(len(refs))
    declared = iter(table.refs)
    for name, ref in refs.items():
        for head, tail, declared_name, kind in declared:
            if declared_name == name:
                break
        else:
            raise CodecError(f"xr: {name!r} is not ref-eligible in spec "
                             f"order")
        if type(ref) is not list or len(ref) != 3:
            raise CodecError(f"xr: {name!r} must be [digest, size, kind]")
        digest, size, ref_kind = ref
        if (type(digest) is not bytes
                or len(digest) != _codec._DIGEST_BYTES
                or type(size) is not int or size < 0
                or type(ref_kind) is not str or ref_kind != kind
                or name in command.in_buffers or name in command.scalars):
            raise CodecError(f"xr: malformed ref for {name!r}")
        out += head
        out += digest
        out += _TI64.pack(b"I", size)
        out += tail
    return out


def _vm_run(vm_runs: Dict[str, bytes], vm_id: str) -> bytes:
    """``vm_id``'s ``vm`` run, kept in ``vm_runs`` (bounded)."""
    if len(vm_runs) >= _VM_RUNS_BOUND:
        vm_runs.clear()
    encoded = vm_id.encode("utf-8")
    vm = vm_runs[vm_id] = _VM_KEY + _U32.pack(len(encoded)) + encoded
    return vm


def _plain_command(command: Command, table: CommandTable,
                   vm_runs: Dict[str, bytes]) -> Optional[bytes]:
    """A plain command's wire run after its seq — its ``vm`` run, head
    and ``table.plain`` — or None: the command walks.

    Plain is every declared scalar and handle present, in spec order,
    each an ``int`` (not a bool); no payload, out-size, trace context or
    cached ref; an ``int`` seq, a ``float`` time and a known mode.
    """
    scalars, handles = command.scalars, command.handles
    if (command.in_buffers != {} or command.out_sizes != {}
            or type(scalars) is not dict or type(handles) is not dict
            or (*scalars, *handles) != table.names
            or len(scalars) != len(table.scalar_slots)
            or command.trace_id is not None or command.span_id is not None
            or command.cached_refs or type(command.seq) is not int
            or type(command.vm_id) is not str):
        return None
    values = (*scalars.values(), *handles.values(), command.issue_time)
    head = table.heads.get(command.mode)
    if tuple(map(type, values)) != table.plain_types or head is None:
        return None
    args = table.plain_args.copy()
    args[1::2] = values
    vm = vm_runs.get(command.vm_id) or _vm_run(vm_runs, command.vm_id)
    return vm + head + table.plain.pack(*args)


def _enc_command_body(builder: FrameBuilder, command: Command,
                      table: CommandTable, vm_runs: Dict[str, bytes]) -> None:
    """The command's wire dict; ``vm_runs`` caches each VM id's run."""
    head = table.heads.get(command.mode)
    if head is None:
        raise CodecError(f"mode {command.mode!r} is neither sync nor async")
    vm_id = command.vm_id
    if (type(command.seq) is not int or type(vm_id) is not str
            or type(command.issue_time) is not float):
        raise CodecError("command seq, vm or t has the wrong type")
    vm = vm_runs.get(vm_id) or _vm_run(vm_runs, vm_id)
    trace_id, span_id = command.trace_id, command.span_id
    trace = None
    if trace_id is not None or span_id is not None:
        if type(trace_id) is not str or type(span_id) is not int:
            raise CodecError("tr must be [trace id, span id]")
        encoded = trace_id.encode("utf-8")
        trace = (_TR_KEY + _U32.pack(len(encoded)) + encoded
                 + _TI64.pack(b"I", span_id))
    refs = _enc_refs(command, table) if command.cached_refs else None
    cur = builder.cur
    cur += _CMD_PREFIXES[(trace is not None) + (refs is not None)]
    cur += _I64.pack(command.seq)
    cur += vm
    cur += head
    _enc_sections(builder, table.sections,
                  (command.scalars, command.handles, command.in_buffers,
                   command.out_sizes))
    cur = builder.cur
    cur += _T_KEY
    cur += _F64.pack(command.issue_time)
    if trace is not None:
        cur += trace
    if refs is not None:
        cur += refs


def _plain_reply(reply: Reply) -> bool:
    """An ``int`` return, every section ``== {}``, no callbacks, no
    error, untraced, an ``int`` seq and a ``float`` time: the one fixed
    run (:data:`_PLAIN_REPLY`, or :data:`_PLAIN_FRAME` alone)."""
    return (type(reply.return_value) is int and type(reply.seq) is int
            and type(reply.complete_time) is float and reply.span_id is None
            and reply.error is None and reply.callbacks == []
            and reply.out_payloads == {} and reply.out_scalars == {}
            and reply.new_handles == {})


def _enc_reply_body(builder: FrameBuilder, reply: Reply,
                    table: ReplyTable) -> None:
    if type(reply.seq) is not int or type(reply.complete_time) is not float:
        raise CodecError("reply seq or t has the wrong type")
    trace = None
    if reply.span_id is not None:
        if type(reply.span_id) is not int:
            raise CodecError("reply tr must be a span id")
        trace = _REPLY_TR_KEY + _I64.pack(reply.span_id)
    cur = builder.cur
    cur += _REPLY_PREFIXES[trace is not None]
    cur += _I64.pack(reply.seq)
    cur += _RET_KEY
    _enc_value(cur, reply.return_value)
    _enc_sections(builder, table.sections,
                  (reply.out_payloads, reply.out_scalars,
                   reply.new_handles))
    cur = builder.cur
    callbacks, error = reply.callbacks, reply.error
    if type(callbacks) is not list:
        raise CodecError("reply cbs must be a list")
    if not callbacks and error is None:
        cur += _REPLY_TAIL
    else:
        cur += _CBS_KEY
        _enc_value(cur, callbacks)
        cur += _ERR_KEY
        if error is None:
            cur += b"N"
        elif type(error) is str:
            _enc_value(cur, error)
        else:
            raise CodecError("reply err must be a string or None")
        cur += _T_KEY
    cur += _F64.pack(reply.complete_time)
    if trace is not None:
        cur += trace


def _enc_batch_frame(tables: Dict[Tuple[str, str], Any],
                     vm_runs: Dict[str, bytes], batch: CommandBatch) -> Any:
    if (type(batch.vm_id) is not str or not batch.commands
            or type(batch.flush_time) is not float):
        raise CodecError("batch vm, cmds or t is malformed")
    builder = FrameBuilder()
    cur = builder.cur
    cur += _BATCH_PREFIX
    vm = batch.vm_id.encode("utf-8")
    cur += _U32.pack(len(vm))
    cur += vm
    cur += _CMDS_KEY
    cur += _U32.pack(len(batch.commands))
    for command in batch.commands:
        table = tables[(command.api, command.function)][0]
        plain = _plain_command(command, table, vm_runs)
        if plain is None:
            _enc_command_body(builder, command, table, vm_runs)
        else:
            cur = builder.cur
            cur += _CMD_PREFIXES[0]
            cur += _I64.pack(command.seq)
            cur += plain
    cur = builder.cur
    cur += _T_KEY
    cur += _F64.pack(batch.flush_time)
    return builder.finish(_codec._COMMAND_BATCH_MAGIC)


def _enc_reply_batch_frame(tables: Dict[Tuple[str, str], Any],
                           batch: ReplyBatch,
                           reply_to: CommandBatch) -> Any:
    if (len(batch.replies) != len(reply_to.commands)
            or type(batch.complete_time) is not float):
        raise CodecError("reply batch does not answer its command batch")
    builder = FrameBuilder()
    cur = builder.cur
    cur += _RB_PREFIX
    cur += _U32.pack(len(batch.replies))
    for reply, command in zip(batch.replies, reply_to.commands):
        if _plain_reply(reply):
            builder.cur += _PLAIN_REPLY.pack(
                _PLAIN_HEAD, reply.seq, _PLAIN_RET, reply.return_value,
                _PLAIN_TAIL, reply.complete_time)
        else:
            _enc_reply_body(
                builder, reply, tables[(command.api, command.function)][1])
    cur = builder.cur
    cur += _T_KEY
    cur += _F64.pack(batch.complete_time)
    return builder.finish(_codec._REPLY_BATCH_MAGIC)


def _check_missing(missing: Any) -> None:
    """A NeedBytes ``miss`` list: one or more ``[seq, param, digest]``."""
    if type(missing) is not list or not missing or not all(
            type(entry) in (list, tuple) and len(entry) == 3
            and type(entry[0]) is int and type(entry[1]) is str
            and isinstance(entry[2], BYTES_LIKE) for entry in missing):
        raise CodecError("need-bytes miss must be [seq, param, digest]s")


def _enc_need_bytes_frame(message: NeedBytes) -> bytes:
    if (type(message.seq) is not int
            or type(message.complete_time) is not float):
        raise CodecError("need-bytes seq or t has the wrong type")
    _check_missing(message.missing)
    builder = FrameBuilder()
    cur = builder.cur
    cur += _NB_PREFIX
    cur += _I64.pack(message.seq)
    cur += _MISS_KEY
    _enc_value(cur, message.missing)
    cur += _T_KEY
    cur += _F64.pack(message.complete_time)
    return builder.finish(_codec._NEED_BYTES_MAGIC)


# ---------------------------------------------------------------------------
# decode (all reads bounds-checked against the frame end)
# ---------------------------------------------------------------------------


def _expect(data: bytes, o: int, run: bytes) -> int:
    """Step over a static run of frame bytes, or refuse the frame."""
    if not data.startswith(run, o):
        raise CodecError(f"unexpected bytes at offset {o}")
    return o + len(run)


def _dec_str(data: bytes, o: int, end: int) -> Tuple[str, int]:
    length = _U32.unpack_from(data, o)[0]
    o += 4
    if length > end - o:
        raise CodecError("truncated string")
    return str(data[o:o + length], "utf-8"), o + length


def _dec_value(data: bytes, o: int, end: int, depth: int,
               ) -> Tuple[Any, int]:
    """One tagged value at ``o``: None, ints, floats, strings and flat
    int lists inline, anything else through the shared tagged-value
    reader (``depth`` is the value's nesting depth in the message)."""
    tag = data[o]
    if tag == _TAG_I:
        return _I64.unpack_from(data, o + 1)[0], o + 9
    if tag == _TAG_N:
        return None, o + 1
    if tag == _TAG_S:
        return _dec_str(data, o + 1, end)
    if tag == _TAG_D:
        return _F64.unpack_from(data, o + 1)[0], o + 9
    if tag == _TAG_L:
        count = _U32.unpack_from(data, o + 1)[0]
        at = o + 5
        if count * 9 <= end - at:
            items = []
            for _ in range(count):
                if data[at] != _TAG_I:
                    break
                items.append(_I64.unpack_from(data, at + 1)[0])
                at += 9
            else:
                return items, at
    # bools, nested or mixed lists, bytes, dicts
    return _codec._decode_value(data, o, depth)


def _dec_sections(data: bytes, o: int, end: int, table: Any,
                  results: Tuple[Dict[str, Any], ...], spliced: Any,
                  depth: int) -> int:
    """Decode a message's sections into ``results`` (one empty dict per
    section, the caller's), each any in-order subset of its declared
    entries; ``depth`` is their values' nesting depth.  Returns the
    offset past them.

    Where the remaining sections are all empty, one compare against
    the table's precomputed run steps over them.  Each declared key is
    one precomputed constant compare (no length unpack, no slice, no
    dict probe); absent ones are skipped.  If the walk consumed fewer
    entries than the section's count field says are there — keys out
    of spec order, a duplicate, an unknown key, a forged count — the
    frame is refused.  Payloads come back as zero-copy slices of
    ``data``, or, when ``spliced`` holds a segment for exactly where
    the ``B`` value's body starts and it is as long as the value
    declares, as that segment itself (:func:`_open_frame`).
    """
    for section, rest, result in zip(table.sections, table.empty_runs,
                                     results):
        if data.startswith(rest, o):
            return o + len(rest)
        if not data.startswith(section.key, o):
            raise CodecError(f"expected section {section.name!r}")
        o += len(section.key)
        count = _U32.unpack_from(data, o)[0]
        o += 4
        if not count:
            continue
        for key, want, name in section.entries:
            if not data.startswith(key, o):
                continue
            o += len(key)
            tag = data[o]
            if tag == _TAG_I and want != _TAG_B:  # dominant, inlined
                result[name] = _I64.unpack_from(data, o + 1)[0]
                o += 9
            elif tag == _TAG_B and want == _TAG_B:
                length = _U32.unpack_from(data, o + 1)[0]
                o += 5
                if spliced and o in spliced:
                    result[name] = spliced.pop(o)
                    if len(result[name]) != length:
                        raise CodecError(
                            f"{name!r}: segment length disagrees "
                            f"with its B value")
                elif length > end - o:
                    raise CodecError(f"{name!r}: truncated payload")
                else:
                    result[name] = memoryview(data)[o:o + length]
                    o += length
            elif want:
                raise CodecError(f"{section.name}: {name!r} has the "
                                 f"wrong wire type")
            else:
                result[name], o = _dec_value(data, o, end, depth)
        if len(result) != count:
            raise CodecError(f"{section.name}: {count} entries "
                             f"promised, {len(result)} in spec order")
    return o


def _dec_refs(data: bytes, o: int, table: CommandTable,
              literals: Tuple[Dict[str, Any], ...],
              ) -> Tuple[Dict[str, List[Any]], int]:
    """A command's ``xr`` section at ``o``: any in-order subset of
    ``table.refs``, none of them beside a literal payload in
    ``literals``."""
    o = _expect(data, o, _XR_KEY)
    count = _U32.unpack_from(data, o)[0]
    o += 4
    refs: Dict[str, List[Any]] = {}
    for head, tail, name, kind in table.refs:
        if not data.startswith(head, o):
            continue
        o += len(head)
        digest = data[o:o + _codec._DIGEST_BYTES]
        o += _codec._DIGEST_BYTES
        if data[o] != _TAG_I:
            raise CodecError(f"xr: {name!r} size must be an int")
        size = _I64.unpack_from(data, o + 1)[0]
        o += 9
        if size < 0 or not data.startswith(tail, o):
            raise CodecError(f"xr: malformed ref for {name!r}")
        o += len(tail)
        if any(name in literal for literal in literals):
            raise CodecError(f"xr: {name!r} carries a ref and a literal")
        refs[name] = [digest, size, kind]
    if len(refs) != count:
        raise CodecError(f"xr: {count} refs promised, {len(refs)} in "
                         f"spec order")
    return refs, o


def _dec_command(data: bytes, o: int, end: int,
                 heads: Dict[bytes, Any], spliced: Any,
                 depth: int) -> Tuple[Command, int]:
    """One command's wire dict, at ``o`` and nesting ``depth``; returns
    it and the offset past it.

    ``heads`` is keyed by the raw ``api``+``fn``+``mode`` wire region
    (each table's ``heads`` constants), so finding the function's table
    and the mode is one slice and one dict probe: no utf-8 decode, no
    tuple allocation, and anything but a known function in a known
    mode is refused by the probe.
    """
    extra = _CMD_EXTRA.get(data[o:o + _LP])
    if extra is None:
        raise CodecError("not a command dict in spec field order")
    seq = _I64.unpack_from(data, o + _LP)[0]
    o += _LP + 8
    if not data.startswith(_VM_KEY, o):
        raise CodecError("expected the command's vm")
    vm_id, o = _dec_str(data, o + _LVM, end)
    region = o
    # step by the three length fields; the probe vouches for the bytes
    o += _LAPI + 4 + _U32.unpack_from(data, o + _LAPI)[0]
    o += _LFN + 4 + _U32.unpack_from(data, o + _LFN)[0]
    o += _LMODE + 4 + _U32.unpack_from(data, o + _LMODE)[0]
    if o > end:
        raise CodecError("truncated api/fn/mode")
    table, mode = heads[data[region:o]]
    plain = table.plain
    # the last static run screens out a walked frame before the unpack
    if (not extra and end - o >= plain.size
            and data.startswith(table.plain_runs[-1], o + table.plain_tail_at)
            and (run := plain.unpack_from(data, o))[0::2]
            == table.plain_runs):
        scalars, handles, in_buffers, out_sizes = {}, {}, {}, {}
        for name, at in table.scalar_slots:
            scalars[name] = run[at]
        for name, at in table.handle_slots:
            handles[name] = run[at]
        issue_time = run[-1]
        o += plain.size
    else:
        scalars, handles, in_buffers, out_sizes = sections = {}, {}, {}, {}
        o = _dec_sections(data, o, end, table, sections, spliced, depth + 2)
        o = _expect(data, o, _T_KEY)
        issue_time = _F64.unpack_from(data, o)[0]
        o += 8
    trace_id = span_id = None
    refs: Dict[str, List[Any]] = {}
    if extra and data.startswith(_TR_KEY, o):
        trace_id, o = _dec_str(data, o + _LTR, end)
        if data[o] != _TAG_I:
            raise CodecError("tr must be [trace id, span id]")
        span_id = _I64.unpack_from(data, o + 1)[0]
        o += 9
        extra -= 1
    if extra == 1:
        refs, o = _dec_refs(data, o, table, (in_buffers, scalars))
    elif extra:
        raise CodecError("a command carries tr then xr, nothing else")
    # dataclass __init__ re-runs default factories; the fields are all
    # in hand, so build the instance dict directly
    command = Command.__new__(Command)
    command.__dict__ = {
        "seq": seq, "vm_id": vm_id, "api": table.api,
        "function": table.fn, "mode": mode, "scalars": scalars,
        "handles": handles, "in_buffers": in_buffers,
        "out_sizes": out_sizes, "cached_refs": refs,
        "issue_time": issue_time, "trace_id": trace_id,
        "span_id": span_id,
    }
    return command, o


def _new_plain_reply(seq: int, return_value: int,
                     complete_time: float) -> Reply:
    """The reply a plain run decodes to.  (Dataclass ``__init__``
    re-runs default factories; the fields are all in hand, so the
    instance dict is built directly.)"""
    reply = Reply.__new__(Reply)
    reply.__dict__ = {
        "seq": seq, "return_value": return_value, "out_payloads": {},
        "out_scalars": {}, "new_handles": {}, "callbacks": [],
        "error": None, "complete_time": complete_time, "span_id": None,
    }
    return reply


def _dec_reply(data: bytes, o: int, end: int, table: ReplyTable,
               spliced: Any, depth: int) -> Tuple[Reply, int]:
    """One reply's wire dict, at ``o`` and nesting ``depth``; returns it
    and the offset past it.  A plain reply is one unpack and three
    constant compares; any other walks."""
    if end - o >= _LPLAIN:
        head, seq, ret_run, ret, tail, complete_time = \
            _PLAIN_REPLY.unpack_from(data, o)
        if (head == _PLAIN_HEAD and ret_run == _PLAIN_RET
                and tail == _PLAIN_TAIL):
            return _new_plain_reply(seq, ret, complete_time), o + _LPLAIN
    traced = _REPLY_TRACED.get(data[o:o + _LRP])
    if traced is None:
        raise CodecError("not a reply dict in spec field order")
    o += _LRP
    seq = _I64.unpack_from(data, o)[0]
    return_value, o = _dec_value(
        data, _expect(data, o + 8, _RET_KEY), end, depth + 1)
    out_payloads, out_scalars, new_handles = sections = {}, {}, {}
    o = _dec_sections(data, o, end, table, sections, spliced, depth + 2)
    callbacks: List[Any] = []
    error = None
    if data.startswith(_REPLY_TAIL, o):
        o += len(_REPLY_TAIL)
    else:
        callbacks, o = _dec_value(
            data, _expect(data, o, _CBS_KEY), end, depth + 1)
        o = _expect(data, o, _ERR_KEY)
        if data[o] == _TAG_S:
            error, o = _dec_str(data, o + 1, end)
        elif data[o] == _TAG_N:
            o += 1
        else:
            raise CodecError("reply err must be a string or None")
        if type(callbacks) is not list:
            raise CodecError("reply cbs must be a list")
        o = _expect(data, o, _T_KEY)
    complete_time = _F64.unpack_from(data, o)[0]
    o += 8
    span_id = None
    if traced:
        o = _expect(data, o, _REPLY_TR_KEY)
        span_id = _I64.unpack_from(data, o)[0]
        o += 8
    # dataclass __init__ re-runs default factories; build directly
    reply = Reply.__new__(Reply)
    reply.__dict__ = {
        "seq": seq, "return_value": return_value,
        "out_payloads": out_payloads, "out_scalars": out_scalars,
        "new_handles": new_handles, "callbacks": callbacks, "error": error,
        "complete_time": complete_time, "span_id": span_id,
    }
    return reply, o


def _open_frame(frame: FrameLike) -> Tuple[bytes, int, Any]:
    """What the walkers read a frame through: ``(data, end, spliced)``.

    A contiguous frame is its own ``data``, ``end`` one past its body
    per its length field (the decoders read a ``bytes`` frame so
    inline).  A vectored frame is not joined: ``data`` is its inline
    runs (the even segments) back to back and ``spliced`` its payload
    segments, each under the offset in ``data`` where the ``B`` value it
    is the body of must start.  The walk is the joined frame's when
    every segment was claimed by such a value (the decoders check
    ``spliced`` is empty) and ``data`` was consumed to its end; any
    other vector is refused.
    """
    if type(frame) is WireFrame and len(frame.segments) > 1:
        segments = frame.segments
        runs = segments[0::2]
        data = b"".join(runs)
        spliced, at = {}, 0
        total = len(data)
        for run, payload in zip(runs, segments[1::2]):
            at += len(run)
            # a payload is handed on as it is: it must be flat bytes
            if type(payload) is not bytes and not (
                    type(payload) is memoryview and payload.format == "B"
                    and payload.ndim == 1 and payload.c_contiguous):
                raise CodecError("a payload segment is not flat bytes")
            total += len(payload)
            spliced[at] = payload
        # an odd count of segments (no two payloads back to back), runs
        # whose len() counts their bytes, the length field the vector's
        if (len(runs) != len(spliced) + 1 or at + len(runs[-1]) != len(data)
                or len(data) < 6
                or 6 + _U32.unpack_from(data, 2)[0] != total):
            raise CodecError("segments disagree with the frame length")
        return data, len(data), spliced
    data = frame_bytes(frame)
    if len(data) < 6:
        raise CodecError("frame too short")
    end = 6 + _U32.unpack_from(data, 2)[0]
    if end > len(data):
        raise CodecError("truncated frame body")
    return data, end, ()


def _dec_batch_frame(heads: Dict[bytes, Any], data: bytes, end: int,
                     spliced: Any) -> CommandBatch:
    vm_id, o = _dec_str(data, _expect(data, 6, _BATCH_PREFIX), end)
    o = _expect(data, o, _CMDS_KEY)
    count = _U32.unpack_from(data, o)[0]
    o += 4
    if count == 0 or count > end - o:
        raise CodecError(f"batch command count {count} is impossible")
    commands: List[Command] = []
    for _ in range(count):
        command, o = _dec_command(data, o, end, heads, spliced, 2)
        commands.append(command)
    o = _expect(data, o, _T_KEY)
    if o + 8 != end:
        raise CodecError("trailing bytes after the batch")
    flush_time = _F64.unpack_from(data, o)[0]
    return CommandBatch(vm_id=vm_id, commands=commands,
                        flush_time=flush_time)


def _dec_reply_batch_frame(tables: Dict[Tuple[str, str], Any],
                           data: bytes, end: int, spliced: Any,
                           reply_to: CommandBatch) -> ReplyBatch:
    o = _expect(data, 6, _RB_PREFIX)
    if _U32.unpack_from(data, o)[0] != len(reply_to.commands):
        raise CodecError("reply batch does not answer its command batch")
    o += 4
    replies: List[Reply] = []
    for command in reply_to.commands:
        reply, o = _dec_reply(
            data, o, end, tables[(command.api, command.function)][1],
            spliced, 2)
        replies.append(reply)
    o = _expect(data, o, _T_KEY)
    if o + 8 != end:
        raise CodecError("trailing bytes after the reply batch")
    return ReplyBatch(replies=replies,
                      complete_time=_F64.unpack_from(data, o)[0])


def _dec_need_bytes_frame(data: bytes, end: int) -> NeedBytes:
    o = _expect(data, 6, _NB_PREFIX)
    seq = _I64.unpack_from(data, o)[0]
    missing, o = _dec_value(data, _expect(data, o + 8, _MISS_KEY), end, 1)
    _check_missing(missing)
    o = _expect(data, o, _T_KEY)
    if o + 8 != end:
        raise CodecError("trailing bytes after need-bytes")
    return NeedBytes(seq=seq, missing=missing,
                     complete_time=_F64.unpack_from(data, o)[0])


# ---------------------------------------------------------------------------
# the codec
# ---------------------------------------------------------------------------


class SpecializedCodec(WireCodec):
    """The generated, table-driven codec: the one the runtime uses.

    Holds a registry of per-function marshaling tables merged from
    generated codec modules (:meth:`register_module`).  Every
    operation is one walk; a message or frame outside the conformance
    rule raises :class:`~repro.remoting.codec.CodecError`.
    """

    name = "specialized"
    zero_copy = True
    batch_aware = True

    def __init__(self, modules: Iterable[Any] = ()) -> None:
        #: (api, fn) → (CommandTable, ReplyTable)
        self.tables: Dict[Tuple[str, str], Any] = _Tables()
        #: raw api+fn+mode wire region → (CommandTable, mode): command
        #: decode resolves both without decoding the name strings
        self.heads: Dict[bytes, Any] = _Tables()
        #: each sender's ``vm`` run by VM id, as the encoder writes it (a
        #: guest puts its own id on every command); bounded
        self.vm_runs: Dict[str, bytes] = {}
        #: frames encoded and decoded, surfaced by benchmarks/tests
        self.fast_encodes = 0
        self.fast_decodes = 0
        for module in modules:
            self.register_module(module)

    def register_module(self, module: Any) -> None:
        """Merge one generated ``<api>_codec`` module's tables."""
        api = module.API_NAME
        reply_tables = module.REPLY_TABLES
        for fn, ctable in module.COMMAND_TABLES.items():
            self.tables[(api, fn)] = (ctable, reply_tables[fn])
            for mode, head in ctable.heads.items():
                self.heads[head] = (ctable, mode)

    # -- encode -----------------------------------------------------------

    def encode_command(self, command: Any) -> FrameLike:
        try:
            if type(command) is Command:
                table = self.tables[(command.api, command.function)][0]
                plain = _plain_command(command, table, self.vm_runs)
                if plain is not None:
                    frame = _CMD_FRAME.pack(
                        _codec._COMMAND_MAGIC, _LP + 8 + len(plain),
                        _CMD_PREFIXES[0], command.seq) + plain
                else:
                    builder = FrameBuilder()
                    _enc_command_body(builder, command, table, self.vm_runs)
                    frame = builder.finish(_codec._COMMAND_MAGIC)
            elif type(command) is CommandBatch:
                frame = _enc_batch_frame(self.tables, self.vm_runs, command)
            else:
                raise CodecError(f"cannot encode {type(command).__name__} "
                                 f"as a command frame")
        except _MALFORMED as err:
            raise CodecError(f"unencodable command: {err}") from err
        self.fast_encodes += 1
        return frame

    def encode_reply(self, reply: Any, reply_to: Any = None) -> FrameLike:
        try:
            if type(reply) is Reply:
                table = (self.tables[(reply_to.api, reply_to.function)][1]
                         if type(reply_to) is Command else _BARE_REPLY)
                if _plain_reply(reply):
                    frame = _PLAIN_FRAME.pack(
                        _PLAIN_FRAME_HEAD, reply.seq, _PLAIN_RET,
                        reply.return_value, _PLAIN_TAIL, reply.complete_time)
                else:
                    builder = FrameBuilder()
                    _enc_reply_body(builder, reply, table)
                    frame = builder.finish(_codec._REPLY_MAGIC)
            elif type(reply) is ReplyBatch and type(reply_to) is CommandBatch:
                frame = _enc_reply_batch_frame(self.tables, reply, reply_to)
            elif type(reply) is NeedBytes:
                frame = _enc_need_bytes_frame(reply)
            else:
                raise CodecError(f"cannot encode {type(reply).__name__} "
                                 f"as a reply frame to "
                                 f"{type(reply_to).__name__}")
        except _MALFORMED as err:
            raise CodecError(f"unencodable reply: {err}") from err
        self.fast_encodes += 1
        return frame

    # -- decode -----------------------------------------------------------

    def decode_command(self, data: FrameLike) -> Any:
        try:
            if type(data) is bytes:
                buf, spliced = data, ()
                end = 6 + _U32.unpack_from(buf, 2)[0]
                if end > len(buf):
                    raise CodecError("truncated frame body")
            else:
                buf, end, spliced = _open_frame(data)
            magic = buf[0:2]
            if magic == _codec._COMMAND_MAGIC:
                message, o = _dec_command(buf, 6, end, self.heads, spliced,
                                          0)
                if o != end:
                    raise CodecError("trailing bytes after the command")
            elif magic == _codec._COMMAND_BATCH_MAGIC:
                message = _dec_batch_frame(self.heads, buf, end, spliced)
            else:
                raise CodecError(f"not a command frame (magic {magic!r})")
            if spliced:
                raise CodecError("a payload segment no B value claims")
        except _MALFORMED as err:
            raise CodecError(f"malformed command frame: {err}") from err
        self.fast_decodes += 1
        return message

    def decode_reply(self, data: FrameLike, reply_to: Any = None) -> Any:
        try:
            if type(data) is bytes and len(data) == _LPLAIN_FRAME:
                head, seq, ret_run, ret, tail, complete_time = \
                    _PLAIN_FRAME.unpack_from(data)
                if (head == _PLAIN_FRAME_HEAD and ret_run == _PLAIN_RET
                        and tail == _PLAIN_TAIL
                        and (type(reply_to) is not Command
                             or (reply_to.api, reply_to.function)
                             in self.tables)):
                    self.fast_decodes += 1
                    return _new_plain_reply(seq, ret, complete_time)
            if type(data) is bytes:
                buf, spliced = data, ()
                end = 6 + _U32.unpack_from(buf, 2)[0]
                if end > len(buf):
                    raise CodecError("truncated frame body")
            else:
                buf, end, spliced = _open_frame(data)
            magic = buf[0:2]
            if magic == _codec._REPLY_MAGIC:
                message, o = _dec_reply(
                    buf, 6, end,
                    self.tables[(reply_to.api, reply_to.function)][1]
                    if type(reply_to) is Command else _BARE_REPLY,
                    spliced, 0)
                if o != end:
                    raise CodecError("trailing bytes after the reply")
            elif (magic == _codec._REPLY_BATCH_MAGIC
                  and type(reply_to) is CommandBatch):
                message = _dec_reply_batch_frame(self.tables, buf, end,
                                                 spliced, reply_to)
            elif magic == _codec._NEED_BYTES_MAGIC:
                message = _dec_need_bytes_frame(buf, end)
            else:
                raise CodecError(f"not a reply frame to "
                                 f"{type(reply_to).__name__} "
                                 f"(magic {magic!r})")
            if spliced:
                raise CodecError("a payload segment no B value claims")
        except _MALFORMED as err:
            raise CodecError(f"malformed reply frame: {err}") from err
        self.fast_decodes += 1
        return message

    def decode_message(self, data: FrameLike, reply_to: Any = None) -> Any:
        if type(data) is WireFrame and len(data.segments) > 1:
            magic = bytes(data.segments[0][0:2])
        else:
            data = frame_bytes(data)
            magic = data[0:2]
        if magic in (_codec._COMMAND_MAGIC, _codec._COMMAND_BATCH_MAGIC):
            return self.decode_command(data)
        return self.decode_reply(data, reply_to=reply_to)

    def snapshot(self) -> Dict[str, int]:
        return {
            "fast_encodes": self.fast_encodes,
            "fast_decodes": self.fast_decodes,
            "functions": len(self.tables),
        }
