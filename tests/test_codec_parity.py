"""Byte-identity fuzz: specialized codec vs interpreted codec.

The marshaling fast path's contract is *frame-for-frame wire
equality*: for every message the :class:`SpecializedCodec` encodes —
on the generated tables or through its fallback — the emitted bytes
equal the interpreted encoder's exactly, and every frame decodes to
the same message under both codecs.  This suite drives that contract
with Hypothesis over the real generated layouts of the four shipped
APIs (opencl, mvnc, qat, tpu), then replays the trust-boundary
hardening checks (systematic truncation, single-byte corruption)
against both codecs in lockstep: a malformation must produce the
*same* outcome — :class:`CodecError` or an identical message — from
each.

The fast path has one fallback rule: a section that carries an
*in-order subset* of its declared parameters rides the generated
tables, anything else re-runs the interpreted codec.
``TestInOrderSubsets`` pins the first half for every function,
``TestFallbackRule`` the second.  The optional trailing fields — trace
context and the transfer cache's refs — ride the tables too:
``TestRefsAndTrace`` fuzzes them fast and identical, and
``TestRefHostility`` holds every malformed one to the interpreted
decode's outcome.

Frames with payloads of 512 B and up are vectored
(:class:`~repro.remoting.wire.WireFrame`), and the specialized decoder
walks them without joining: ``TestVectoredDecode`` holds that walk to
the decode of the joined bytes, field for field and with no fallback,
``TestVectoredHostility`` holds every malformed vector to what the
interpreted codec makes of its joined bytes.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.remoting.codec import (
    CodecError,
    Command,
    CommandBatch,
    NeedBytes,
    Reply,
    ReplyBatch,
)
from repro.remoting.speccodec import _SPLICE_THRESHOLD, SpecializedCodec
from repro.remoting.wire import InterpretedCodec, WireFrame, frame_bytes
from repro.stack import build_stack

APIS = ("opencl", "mvnc", "qat", "tpu")

LAYOUTS = {api: build_stack(api).codec_module.LAYOUT for api in APIS}
FUNCTIONS = sorted(
    (api, fn) for api in APIS for fn in LAYOUTS[api]
)

INTERP = InterpretedCodec()


def _specialized() -> SpecializedCodec:
    codec = SpecializedCodec()
    for api in APIS:
        codec.register_module(build_stack(api).codec_module)
    return codec


SPEC = _specialized()


# ---------------------------------------------------------------------------
# strategies: messages drawn from the real generated layouts
# ---------------------------------------------------------------------------

def _scalar_value(kind: str) -> st.SearchStrategy:
    if kind == "int":
        return st.integers(-(2 ** 63), 2 ** 63 - 1)
    if kind == "float":
        return st.floats(allow_nan=False)
    if kind == "str":
        return st.text(max_size=24)
    if kind == "ints":
        return st.lists(st.integers(-(2 ** 31), 2 ** 31 - 1), max_size=4)
    if kind == "num":
        return st.one_of(st.integers(-(2 ** 53), 2  ** 53),
                         st.floats(allow_nan=False))
    raise AssertionError(kind)


def _subset(draw, values, in_order: bool):
    """A dict holding a random subset of ``values`` (name → strategy).

    ``in_order`` keeps the declared order, as the generated stubs do;
    otherwise Hypothesis picks an arbitrary key order.
    """
    if not in_order:
        return draw(st.fixed_dictionaries({}, optional=values))
    return {name: draw(strategy) for name, strategy in values.items()
            if draw(st.booleans())}


@st.composite
def layout_commands(draw, function=None, conformant=False) -> Command:
    """A Command for a real function, usually layout-conformant.

    ``None`` values, omitted parameters, arbitrary key order and
    occasional trace context are mixed in deliberately: some draws
    ride the fast path, some fall back, and byte identity must hold
    either way.  ``conformant`` draws only what the fast path is built
    for: in-order subsets, no trace context.
    """
    api, fn = function or draw(st.sampled_from(FUNCTIONS))
    lay = LAYOUTS[api][fn]
    scalars = _subset(draw, {
        name: st.one_of(_scalar_value(kind), st.none())
        for name, kind in lay["scalars"].items()
    }, conformant)
    handles = _subset(draw, {
        name: st.one_of(_scalar_value(kind), st.none())
        for name, kind in lay["handles"].items()
    }, conformant)
    in_buffers = _subset(draw, {
        # sizes straddle the vectored-send splice threshold (512)
        name: st.binary(max_size=600) for name in lay["inbufs"]
    }, conformant)
    out_sizes = _subset(draw, {
        name: st.integers(0, 1 << 20) for name in lay["outsz"]
    }, conformant)
    return Command(
        seq=draw(st.integers(0, 2 ** 31)),
        vm_id=draw(st.sampled_from(("vm-0", "vm-fuzz", ""))),
        api=api,
        function=fn,
        mode=draw(st.sampled_from(("sync", "async"))),
        scalars=scalars,
        handles=handles,
        in_buffers=in_buffers,
        out_sizes=out_sizes,
        issue_time=draw(st.floats(0, 1e6)),
        trace_id=(None if conformant
                  else draw(st.one_of(st.none(), st.just("tr-1")))),
    )


@st.composite
def layout_replies(draw, function=None, conformant=False):
    """A (Reply, reply_to Command) pair for a real function.

    ``conformant`` as for :func:`layout_commands`: in-order subsets,
    no callbacks, no error.
    """
    api, fn = function or draw(st.sampled_from(FUNCTIONS))
    lay = LAYOUTS[api][fn]
    if lay["ret"] == "scalar":
        ret = draw(st.one_of(st.none(), st.integers(-(2 ** 31), 2 ** 31),
                             st.floats(allow_nan=False)))
    else:
        ret = None
    # the server stub binds a returned handle before any out-param
    new_names = ["__ret__"] if lay["ret"] == "handle" else []
    new_names.extend(lay["new"])
    reply = Reply(
        seq=draw(st.integers(0, 2 ** 31)),
        return_value=ret,
        out_payloads=_subset(draw, {
            name: st.binary(max_size=600) for name in lay["outs"]
        }, conformant),
        out_scalars=_subset(draw, {
            name: st.one_of(st.none(), st.integers(-(2 ** 31), 2 ** 31),
                            st.floats(allow_nan=False), st.text(max_size=8))
            for name in lay["oscal"]
        }, conformant),
        new_handles=_subset(draw, {
            name: st.one_of(
                st.integers(0, 2 ** 48),
                st.lists(st.integers(0, 2 ** 48), max_size=3),
            )
            for name in new_names
        }, conformant),
        callbacks=([] if conformant
                   else draw(st.sampled_from(([], [[1, [2, 3]]])))),
        error=(None if conformant
               else draw(st.one_of(st.none(), st.just("boom")))),
        complete_time=draw(st.floats(0, 1e6)),
    )
    return reply, Command(seq=reply.seq, vm_id="vm-0", api=api, function=fn)


# ---------------------------------------------------------------------------
# byte identity, fuzz-verified
# ---------------------------------------------------------------------------

class TestByteIdentity:

    @settings(max_examples=120, deadline=None)
    @given(layout_commands())
    def test_command_frames_identical(self, command):
        fast = frame_bytes(SPEC.encode_command(command))
        slow = frame_bytes(INTERP.encode_command(command))
        assert fast == slow
        assert SPEC.decode_command(fast) == INTERP.decode_command(slow)

    @settings(max_examples=120, deadline=None)
    @given(layout_replies())
    def test_reply_frames_identical(self, pair):
        reply, command = pair
        fast = frame_bytes(SPEC.encode_reply(reply, reply_to=command))
        slow = frame_bytes(INTERP.encode_reply(reply, reply_to=command))
        assert fast == slow
        assert (SPEC.decode_reply(fast, reply_to=command)
                == INTERP.decode_reply(slow, reply_to=command))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(layout_commands(), min_size=1, max_size=3),
           st.floats(0, 1e6))
    def test_batch_frames_identical(self, commands, flush_time):
        # (an empty batch is unencodable by contract: both decoders
        # reject "batch carries no commands")
        batch = CommandBatch(vm_id="vm-0", commands=commands,
                             flush_time=flush_time)
        fast = frame_bytes(SPEC.encode_command(batch))
        slow = frame_bytes(INTERP.encode_command(batch))
        assert fast == slow
        assert SPEC.decode_command(fast) == INTERP.decode_command(slow)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(layout_replies(), min_size=0, max_size=3),
           st.floats(0, 1e6))
    def test_reply_batch_frames_identical(self, pairs, complete_time):
        replies = [reply for reply, _ in pairs]
        reply_to = CommandBatch(
            vm_id="vm-0", commands=[cmd for _, cmd in pairs])
        batch = ReplyBatch(replies=replies, complete_time=complete_time)
        fast = frame_bytes(SPEC.encode_reply(batch, reply_to=reply_to))
        slow = frame_bytes(INTERP.encode_reply(batch, reply_to=reply_to))
        assert fast == slow
        assert (SPEC.decode_reply(fast, reply_to=reply_to)
                == INTERP.decode_reply(slow, reply_to=reply_to))

    def test_need_bytes_identical(self):
        message = NeedBytes(seq=7, missing=[[7, "src", b"\x01" * 16]],
                            complete_time=0.5)
        fast = frame_bytes(SPEC.encode_reply(message))
        slow = frame_bytes(INTERP.encode_reply(message))
        assert fast == slow
        assert SPEC.decode_reply(fast) == INTERP.decode_reply(slow)


# ---------------------------------------------------------------------------
# the fast path actually runs (identity alone could be all-fallback)
# ---------------------------------------------------------------------------

class TestFastPathEngaged:

    def _conformant(self):
        return Command(
            seq=11, vm_id="vm-0", api="mvnc",
            function="mvncAllocateGraph", mode="sync",
            scalars={"graph_file_length": 4096},
            handles={"device_handle": 3},
            in_buffers={"graph_file": bytes(range(256)) * 16},
            out_sizes={"graph_handle": 8},
            issue_time=2.5,
        )

    def test_conformant_command_is_fast(self):
        codec = _specialized()
        wire = codec.encode_command(self._conformant())
        decoded = codec.decode_command(wire)
        snap = codec.snapshot()
        assert snap["fast_encodes"] == 1
        assert snap["fast_decodes"] == 1
        assert snap["fallback_encodes"] == 0
        assert snap["fallback_decodes"] == 0
        assert decoded == self._conformant()

    def test_conformant_reply_is_fast(self):
        codec = _specialized()
        reply = Reply(seq=11, return_value=0,
                      new_handles={"graph_handle": 9}, complete_time=3.0)
        wire = codec.encode_reply(reply, reply_to=self._conformant())
        decoded = codec.decode_reply(wire, reply_to=self._conformant())
        snap = codec.snapshot()
        assert snap["fast_encodes"] == 1
        assert snap["fast_decodes"] == 1
        assert snap["fallback_encodes"] == 0
        assert decoded == reply

    def test_deviating_command_falls_back_identically(self):
        codec = _specialized()
        command = self._conformant()
        # a nested list is no int scalar: the interpreter's to encode
        command.scalars = {"graph_file_length": [[4096]]}
        wire = frame_bytes(codec.encode_command(command))
        assert wire == frame_bytes(INTERP.encode_command(command))
        assert codec.snapshot()["fallback_encodes"] == 1
        assert codec.decode_command(wire) == command

    def test_ref_carrying_command_is_fast(self):
        codec = _specialized()
        command = self._conformant()
        command.cached_refs = {"graph_file": [b"\x02" * 16, 4096, "buf"]}
        command.in_buffers = {}
        command.trace_id, command.span_id = "trace-1", 77
        wire = frame_bytes(codec.encode_command(command))
        assert wire == frame_bytes(INTERP.encode_command(command))
        assert codec.decode_command(wire) == command
        _assert_all_fast(codec, 2)

    def test_large_payload_is_spliced_zero_copy(self):
        codec = _specialized()
        command = self._conformant()
        frame = codec.encode_command(command)
        # the 4 KiB graph_file payload rides the frame as a view over
        # the caller's bytes, not a copy into the header allocation
        payload = command.in_buffers["graph_file"]
        segments = getattr(frame, "segments", None)
        assert segments is not None
        assert any(
            seg is payload
            or (isinstance(seg, memoryview) and seg.obj is payload)
            for seg in segments
        )


# ---------------------------------------------------------------------------
# the one fallback rule: in-order subset → fast path, anything else →
# interpreted
# ---------------------------------------------------------------------------

def _assert_all_fast(codec, ops):
    snap = codec.snapshot()
    assert snap["fallback_encodes"] == snap["fallback_decodes"] == 0
    assert snap["fast_encodes"] + snap["fast_decodes"] == ops


@pytest.mark.parametrize("function", FUNCTIONS, ids="-".join)
class TestInOrderSubsets:
    """Every function, any in-order subset of every section: the
    traffic the generated stubs produce (parameter order, NULLs
    omitted) never leaves the fast path."""

    @settings(max_examples=12, deadline=None)
    @given(st.data())
    def test_command_subsets_stay_fast(self, function, data):
        command = data.draw(layout_commands(function, conformant=True))
        codec = _specialized()
        fast = frame_bytes(codec.encode_command(command))
        assert fast == frame_bytes(INTERP.encode_command(command))
        assert codec.decode_command(fast) == INTERP.decode_command(fast)
        _assert_all_fast(codec, 2)

    @settings(max_examples=12, deadline=None)
    @given(st.data())
    def test_reply_subsets_stay_fast(self, function, data):
        reply, command = data.draw(
            layout_replies(function, conformant=True))
        codec = _specialized()
        fast = frame_bytes(codec.encode_reply(reply, reply_to=command))
        assert fast == frame_bytes(
            INTERP.encode_reply(reply, reply_to=command))
        assert (codec.decode_reply(fast, reply_to=command)
                == INTERP.decode_reply(fast, reply_to=command))
        _assert_all_fast(codec, 2)


# ---------------------------------------------------------------------------
# vectored frames: decoded without joining, equal to the joined decode
# ---------------------------------------------------------------------------

PAYLOAD_FUNCTIONS = [
    (api, fn) for api, fn in FUNCTIONS
    if LAYOUTS[api][fn]["inbufs"] or LAYOUTS[api][fn]["outs"]
]


@st.composite
def payloads(draw):
    """A payload on either side of the splice threshold, in any of the
    shapes a stub hands over."""
    size = draw(st.sampled_from(
        (0, 1, _SPLICE_THRESHOLD - 1, _SPLICE_THRESHOLD,
         _SPLICE_THRESHOLD + 1, 4096)))
    data = draw(st.binary(min_size=size, max_size=size))
    shape = draw(st.sampled_from((bytes, bytearray, memoryview)))
    return shape(data)


@st.composite
def payload_commands(draw) -> Command:
    api, fn = draw(st.sampled_from(PAYLOAD_FUNCTIONS))
    lay = LAYOUTS[api][fn]
    return Command(
        seq=draw(st.integers(0, 2 ** 31)), vm_id="vm-0", api=api,
        function=fn, mode=draw(st.sampled_from(("sync", "async"))),
        scalars={name: 7 for name, kind in lay["scalars"].items()
                 if kind in ("int", "num")},
        in_buffers={name: draw(payloads()) for name in lay["inbufs"]},
        out_sizes={name: 64 for name in lay["outsz"]},
        issue_time=draw(st.floats(0, 1e6)),
    )


@st.composite
def payload_replies(draw):
    api, fn = draw(st.sampled_from(PAYLOAD_FUNCTIONS))
    lay = LAYOUTS[api][fn]
    reply = Reply(
        seq=draw(st.integers(0, 2 ** 31)),
        return_value=0 if lay["ret"] == "scalar" else None,
        out_payloads={name: draw(payloads()) for name in lay["outs"]},
        complete_time=draw(st.floats(0, 1e6)),
    )
    return reply, Command(seq=reply.seq, vm_id="vm-0", api=api, function=fn)


def _payloads_of(message):
    if isinstance(message, (CommandBatch, ReplyBatch)):
        inner = getattr(message, "commands", None) or message.replies
        return [chunk for each in inner for chunk in _payloads_of(each)]
    chunks = (message.in_buffers if isinstance(message, Command)
              else message.out_payloads)
    return list(chunks.values())


def _assert_walked_by_reference(codec, frame, decoded, joined_decode, sent):
    """The vectored walk equals the joined decode, never fell back,
    and took every spliced payload as the segment it is."""
    assert decoded == joined_decode
    for got, want in zip(_payloads_of(decoded), _payloads_of(joined_decode)):
        assert bytes(got) == bytes(want)
    snap = codec.snapshot()
    assert snap["fallback_encodes"] == snap["fallback_decodes"] == 0
    spliced = [chunk for chunk in _payloads_of(sent)
               if len(chunk) >= _SPLICE_THRESHOLD]
    assert isinstance(frame, WireFrame) == bool(spliced)
    if spliced:
        assert len(frame.segments) == 2 * len(spliced) + 1
        by_reference = [chunk for chunk in _payloads_of(decoded)
                        if len(chunk) >= _SPLICE_THRESHOLD]
        for chunk, segment in zip(by_reference, frame.segments[1::2]):
            assert chunk is segment


class TestVectoredDecode:

    @settings(max_examples=120, deadline=None)
    @given(payload_commands())
    def test_command_walk_equals_joined_decode(self, command):
        codec = _specialized()
        frame = codec.encode_command(command)
        assert bytes(frame) == INTERP.encode_command(command)
        _assert_walked_by_reference(
            codec, frame, codec.decode_command(frame),
            codec.decode_command(bytes(frame)), command)

    @settings(max_examples=120, deadline=None)
    @given(payload_replies())
    def test_reply_walk_equals_joined_decode(self, pair):
        reply, command = pair
        codec = _specialized()
        frame = codec.encode_reply(reply, reply_to=command)
        assert bytes(frame) == INTERP.encode_reply(reply, reply_to=command)
        _assert_walked_by_reference(
            codec, frame, codec.decode_reply(frame, reply_to=command),
            codec.decode_reply(bytes(frame), reply_to=command), reply)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(payload_commands(), min_size=1, max_size=4),
           st.floats(0, 1e6))
    def test_batch_walk_equals_joined_decode(self, commands, flush_time):
        batch = CommandBatch(vm_id="vm-0", commands=commands,
                             flush_time=flush_time)
        codec = _specialized()
        frame = codec.encode_command(batch)
        assert bytes(frame) == INTERP.encode_command(batch)
        _assert_walked_by_reference(
            codec, frame, codec.decode_command(frame),
            codec.decode_command(bytes(frame)), batch)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(payload_replies(), min_size=1, max_size=4),
           st.floats(0, 1e6))
    def test_reply_batch_walk_equals_joined_decode(self, pairs,
                                                   complete_time):
        batch = ReplyBatch(replies=[reply for reply, _ in pairs],
                           complete_time=complete_time)
        reply_to = CommandBatch(vm_id="vm-0",
                                commands=[cmd for _, cmd in pairs])
        codec = _specialized()
        frame = codec.encode_reply(batch, reply_to=reply_to)
        assert bytes(frame) == INTERP.encode_reply(batch, reply_to=reply_to)
        _assert_walked_by_reference(
            codec, frame, codec.decode_reply(frame, reply_to=reply_to),
            codec.decode_reply(bytes(frame), reply_to=reply_to), batch)


def _outcome(decode, *args, **kwargs):
    try:
        return decode(*args, **kwargs)
    except CodecError:
        return CodecError


class TestVectoredHostility:
    """A vector the walk cannot vouch for is decoded from its joined
    bytes: same value or same :class:`CodecError` as the interpreted
    codec gives."""

    def _write_batch(self, *sizes):
        return CommandBatch(vm_id="vm-0", flush_time=2.0, commands=[
            _opencl("clEnqueueWriteBuffer", mode="async",
                    scalars={"blocking_write": 0, "offset": 0,
                             "size": size, "num_events_in_wait_list": 0},
                    handles={"command_queue": 3, "buf": 4},
                    in_buffers={"ptr": bytes([index + 1]) * size})
            for index, size in enumerate(sizes)])

    def _malformations(self, segments):
        """Every single-segment resize, and every reordering."""
        import itertools

        for index, segment in enumerate(segments):
            for mutated in (segment[:-1], segment[1:], segment[:-7],
                            bytes(segment) + b"\0", b""):
                yield (segments[:index] + [mutated] + segments[index + 1:])
        for order in itertools.permutations(range(len(segments))):
            yield [segments[i] for i in order]
        yield segments[:-1]
        yield segments + [b"tail"]

    def _check_command(self, segments):
        codec = _specialized()
        fast = _outcome(codec.decode_command, WireFrame(segments))
        slow = _outcome(INTERP.decode_command, b"".join(segments))
        assert fast == slow
        return fast, codec

    def test_resized_truncated_and_reordered_command_segments(self):
        batch = self._write_batch(600, 1024)
        frame = SPEC.encode_command(batch)
        assert len(frame.segments) == 5
        results = [self._check_command(list(segments))[0]
                   for segments in self._malformations(frame.segments)]
        # the identity reordering is in there and decodes; damage does not
        assert any(result == batch for result in results)
        assert any(result is CodecError for result in results)

    def test_equal_length_payloads_swapped_is_a_valid_other_frame(self):
        batch = self._write_batch(1024, 1024)
        s = SPEC.encode_command(batch).segments
        swapped, codec = self._check_command([s[0], s[3], s[2], s[1], s[4]])
        assert swapped.commands[0].in_buffers["ptr"] == bytes([2]) * 1024
        assert codec.snapshot()["fallback_decodes"] == 0

    def test_declared_length_disagreeing_with_its_segment_falls_back(self):
        batch = self._write_batch(600)
        first, payload, tail = SPEC.encode_command(batch).segments
        for delta in (-1, 1):
            # resize the payload *and* the frame length field, so only
            # the B value's own length disagrees with its segment
            resized = (payload[:delta] if delta < 0
                       else bytes(payload) + b"\0")
            head = _patch_u32(bytes(first), 2, delta)
            fast, codec = self._check_command([head, resized, tail])
            assert fast is CodecError
            assert codec.snapshot()["fallback_decodes"] == 1

    def test_malformed_reply_vectors(self):
        command = MEASURED_SHAPES["read-without-event"]
        reply = Reply(seq=21, return_value=0,
                      out_payloads={"ptr": bytes(range(256)) * 16},
                      complete_time=5.0)
        frame = SPEC.encode_reply(reply, reply_to=command)
        assert len(frame.segments) == 3
        decoded = []
        for segments in self._malformations(frame.segments):
            codec = _specialized()
            fast = _outcome(codec.decode_reply, WireFrame(segments),
                            reply_to=command)
            slow = _outcome(INTERP.decode_reply, b"".join(segments))
            assert fast == slow
            decoded.append(fast)
        assert any(result == reply for result in decoded)
        assert any(result is CodecError for result in decoded)


def _opencl(fn, mode="sync", **sections) -> Command:
    return Command(seq=21, vm_id="vm-0", api="opencl", function=fn,
                   mode=mode, issue_time=4.5, **sections)


def _ndrange(**scalars) -> Command:
    return _opencl(
        "clEnqueueNDRangeKernel", mode="async",
        scalars=scalars,
        handles={"command_queue": 3, "kernel": 9,
                 "event_wait_list": None})


#: the subset shapes the observatory measured on real workloads: a
#: third of ``chatty`` commands and two fifths of ``bulk``
MEASURED_SHAPES = {
    # NULL global_work_offset and local_work_size
    "ndrange-null-offset-local": _ndrange(
        work_dim=1, global_work_size=[64], num_events_in_wait_list=0),
    # blocking transfers with a NULL event out-param
    "write-without-event": _opencl(
        "clEnqueueWriteBuffer",
        scalars={"blocking_write": 1, "offset": 0, "size": 4096,
                 "num_events_in_wait_list": 0},
        handles={"command_queue": 3, "buf": 4, "event_wait_list": None},
        in_buffers={"ptr": bytes(4096)}),
    "read-without-event": _opencl(
        "clEnqueueReadBuffer",
        scalars={"blocking_read": 1, "offset": 0, "size": 4096,
                 "num_events_in_wait_list": 0},
        handles={"command_queue": 3, "buf": 4, "event_wait_list": None},
        out_sizes={"ptr": 4096}),
}


def _both_decode_command(data, codec=SPEC):
    try:
        fast = codec.decode_command(data)
    except CodecError:
        fast = CodecError
    try:
        slow = INTERP.decode_command(data)
    except CodecError:
        slow = CodecError
    return fast, slow


def _patch_u32(wire: bytes, offset: int, delta: int) -> bytes:
    value = int.from_bytes(wire[offset:offset + 4], "big") + delta
    return wire[:offset] + value.to_bytes(4, "big") + wire[offset + 4:]


class TestFallbackRule:

    @pytest.mark.parametrize("shape", sorted(MEASURED_SHAPES))
    def test_measured_subset_shapes_are_fast(self, shape):
        command = MEASURED_SHAPES[shape]
        codec = _specialized()
        wire = frame_bytes(codec.encode_command(command))
        assert wire == frame_bytes(INTERP.encode_command(command))
        assert codec.decode_command(wire) == command
        _assert_all_fast(codec, 2)

    def _falls_back_to_interpreted(self, command):
        codec = _specialized()
        wire = frame_bytes(codec.encode_command(command))
        assert wire == frame_bytes(INTERP.encode_command(command))
        assert codec.decode_command(wire) == INTERP.decode_command(wire)
        snap = codec.snapshot()
        assert snap["fallback_encodes"] == snap["fallback_decodes"] == 1
        assert snap["fast_encodes"] == snap["fast_decodes"] == 0

    def test_out_of_order_keys_fall_back(self):
        self._falls_back_to_interpreted(_ndrange(
            global_work_size=[64], work_dim=1, num_events_in_wait_list=0))

    def test_unknown_key_falls_back(self):
        self._falls_back_to_interpreted(_ndrange(work_dim=1, bogus=7))

    def _scalars_count_offset(self, wire: bytes) -> int:
        return wire.index(b"scalars") + len(b"scalarsM")

    def test_duplicated_key_falls_back(self):
        wire = frame_bytes(INTERP.encode_command(_ndrange(work_dim=1)))
        entry = b"\x00\x00\x00\x08work_dimI" + (1).to_bytes(8, "big")
        at = wire.index(entry)
        twice = wire[:at] + entry[:-1] + b"\x02" + wire[at:]
        twice = _patch_u32(twice, self._scalars_count_offset(twice), 1)
        twice = _patch_u32(twice, 2, len(entry))
        codec = _specialized()
        fast, slow = _both_decode_command(twice, codec)
        # the interpreter's dict keeps the last duplicate
        assert slow.scalars == {"work_dim": 1}
        assert fast == slow
        assert codec.snapshot()["fallback_decodes"] == 1

    def test_count_beyond_entries_present_falls_back(self):
        wire = frame_bytes(INTERP.encode_command(_ndrange(work_dim=1)))
        forged = _patch_u32(wire, self._scalars_count_offset(wire), 1)
        codec = _specialized()
        fast, slow = _both_decode_command(forged, codec)
        assert fast is CodecError
        assert slow is CodecError
        assert codec.snapshot()["fallback_decodes"] == 1


# ---------------------------------------------------------------------------
# the optional trailing fields: trace context (tr) and cached refs (xr)
# ---------------------------------------------------------------------------

def _ref_eligible(lay):
    """What a cached ref may stand in for, in the guest's elision
    order: in-buffers (kind buf), then string scalars (kind str)."""
    return ([(name, "buf") for name in lay["inbufs"]]
            + [(name, "str") for name, kind in lay["scalars"].items()
               if kind == "str"])


REF_FUNCTIONS = [(api, fn) for api, fn in FUNCTIONS
                 if _ref_eligible(LAYOUTS[api][fn])]

trace_contexts = st.tuples(st.text(max_size=12),
                           st.integers(0, 2 ** 63 - 1))


@st.composite
def ref_commands(draw, traced=None) -> Command:
    """A conformant command with cached refs and/or trace context, as a
    cache-armed, traced guest sends it: each ref replaces the literal
    it stands in for, in elision order."""
    api, fn = draw(st.sampled_from(REF_FUNCTIONS))
    command = draw(layout_commands((api, fn), conformant=True))
    refs = {}
    for name, kind in _ref_eligible(LAYOUTS[api][fn]):
        if draw(st.booleans()):
            # (an any-value parameter is declared in both sections)
            command.in_buffers.pop(name, None)
            command.scalars.pop(name, None)
            refs[name] = [draw(st.binary(min_size=16, max_size=16)),
                          draw(st.integers(0, 2 ** 40)), kind]
    command.cached_refs = refs
    if traced if traced is not None else draw(st.booleans()):
        command.trace_id, command.span_id = draw(trace_contexts)
    return command


class TestRefsAndTrace:
    """Ref-carrying and traced frames equal the interpreter's bytes and
    decode in one walk: no fallback in either direction."""

    @settings(max_examples=150, deadline=None)
    @given(ref_commands())
    def test_command_frames_identical_and_fast(self, command):
        codec = _specialized()
        fast = frame_bytes(codec.encode_command(command))
        assert fast == frame_bytes(INTERP.encode_command(command))
        assert codec.decode_command(fast) == INTERP.decode_command(fast)
        _assert_all_fast(codec, 2)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(ref_commands(),
                              layout_commands(conformant=True)),
                    min_size=1, max_size=4),
           st.floats(0, 1e6))
    def test_batch_frames_identical_and_fast(self, commands, flush_time):
        batch = CommandBatch(vm_id="vm-0", commands=commands,
                             flush_time=flush_time)
        codec = _specialized()
        frame = codec.encode_command(batch)
        assert bytes(frame) == INTERP.encode_command(batch)
        decoded = codec.decode_command(frame)
        assert decoded == INTERP.decode_command(bytes(frame))
        _assert_all_fast(codec, 2)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_traced_replies_identical_and_fast(self, data):
        reply, command = data.draw(layout_replies(conformant=True))
        reply.span_id = data.draw(st.integers(0, 2 ** 63 - 1))
        reply_to = CommandBatch(vm_id="vm-0", commands=[command])
        batch = ReplyBatch(replies=[reply], complete_time=1.0)
        codec = _specialized()
        for message, to in ((reply, command), (batch, reply_to)):
            fast = frame_bytes(codec.encode_reply(message, reply_to=to))
            assert fast == frame_bytes(INTERP.encode_reply(message,
                                                           reply_to=to))
            assert (codec.decode_reply(fast, reply_to=to)
                    == INTERP.decode_reply(fast, reply_to=to))
        _assert_all_fast(codec, 4)

    @pytest.mark.parametrize("deviation", [
        {"cached_refs": {"ptr": [b"\x01" * 15, 64, "buf"]}},
        {"cached_refs": {"ptr": [b"\x01" * 16, -1, "buf"]}},
        {"cached_refs": {"ptr": [b"\x01" * 16, True, "buf"]}},
        {"cached_refs": {"ptr": [b"\x01" * 16, 64, "str"]}},
        {"cached_refs": {"bogus": [b"\x01" * 16, 64, "buf"]}},
        {"cached_refs": {"ptr": [b"\x01" * 16, 64, "buf"]},
         "in_buffers": {"ptr": b"x"}},
        {"trace_id": "t", "span_id": None},
        {"trace_id": None, "span_id": 3},
        {"trace_id": "t", "span_id": True},
    ], ids=lambda deviation: repr(deviation)[:48])
    def test_deviating_refs_and_trace_fall_back(self, deviation):
        command = _opencl(
            "clEnqueueWriteBuffer", mode="async",
            scalars={"blocking_write": 0, "offset": 0, "size": 64,
                     "num_events_in_wait_list": 0},
            handles={"command_queue": 3, "buf": 4})
        for name, value in deviation.items():
            setattr(command, name, value)
        codec = _specialized()
        wire = frame_bytes(codec.encode_command(command))
        assert wire == frame_bytes(INTERP.encode_command(command))
        assert codec.snapshot()["fallback_encodes"] == 1
        fast, slow = _both_decode_command(wire, codec)
        assert fast == slow
        assert codec.snapshot()["fast_decodes"] == 0


def _ref_frame(**overrides) -> bytes:
    """An interpreted ``clEnqueueWriteBuffer`` frame carrying one ref
    and trace context; ``overrides`` replace Command fields, so the
    interpreter encodes whatever hostile value they hold."""
    command = _opencl(
        "clEnqueueWriteBuffer", mode="async",
        scalars={"blocking_write": 0, "offset": 0, "size": 4096,
                 "num_events_in_wait_list": 0},
        handles={"command_queue": 3, "buf": 4},
        cached_refs={"ptr": [bytes(range(16)), 4096, "buf"]})
    command.trace_id, command.span_id = "trace-9", 41
    for name, value in overrides.items():
        setattr(command, name, value)
    return frame_bytes(INTERP.encode_command(command))


class TestRefHostility:
    """A hostile ``xr``/``tr`` frame leaves the walk before it builds
    anything, and the interpreted decode has the last word: the same
    :class:`CodecError` (or the same message) as :data:`INTERP`."""

    def _parity(self, wire):
        codec = _specialized()
        fast, slow = _both_decode_command(wire, codec)
        assert fast == slow
        assert codec.snapshot()["fast_decodes"] == 0
        return fast

    def test_well_formed_ref_frame_is_fast(self):
        codec = _specialized()
        wire = _ref_frame()
        assert codec.decode_command(wire) == INTERP.decode_command(wire)
        _assert_all_fast(codec, 1)

    @pytest.mark.parametrize("length", [0, 15, 17, 65])
    def test_digest_lengths(self, length):
        outcome = self._parity(_ref_frame(
            cached_refs={"ptr": [b"\x07" * length, 4096, "buf"]}))
        # the interpreter takes any digest of 1..64 bytes
        assert (outcome is CodecError) == (length in (0, 65))

    @pytest.mark.parametrize("size", [-1, True])
    def test_bad_sizes(self, size):
        assert self._parity(_ref_frame(
            cached_refs={"ptr": [bytes(16), size, "buf"]})) is CodecError

    def test_unknown_kind(self):
        assert self._parity(_ref_frame(
            cached_refs={"ptr": [bytes(16), 64, "blob"]})) is CodecError

    def test_unknown_param_and_wrong_kind(self):
        for refs in ({"bogus": [bytes(16), 64, "buf"]},
                     {"ptr": [bytes(16), 64, "str"]}):
            # well-formed for the interpreter: the router judges these
            assert isinstance(self._parity(_ref_frame(cached_refs=refs)),
                              Command)

    def test_ref_beside_literal(self):
        assert self._parity(_ref_frame(
            in_buffers={"ptr": b"\x01" * 8})) is CodecError

    def test_malformed_trace_context(self):
        assert self._parity(_ref_frame(trace_id=5)).trace_id == 5
        wire = _ref_frame()
        # [S, I] becomes a three-item list: [S, I, I]
        at = wire.index(b"\x00\x00\x00\x02trL") + len(b"....trL")
        forged = _patch_u32(wire, at, 1)
        tail = forged.index(b"xr") - 4
        forged = forged[:tail] + b"I" + bytes(8) + forged[tail:]
        forged = _patch_u32(forged, 2, 9)
        assert self._parity(forged) is CodecError

    def test_forged_dict_counts(self):
        wire = _ref_frame()
        for delta in (-2, -1, 1):
            # the command's own count: 12 fields on the wire
            assert self._parity(_patch_u32(wire, 7, delta)) is CodecError
        xr_count = wire.index(b"xrM") + 3
        for delta in (-1, 1):
            assert self._parity(_patch_u32(wire, xr_count, delta)) \
                is CodecError

    def test_truncation_inside_xr(self):
        wire = _ref_frame()
        start = wire.index(b"xrM") - 4
        for cut in range(start, len(wire)):
            # the length field agrees with the cut: only xr is short
            short = _patch_u32(wire[:cut], 2, cut - len(wire))
            assert self._parity(short) is CodecError

    def test_hostile_ref_in_a_batch(self):
        good = INTERP.decode_command(_ref_frame())
        bad = INTERP.decode_command(_ref_frame())
        bad.cached_refs = {"ptr": [bytes(16), -1, "buf"]}
        wire = frame_bytes(INTERP.encode_command(CommandBatch(
            vm_id="vm-0", commands=[good, bad], flush_time=1.0)))
        assert self._parity(wire) is CodecError


# ---------------------------------------------------------------------------
# trust-boundary hardening parity
# ---------------------------------------------------------------------------

def _hostile_frames():
    for api in APIS:
        fn = sorted(LAYOUTS[api])[0]
        lay = LAYOUTS[api][fn]
        yield frame_bytes(INTERP.encode_command(Command(
            seq=3, vm_id="vm-h", api=api, function=fn, mode="async",
            scalars={name: 7 for name in lay["scalars"]},
            handles={name: 9 for name in lay["handles"]},
            in_buffers={name: bytes(range(48)) for name in lay["inbufs"]},
            out_sizes={name: 64 for name in lay["outsz"]},
            issue_time=1.25,
        )))


class TestHardeningParity:

    def test_systematic_truncation_parity(self):
        for wire in _hostile_frames():
            for cut in range(len(wire)):
                fast, slow = _both_decode_command(wire[:cut])
                assert fast is CodecError
                assert slow is CodecError

    def test_single_byte_corruption_parity(self):
        for wire in _hostile_frames():
            for index in range(len(wire)):
                for flip in (0x01, 0x80, 0xFF):
                    mutated = bytearray(wire)
                    mutated[index] ^= flip
                    fast, slow = _both_decode_command(bytes(mutated))
                    assert fast == slow or (fast is CodecError
                                            and slow is CodecError)

    def test_decode_bomb_parity(self):
        # a u32 length field promising far more data than the frame
        # holds must bounce off both codecs, not allocate
        wire = bytearray(next(iter(_hostile_frames())))
        index = wire.find(b"seq")
        wire[index - 4:index] = b"\xff\xff\xff\xff"
        fast, slow = _both_decode_command(bytes(wire))
        assert fast is CodecError
        assert slow is CodecError
