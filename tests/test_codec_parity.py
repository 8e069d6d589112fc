"""Byte-identity fuzz: the generated walker vs the self-describing oracle.

The runtime's one codec is :class:`SpecializedCodec`, the table walker;
``tests/wire_oracle.py`` keeps the self-describing tagged-value codec
as its oracle.  The contract is *frame-for-frame wire equality*: for
every message the walker encodes, the emitted bytes equal the oracle's
exactly, and every frame the walker decodes gives the oracle's message.
This suite drives that contract with Hypothesis over the real
generated layouts of the four shipped APIs (opencl, mvnc, qat, tpu):
commands, replies (with errors, callbacks and trace context), batches,
ref-carrying frames and ``NeedBytes``.  Then it replays the
trust-boundary hardening checks (systematic truncation, single-byte
corruption) against both codecs: a malformation the oracle refuses,
the walker refuses too, and where the walker accepts a frame it agrees
with the oracle.

The walker has one conformance rule: a section that carries an
*in-order subset* of its declared parameters rides the generated
tables, and anything else is a :class:`CodecError` from the walker
itself.  ``TestInOrderSubsets`` pins the first half for every function,
``TestFallbackRule`` and ``TestRefusedForms`` the second.  The optional
fields — trace context, the transfer cache's refs, a reply's callbacks
and error — ride the tables too: ``TestRefsAndTrace`` fuzzes them and
``TestRefHostility`` holds every malformed ref or trace context to a
refusal.

Frames with payloads of 512 B and up are vectored
(:class:`~repro.remoting.wire.WireFrame`), and the walker decodes them
without joining: ``TestVectoredDecode`` holds that walk to the decode of
the joined bytes, field for field, ``TestVectoredHostility`` holds
every malformed vector to a refusal or to what the oracle makes of its
joined bytes.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.remoting.codec import (  # noqa: E402
    CodecError,
    Command,
    CommandBatch,
    NeedBytes,
    Reply,
    ReplyBatch,
)
from repro.remoting.speccodec import (  # noqa: E402
    _SPLICE_THRESHOLD,
    SpecializedCodec,
)
from repro.remoting.wire import WireFrame, frame_bytes  # noqa: E402
from repro.stack import build_stack  # noqa: E402
from tests.wire_oracle import ORACLE, walker  # noqa: E402

APIS = ("opencl", "mvnc", "qat", "tpu")

LAYOUTS = {api: build_stack(api).codec_module.LAYOUT for api in APIS}
FUNCTIONS = sorted(
    (api, fn) for api in APIS for fn in LAYOUTS[api]
)


def _specialized() -> SpecializedCodec:
    return walker(*APIS)


SPEC = _specialized()


def _outcome(operation, *args, **kwargs):
    """What an operation gives: its result, or :class:`CodecError`."""
    try:
        return operation(*args, **kwargs)
    except CodecError:
        return CodecError


def _assert_all_fast(codec, ops):
    """The walker ran ``ops`` operations and refused none of them."""
    snap = codec.snapshot()
    assert snap["fast_encodes"] + snap["fast_decodes"] == ops


# ---------------------------------------------------------------------------
# strategies: messages drawn from the real generated layouts
# ---------------------------------------------------------------------------

#: values outside every kind's inline tags: the walker writes and reads
#: them through the shared tagged-value writer and reader
odd_values = st.one_of(
    st.booleans(),
    st.lists(st.lists(st.integers(-9, 9), max_size=2), max_size=2),
    st.tuples(st.integers(-9, 9), st.text(max_size=3)),
    st.binary(max_size=8),
)


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


def _slot_value(kind: str) -> st.SearchStrategy:
    """A scalar or handle value: usually of its kind, sometimes None or
    a value only the shared writer carries."""
    return st.one_of(_scalar_value(kind), st.none(), odd_values)


def _subset(draw, values, in_order: bool):
    """A dict holding a random subset of ``values`` (name → strategy).

    ``in_order`` keeps the declared order, as the generated stubs do;
    otherwise Hypothesis picks an arbitrary key order.
    """
    if not in_order:
        return draw(st.fixed_dictionaries({}, optional=values))
    return {name: draw(strategy) for name, strategy in values.items()
            if draw(st.booleans())}


def _in_order(values, declared) -> bool:
    """``values``' keys are a subsequence of ``declared``."""
    remaining = iter(declared)
    return all(name in remaining for name in values)


def _command_conforms(command: Command) -> bool:
    lay = LAYOUTS[command.api][command.function]
    return (_in_order(command.scalars, lay["scalars"])
            and _in_order(command.handles, lay["handles"])
            and _in_order(command.in_buffers, lay["inbufs"])
            and _in_order(command.out_sizes, lay["outsz"])
            and command.mode in ("sync", "async")
            and type(command.issue_time) is float
            and command.trace_id is None and command.span_id is None)


def _reply_conforms(reply: Reply, command: Command) -> bool:
    lay = LAYOUTS[command.api][command.function]
    new_names = ["__ret__"] if lay["ret"] == "handle" else []
    return (_in_order(reply.out_payloads, lay["outs"])
            and _in_order(reply.out_scalars, lay["oscal"])
            and _in_order(reply.new_handles, new_names + lay["new"]))


@st.composite
def layout_commands(draw, function=None, conformant=False) -> Command:
    """A Command for a real function, usually layout-conformant.

    ``None`` and odd values, omitted parameters, arbitrary key order,
    an unknown mode, an integer time and a half trace context are mixed
    in deliberately: some draws conform, some are refused, and every
    one the walker takes equals the oracle.  ``conformant`` draws only
    what the walker takes: in-order subsets, a float time, no trace
    context.
    """
    api, fn = function or draw(st.sampled_from(FUNCTIONS))
    lay = LAYOUTS[api][fn]
    in_order = conformant or draw(st.integers(0, 3)) > 0
    scalars = _subset(draw, {
        name: _slot_value(kind) for name, kind in lay["scalars"].items()
    }, in_order)
    handles = _subset(draw, {
        name: _slot_value(kind) for name, kind in lay["handles"].items()
    }, in_order)
    in_buffers = _subset(draw, {
        # sizes straddle the vectored-send splice threshold (512)
        name: st.binary(max_size=600) for name in lay["inbufs"]
    }, in_order)
    out_sizes = _subset(draw, {
        name: st.integers(0, 1 << 20) for name in lay["outsz"]
    }, in_order)
    odd = not conformant and draw(st.integers(0, 7)) == 0
    return Command(
        seq=draw(st.integers(0, 2 ** 31)),
        vm_id=draw(st.sampled_from(("vm-0", "vm-fuzz", ""))),
        api=api,
        function=fn,
        mode=draw(st.sampled_from(("sync", "async") + (("eager",) * odd))),
        scalars=scalars,
        handles=handles,
        in_buffers=in_buffers,
        out_sizes=out_sizes,
        issue_time=(draw(st.integers(0, 9)) if odd and draw(st.booleans())
                    else draw(st.floats(0, 1e6))),
        trace_id=draw(st.sampled_from((None, "tr-1"))) if odd else None,
    )


@st.composite
def layout_replies(draw, function=None, conformant=False):
    """A (Reply, reply_to Command) pair for a real function.

    Errors and callbacks are always in the mix (the walker carries
    both); ``conformant`` keeps the sections in declared order.
    """
    api, fn = function or draw(st.sampled_from(FUNCTIONS))
    lay = LAYOUTS[api][fn]
    if lay["ret"] == "scalar":
        ret = draw(st.one_of(st.none(), st.integers(-(2 ** 31), 2 ** 31),
                             st.floats(allow_nan=False), odd_values))
    else:
        ret = None
    # the server stub binds a returned handle before any out-param
    new_names = ["__ret__"] if lay["ret"] == "handle" else []
    new_names.extend(lay["new"])
    in_order = conformant or draw(st.integers(0, 3)) > 0
    reply = Reply(
        seq=draw(st.integers(0, 2 ** 31)),
        return_value=ret,
        out_payloads=_subset(draw, {
            name: st.binary(max_size=600) for name in lay["outs"]
        }, in_order),
        out_scalars=_subset(draw, {
            name: st.one_of(st.none(), st.integers(-(2 ** 31), 2 ** 31),
                            st.floats(allow_nan=False), st.text(max_size=8),
                            odd_values)
            for name in lay["oscal"]
        }, in_order),
        new_handles=_subset(draw, {
            name: st.one_of(
                st.integers(0, 2 ** 48),
                st.lists(st.integers(0, 2 ** 48), max_size=3),
            )
            for name in new_names
        }, in_order),
        callbacks=draw(st.sampled_from(([], [[1, [2, 3]]], [[2, []]]))),
        error=draw(st.one_of(st.none(), st.just("boom"), st.text(max_size=8))),
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
        slow = frame_bytes(ORACLE.encode_command(command))
        fast = _outcome(SPEC.encode_command, command)
        if not _command_conforms(command):
            # refused both ways: the walker neither emits nor takes it
            assert fast is CodecError
            assert _outcome(SPEC.decode_command, slow) is CodecError
            return
        assert frame_bytes(fast) == slow
        assert SPEC.decode_command(slow) == ORACLE.decode_command(slow)

    @settings(max_examples=120, deadline=None)
    @given(layout_replies())
    def test_reply_frames_identical(self, pair):
        reply, command = pair
        slow = frame_bytes(ORACLE.encode_reply(reply, reply_to=command))
        fast = _outcome(SPEC.encode_reply, reply, reply_to=command)
        if not _reply_conforms(reply, command):
            assert fast is CodecError
            assert _outcome(SPEC.decode_reply, slow,
                            reply_to=command) is CodecError
            return
        assert frame_bytes(fast) == slow
        assert (SPEC.decode_reply(slow, reply_to=command)
                == ORACLE.decode_reply(slow, reply_to=command))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(layout_commands(), min_size=1, max_size=3),
           st.floats(0, 1e6))
    def test_batch_frames_identical(self, commands, flush_time):
        # (an empty batch is unencodable by contract: both decoders
        # reject "batch carries no commands")
        batch = CommandBatch(vm_id="vm-0", commands=commands,
                             flush_time=flush_time)
        slow = frame_bytes(ORACLE.encode_command(batch))
        fast = _outcome(SPEC.encode_command, batch)
        if not all(map(_command_conforms, commands)):
            # one refused command makes the whole batch malformed
            assert fast is CodecError
            assert _outcome(SPEC.decode_command, slow) is CodecError
            return
        assert frame_bytes(fast) == slow
        assert SPEC.decode_command(slow) == ORACLE.decode_command(slow)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(layout_replies(), min_size=0, max_size=3),
           st.floats(0, 1e6))
    def test_reply_batch_frames_identical(self, pairs, complete_time):
        replies = [reply for reply, _ in pairs]
        reply_to = CommandBatch(
            vm_id="vm-0", commands=[cmd for _, cmd in pairs])
        batch = ReplyBatch(replies=replies, complete_time=complete_time)
        slow = frame_bytes(ORACLE.encode_reply(batch, reply_to=reply_to))
        fast = _outcome(SPEC.encode_reply, batch, reply_to=reply_to)
        if not all(_reply_conforms(reply, cmd) for reply, cmd in pairs):
            assert fast is CodecError
            assert _outcome(SPEC.decode_reply, slow,
                            reply_to=reply_to) is CodecError
            return
        assert frame_bytes(fast) == slow
        assert (SPEC.decode_reply(slow, reply_to=reply_to)
                == ORACLE.decode_reply(slow, reply_to=reply_to))

    def test_need_bytes_identical(self):
        message = NeedBytes(seq=7, missing=[[7, "src", b"\x01" * 16]],
                            complete_time=0.5)
        fast = frame_bytes(SPEC.encode_reply(message))
        slow = frame_bytes(ORACLE.encode_reply(message))
        assert fast == slow
        assert SPEC.decode_reply(fast) == ORACLE.decode_reply(slow)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-1, 2 ** 31),
           st.lists(st.tuples(st.integers(0, 2 ** 31), st.text(max_size=12),
                              st.binary(min_size=16, max_size=16)),
                    min_size=1, max_size=4),
           st.floats(0, 1e6))
    def test_need_bytes_frames_identical(self, seq, missing, at):
        message = NeedBytes(seq=seq, missing=[list(m) for m in missing],
                            complete_time=at)
        fast = frame_bytes(SPEC.encode_reply(message))
        assert fast == frame_bytes(ORACLE.encode_reply(message))
        # whatever the hint: a NeedBytes answers any frame
        assert SPEC.decode_reply(fast) == ORACLE.decode_reply(fast)
        assert SPEC.decode_reply(fast, reply_to=CommandBatch(
            vm_id="vm-0")) == message

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-1, 2 ** 31), st.text(max_size=40),
           st.floats(0, 1e6))
    def test_refusals_need_no_table(self, seq, error, at):
        """A refusal has empty sections: it encodes with no reply_to and
        decodes with none or under a CommandBatch one."""
        refusal = Reply(seq=seq, error=error, complete_time=at)
        fast = frame_bytes(SPEC.encode_reply(refusal))
        assert fast == frame_bytes(ORACLE.encode_reply(refusal))
        for hint in (None, CommandBatch(vm_id="vm-0")):
            assert SPEC.decode_reply(fast, reply_to=hint) == refusal


# ---------------------------------------------------------------------------
# the walker counts what it runs
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
        assert decoded == reply

    def test_deviating_command_falls_back_identically(self):
        """A value outside its kind's inline tags (a nested list where
        an int belongs) takes the shared writer and reader: the
        oracle's bytes, in the same one pass."""
        codec = _specialized()
        command = self._conformant()
        command.scalars = {"graph_file_length": [[4096], True]}
        wire = frame_bytes(codec.encode_command(command))
        assert wire == frame_bytes(ORACLE.encode_command(command))
        assert codec.decode_command(wire) == command
        _assert_all_fast(codec, 2)

    def test_ref_carrying_command_is_fast(self):
        codec = _specialized()
        command = self._conformant()
        command.cached_refs = {"graph_file": [b"\x02" * 16, 4096, "buf"]}
        command.in_buffers = {}
        command.trace_id, command.span_id = "trace-1", 77
        wire = frame_bytes(codec.encode_command(command))
        assert wire == frame_bytes(ORACLE.encode_command(command))
        assert codec.decode_command(wire) == command
        _assert_all_fast(codec, 2)

    def test_vm_runs_stay_bounded(self):
        """The encoder keeps each sender's ``vm`` run, but not without
        bound: a stream of distinct ids leaves at most 1,024 behind,
        and every frame is still the oracle's."""
        codec = _specialized()
        command = self._conformant()
        for index in range(1500):
            command.vm_id = f"vm-{index}"
            assert (frame_bytes(codec.encode_command(command))
                    == frame_bytes(ORACLE.encode_command(command)))
        assert 0 < len(codec.vm_runs) <= 1024

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
# the one conformance rule: in-order subset → the tables
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("function", FUNCTIONS, ids="-".join)
class TestInOrderSubsets:
    """Every function, any in-order subset of every section: the
    traffic the generated stubs produce (parameter order, NULLs
    omitted) always rides the tables, errors and callbacks included."""

    @settings(max_examples=12, deadline=None)
    @given(st.data())
    def test_command_subsets_stay_fast(self, function, data):
        command = data.draw(layout_commands(function, conformant=True))
        codec = _specialized()
        fast = frame_bytes(codec.encode_command(command))
        assert fast == frame_bytes(ORACLE.encode_command(command))
        assert codec.decode_command(fast) == ORACLE.decode_command(fast)
        _assert_all_fast(codec, 2)

    @settings(max_examples=12, deadline=None)
    @given(st.data())
    def test_reply_subsets_stay_fast(self, function, data):
        reply, command = data.draw(
            layout_replies(function, conformant=True))
        codec = _specialized()
        fast = frame_bytes(codec.encode_reply(reply, reply_to=command))
        assert fast == frame_bytes(
            ORACLE.encode_reply(reply, reply_to=command))
        assert (codec.decode_reply(fast, reply_to=command)
                == ORACLE.decode_reply(fast, reply_to=command))
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


def _assert_walked_by_reference(frame, decoded, joined_decode, sent):
    """The vectored walk equals the joined decode and took every
    spliced payload as the segment it is."""
    assert decoded == joined_decode
    for got, want in zip(_payloads_of(decoded), _payloads_of(joined_decode)):
        assert bytes(got) == bytes(want)
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
        assert bytes(frame) == ORACLE.encode_command(command)
        _assert_walked_by_reference(
            frame, codec.decode_command(frame),
            codec.decode_command(bytes(frame)), command)

    @settings(max_examples=120, deadline=None)
    @given(payload_replies())
    def test_reply_walk_equals_joined_decode(self, pair):
        reply, command = pair
        codec = _specialized()
        frame = codec.encode_reply(reply, reply_to=command)
        assert bytes(frame) == ORACLE.encode_reply(reply, reply_to=command)
        _assert_walked_by_reference(
            frame, codec.decode_reply(frame, reply_to=command),
            codec.decode_reply(bytes(frame), reply_to=command), reply)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(payload_commands(), min_size=1, max_size=4),
           st.floats(0, 1e6))
    def test_batch_walk_equals_joined_decode(self, commands, flush_time):
        batch = CommandBatch(vm_id="vm-0", commands=commands,
                             flush_time=flush_time)
        codec = _specialized()
        frame = codec.encode_command(batch)
        assert bytes(frame) == ORACLE.encode_command(batch)
        _assert_walked_by_reference(
            frame, codec.decode_command(frame),
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
        assert bytes(frame) == ORACLE.encode_reply(batch, reply_to=reply_to)
        _assert_walked_by_reference(
            frame, codec.decode_reply(frame, reply_to=reply_to),
            codec.decode_reply(bytes(frame), reply_to=reply_to), batch)


def _refuses_or_agrees(fast, slow):
    """The walker's verdict on a hostile frame: a refusal, or the very
    message the oracle decodes (never one the oracle would refuse)."""
    assert fast is CodecError or fast == slow


class TestVectoredHostility:
    """A vector the walk cannot vouch for is refused; one it takes
    decodes to what the oracle makes of its joined bytes."""

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
        slow = _outcome(ORACLE.decode_command, b"".join(segments))
        _refuses_or_agrees(fast, slow)
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
        assert codec.snapshot()["fast_decodes"] == 1

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
            assert codec.snapshot()["fast_decodes"] == 0

    def test_unclaimed_segment_is_refused(self):
        """A payload segment where no ``B`` value starts is refused,
        even an empty one whose joined bytes are a valid frame."""
        batch = self._write_batch(600)
        first, payload, tail = SPEC.encode_command(batch).segments
        cut = len(first) // 2
        fast, _ = self._check_command(
            [first[:cut], b"", first[cut:], payload, tail])
        assert fast is CodecError

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
            slow = _outcome(ORACLE.decode_reply, b"".join(segments))
            _refuses_or_agrees(fast, slow)
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
    return (_outcome(codec.decode_command, data),
            _outcome(ORACLE.decode_command, data))


def _patch_u32(wire: bytes, offset: int, delta: int) -> bytes:
    value = int.from_bytes(wire[offset:offset + 4], "big") + delta
    return wire[:offset] + value.to_bytes(4, "big") + wire[offset + 4:]


def _assert_refused(command):
    """The walker neither encodes ``command`` nor decodes the oracle's
    frame of it, and counts neither as a walk."""
    codec = _specialized()
    with pytest.raises(CodecError):
        codec.encode_command(command)
    wire = frame_bytes(ORACLE.encode_command(command))
    with pytest.raises(CodecError):
        codec.decode_command(wire)
    _assert_all_fast(codec, 0)


class TestFallbackRule:
    """The conformance rule's two sides on the measured shapes and on
    the deviations it names: what conforms is walked, and each
    deviation — which nothing falls back from any more — is a
    :class:`CodecError` from the walker, in both directions."""

    @pytest.mark.parametrize("shape", sorted(MEASURED_SHAPES))
    def test_measured_subset_shapes_are_fast(self, shape):
        command = MEASURED_SHAPES[shape]
        codec = _specialized()
        wire = frame_bytes(codec.encode_command(command))
        assert wire == frame_bytes(ORACLE.encode_command(command))
        assert codec.decode_command(wire) == command
        _assert_all_fast(codec, 2)

    def test_out_of_order_keys_fall_back(self):
        _assert_refused(_ndrange(
            global_work_size=[64], work_dim=1, num_events_in_wait_list=0))

    def test_unknown_key_falls_back(self):
        _assert_refused(_ndrange(work_dim=1, bogus=7))

    def _scalars_count_offset(self, wire: bytes) -> int:
        return wire.index(b"scalars") + len(b"scalarsM")

    def test_duplicated_key_falls_back(self):
        wire = frame_bytes(ORACLE.encode_command(_ndrange(work_dim=1)))
        entry = b"\x00\x00\x00\x08work_dimI" + (1).to_bytes(8, "big")
        at = wire.index(entry)
        twice = wire[:at] + entry[:-1] + b"\x02" + wire[at:]
        twice = _patch_u32(twice, self._scalars_count_offset(twice), 1)
        twice = _patch_u32(twice, 2, len(entry))
        codec = _specialized()
        fast, slow = _both_decode_command(twice, codec)
        # the oracle's dict keeps the last duplicate; the walker refuses
        assert slow.scalars == {"work_dim": 1}
        assert fast is CodecError
        _assert_all_fast(codec, 0)

    def test_count_beyond_entries_present_falls_back(self):
        wire = frame_bytes(ORACLE.encode_command(_ndrange(work_dim=1)))
        forged = _patch_u32(wire, self._scalars_count_offset(wire), 1)
        codec = _specialized()
        fast, slow = _both_decode_command(forged, codec)
        assert fast is CodecError
        assert slow is CodecError
        _assert_all_fast(codec, 0)


class TestRefusedForms:
    """Everything outside the rule that a conforming peer never sends:
    the walker refuses it itself, and a batch holding one such command
    is malformed as a whole."""

    FORMS = {
        "no-table": _opencl("clNoSuchCall"),
        "bad-mode": _opencl("clFinish", mode="eager",
                            handles={"command_queue": 3}),
        "int-time": Command(seq=1, vm_id="vm-0", api="opencl",
                            function="clFinish", issue_time=3),
        "half-trace": Command(seq=1, vm_id="vm-0", api="opencl",
                              function="clFinish", issue_time=1.0,
                              span_id=5),
        "wrong-kind-xr": _opencl(
            "clEnqueueWriteBuffer",
            cached_refs={"ptr": [bytes(16), 64, "str"]}),
        "bool-out-size": _opencl("clEnqueueReadBuffer",
                                 out_sizes={"ptr": True}),
    }

    @pytest.mark.parametrize("form", sorted(FORMS))
    def test_form_is_refused(self, form):
        _assert_refused(self.FORMS[form])

    @pytest.mark.parametrize("form", sorted(FORMS))
    def test_one_refused_command_spoils_its_batch(self, form):
        good = MEASURED_SHAPES["ndrange-null-offset-local"]
        _assert_refused(CommandBatch(
            vm_id="vm-0", commands=[good, self.FORMS[form], good],
            flush_time=1.0))

    def test_integer_reply_time_is_refused(self):
        command = MEASURED_SHAPES["read-without-event"]
        reply = Reply(seq=21, return_value=0, complete_time=5)
        with pytest.raises(CodecError):
            SPEC.encode_reply(reply, reply_to=command)
        wire = ORACLE.encode_reply(reply)
        with pytest.raises(CodecError):
            SPEC.decode_reply(wire, reply_to=command)

    @pytest.mark.parametrize("field, value", [
        ("error", 17), ("error", True), ("error", b"boom"),
        ("callbacks", 5), ("callbacks", None), ("callbacks", {"a": 1}),
    ])
    def test_mistyped_reply_tail_is_refused(self, field, value):
        """The oracle refuses a reply whose ``err`` is no string or
        whose ``cbs`` is no list; so does the walker, both ways."""
        command = MEASURED_SHAPES["read-without-event"]
        reply = Reply(seq=21, return_value=0, complete_time=5.0)
        setattr(reply, field, value)
        wire = ORACLE.encode_reply(reply)
        assert _outcome(ORACLE.decode_reply, wire) is CodecError
        with pytest.raises(CodecError):
            SPEC.encode_reply(reply, reply_to=command)
        with pytest.raises(CodecError):
            SPEC.decode_reply(wire, reply_to=command)

    @pytest.mark.parametrize("missing", [
        [], [7], [[4, "ptr"]], [[True, "ptr", bytes(16)]],
        [["4", "ptr", bytes(16)]], [[4, 5, bytes(16)]],
        [[4, "ptr", "digest"]], [[4, "ptr", bytes(16)], [4, "src", None]],
    ], ids=["empty", "int-entry", "two-fields", "bool-seq", "str-seq",
            "int-param", "str-digest", "none-digest"])
    def test_malformed_need_bytes_is_refused(self, missing):
        """A ``miss`` list the oracle refuses: the walker neither
        encodes it nor decodes the oracle's frame of it."""
        message = NeedBytes(seq=4, missing=missing, complete_time=1.0)
        wire = ORACLE.encode_reply(message)
        assert _outcome(ORACLE.decode_reply, wire) is CodecError
        with pytest.raises(CodecError):
            SPEC.encode_reply(message)
        with pytest.raises(CodecError):
            SPEC.decode_reply(wire)

    def test_trailing_bytes_are_refused(self):
        wire = frame_bytes(ORACLE.encode_command(
            MEASURED_SHAPES["ndrange-null-offset-local"]))
        padded = _patch_u32(wire + b"N", 2, 1)
        assert _both_decode_command(padded) == (CodecError, CodecError)

    @pytest.mark.parametrize("batched", [False, True],
                             ids=["command", "batch"])
    def test_nesting_bound_matches_the_oracle(self, batched):
        """A list nested in a scalar slot decodes exactly as deep as the
        oracle allows (64 levels, counted from the frame's body)."""
        verdicts = []
        for depth in range(56, 68):
            value = 0
            for _ in range(depth):
                value = [value]
            command = _opencl("clFinish", scalars={},
                              handles={"command_queue": value})
            frame = (CommandBatch(vm_id="vm-0", commands=[command],
                                  flush_time=1.0)
                     if batched else command)
            wire = frame_bytes(ORACLE.encode_command(frame))
            fast, slow = _both_decode_command(wire)
            assert (fast is CodecError) == (slow is CodecError)
            _refuses_or_agrees(fast, slow)
            verdicts.append(fast is CodecError)
        # the bound falls inside the swept depths
        assert verdicts[0] is False and verdicts[-1] is True


# ---------------------------------------------------------------------------
# the plain reply: one fixed run, and every reply one field off it
# ---------------------------------------------------------------------------

#: functions the plain run answers: no outputs, and outputs declared
#: but not sent (the run is the same for both)
PLAIN_COMMANDS = [
    _opencl("clFinish", handles={"command_queue": 3}),
    MEASURED_SHAPES["ndrange-null-offset-local"],
    MEASURED_SHAPES["read-without-event"],
]


def _plain(**off) -> Reply:
    """A plain reply (int return, empty sections, no callbacks, no
    error, untraced), with the fields in ``off`` set instead."""
    reply = Reply(seq=21, return_value=0, complete_time=5.25)
    for name, value in off.items():
        setattr(reply, name, value)
    return reply


#: replies one field off plain; each must stay byte-identical
ONE_OFF = {
    "plain": {},
    "ret-true": {"return_value": True},
    "ret-false": {"return_value": False},
    "ret-int64-min": {"return_value": -2 ** 63},
    "ret-int64-max": {"return_value": 2 ** 63 - 1},
    "ret-float": {"return_value": 1.0},
    "ret-none": {"return_value": None},
    "empty-error": {"error": ""},
    "one-callback": {"callbacks": [[1, [2, "x"]]]},
    "span-zero": {"span_id": 0},
}


def _same(decoded, reply):
    """Equal, and the return value of the same type (``True == 1`` and
    ``1.0 == 1`` would hide a plain-run misread)."""
    return (decoded == reply
            and type(decoded.return_value) is type(reply.return_value))


@pytest.mark.parametrize("command", PLAIN_COMMANDS,
                         ids=lambda command: command.function)
class TestPlainReplyBoundary:
    """The plain reply rides one ``struct`` run; anything one field off
    it walks.  Both are the oracle's bytes, alone and inside a
    :class:`ReplyBatch`, and decode back to the same reply."""

    @pytest.mark.parametrize("case", sorted(ONE_OFF))
    def test_one_field_off_plain(self, command, case):
        reply = _plain(**ONE_OFF[case])
        codec = _specialized()
        wire = frame_bytes(codec.encode_reply(reply, reply_to=command))
        assert wire == frame_bytes(ORACLE.encode_reply(reply))
        assert _same(codec.decode_reply(wire, reply_to=command), reply)
        batch = ReplyBatch(replies=[reply, _plain(seq=22)],
                           complete_time=6.0)
        reply_to = CommandBatch(vm_id="vm-0", commands=[command, command])
        wire = frame_bytes(codec.encode_reply(batch, reply_to=reply_to))
        assert wire == frame_bytes(ORACLE.encode_reply(batch))
        decoded = codec.decode_reply(wire, reply_to=reply_to)
        assert decoded == batch
        assert all(map(_same, decoded.replies, batch.replies))
        _assert_all_fast(codec, 4)

    def test_int64_overflow_is_refused(self, command):
        reply = _plain(return_value=2 ** 63)
        with pytest.raises(CodecError):
            SPEC.encode_reply(reply, reply_to=command)
        with pytest.raises(CodecError):
            SPEC.encode_reply(
                ReplyBatch(replies=[_plain(), reply], complete_time=6.0),
                reply_to=CommandBatch(vm_id="vm-0",
                                      commands=[command, command]))

    @pytest.mark.parametrize("section",
                             ["out_payloads", "out_scalars", "new_handles"])
    def test_section_given_as_a_list_is_refused(self, command, section):
        """``[]`` is not ``{}``: the oracle writes it as a list and then
        refuses its own frame; the walker refuses both ways."""
        reply = _plain(**{section: []})
        batch = ReplyBatch(replies=[reply], complete_time=6.0)
        reply_to = CommandBatch(vm_id="vm-0", commands=[command])
        for message, to in ((reply, command), (batch, reply_to)):
            wire = frame_bytes(ORACLE.encode_reply(message))
            assert _outcome(ORACLE.decode_reply, wire) is CodecError
            with pytest.raises(CodecError):
                SPEC.encode_reply(message, reply_to=to)
            with pytest.raises(CodecError):
                SPEC.decode_reply(wire, reply_to=to)

    def test_every_byte_flip_refused_or_agreed(self, command):
        """Damage anywhere in a plain frame, alone or batched: the walker
        refuses it or decodes what the oracle decodes."""
        reply_to = CommandBatch(vm_id="vm-0", commands=[command, command])
        frames = [
            (frame_bytes(SPEC.encode_reply(_plain(), reply_to=command)),
             command),
            (frame_bytes(SPEC.encode_reply(
                ReplyBatch(replies=[_plain(), _plain(seq=22)],
                           complete_time=6.0), reply_to=reply_to)),
             reply_to),
        ]
        for wire, to in frames:
            for index in range(len(wire)):
                for flip in (0x01, 0x80, 0xFF):
                    mutated = bytearray(wire)
                    mutated[index] ^= flip
                    fast = _outcome(SPEC.decode_reply, bytes(mutated),
                                    reply_to=to)
                    slow = _outcome(ORACLE.decode_reply, bytes(mutated))
                    _refuses_or_agrees(fast, slow)
                    if isinstance(fast, Reply):
                        assert _same(fast, slow)


# ---------------------------------------------------------------------------
# the optional fields: trace context (tr) and cached refs (xr)
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
    """Ref-carrying and traced frames equal the oracle's bytes and
    decode in one walk."""

    @settings(max_examples=150, deadline=None)
    @given(ref_commands())
    def test_command_frames_identical_and_fast(self, command):
        codec = _specialized()
        fast = frame_bytes(codec.encode_command(command))
        assert fast == frame_bytes(ORACLE.encode_command(command))
        assert codec.decode_command(fast) == ORACLE.decode_command(fast)
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
        assert bytes(frame) == ORACLE.encode_command(batch)
        decoded = codec.decode_command(frame)
        assert decoded == ORACLE.decode_command(bytes(frame))
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
            assert fast == frame_bytes(ORACLE.encode_reply(message,
                                                           reply_to=to))
            assert (codec.decode_reply(fast, reply_to=to)
                    == ORACLE.decode_reply(fast, reply_to=to))
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
        _assert_refused(command)


def _ref_frame(**overrides) -> bytes:
    """An oracle ``clEnqueueWriteBuffer`` frame carrying one ref and
    trace context; ``overrides`` replace Command fields, so the oracle
    encodes whatever hostile value they hold."""
    command = _opencl(
        "clEnqueueWriteBuffer", mode="async",
        scalars={"blocking_write": 0, "offset": 0, "size": 4096,
                 "num_events_in_wait_list": 0},
        handles={"command_queue": 3, "buf": 4},
        cached_refs={"ptr": [bytes(range(16)), 4096, "buf"]})
    command.trace_id, command.span_id = "trace-9", 41
    for name, value in overrides.items():
        setattr(command, name, value)
    return frame_bytes(ORACLE.encode_command(command))


class TestRefHostility:
    """A hostile ``xr``/``tr`` frame leaves the walk before it builds
    anything: a :class:`CodecError`, whatever the oracle would have
    made of it (``_refused`` returns that, for the record)."""

    def _refused(self, wire):
        codec = _specialized()
        fast, slow = _both_decode_command(wire, codec)
        assert fast is CodecError
        _assert_all_fast(codec, 0)
        return slow

    def test_well_formed_ref_frame_is_fast(self):
        codec = _specialized()
        wire = _ref_frame()
        assert codec.decode_command(wire) == ORACLE.decode_command(wire)
        _assert_all_fast(codec, 1)

    @pytest.mark.parametrize("length", [0, 15, 17, 65])
    def test_digest_lengths(self, length):
        outcome = self._refused(_ref_frame(
            cached_refs={"ptr": [b"\x07" * length, 4096, "buf"]}))
        # the oracle takes any digest of 1..64 bytes; the walker 16
        assert (outcome is CodecError) == (length in (0, 65))

    @pytest.mark.parametrize("size", [-1, True])
    def test_bad_sizes(self, size):
        assert self._refused(_ref_frame(
            cached_refs={"ptr": [bytes(16), size, "buf"]})) is CodecError

    def test_unknown_kind(self):
        assert self._refused(_ref_frame(
            cached_refs={"ptr": [bytes(16), 64, "blob"]})) is CodecError

    def test_unknown_param_and_wrong_kind(self):
        for refs in ({"bogus": [bytes(16), 64, "buf"]},
                     {"ptr": [bytes(16), 64, "str"]}):
            # well-formed for the oracle; no conforming guest sends them
            assert isinstance(self._refused(_ref_frame(cached_refs=refs)),
                              Command)

    def test_ref_beside_literal(self):
        assert self._refused(_ref_frame(
            in_buffers={"ptr": b"\x01" * 8})) is CodecError

    def test_malformed_trace_context(self):
        assert self._refused(_ref_frame(trace_id=5)).trace_id == 5
        wire = _ref_frame()
        # [S, I] becomes a three-item list: [S, I, I]
        at = wire.index(b"\x00\x00\x00\x02trL") + len(b"....trL")
        forged = _patch_u32(wire, at, 1)
        tail = forged.index(b"xr") - 4
        forged = forged[:tail] + b"I" + bytes(8) + forged[tail:]
        forged = _patch_u32(forged, 2, 9)
        assert self._refused(forged) is CodecError

    def test_forged_dict_counts(self):
        wire = _ref_frame()
        for delta in (-2, -1, 1):
            # the command's own count: 12 fields on the wire
            assert self._refused(_patch_u32(wire, 7, delta)) is CodecError
        xr_count = wire.index(b"xrM") + 3
        for delta in (-1, 1):
            assert self._refused(_patch_u32(wire, xr_count, delta)) \
                is CodecError

    def test_truncation_inside_xr(self):
        wire = _ref_frame()
        start = wire.index(b"xrM") - 4
        for cut in range(start, len(wire)):
            # the length field agrees with the cut: only xr is short
            short = _patch_u32(wire[:cut], 2, cut - len(wire))
            assert self._refused(short) is CodecError

    def test_hostile_ref_in_a_batch(self):
        good = ORACLE.decode_command(_ref_frame())
        bad = ORACLE.decode_command(_ref_frame())
        bad.cached_refs = {"ptr": [bytes(16), -1, "buf"]}
        wire = frame_bytes(ORACLE.encode_command(CommandBatch(
            vm_id="vm-0", commands=[good, bad], flush_time=1.0)))
        assert self._refused(wire) is CodecError


# ---------------------------------------------------------------------------
# trust-boundary hardening: the walker never takes what the oracle refuses
# ---------------------------------------------------------------------------

def _hostile_frames():
    for api in APIS:
        fn = sorted(LAYOUTS[api])[0]
        lay = LAYOUTS[api][fn]
        yield frame_bytes(ORACLE.encode_command(Command(
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
                    _refuses_or_agrees(
                        *_both_decode_command(bytes(mutated)))

    @pytest.mark.parametrize("message", [
        NeedBytes(seq=4, missing=[[4, "ptr", bytes(range(16))],
                                  [5, "src", b"\x09" * 16]],
                  complete_time=2.0),
        Reply(seq=4, error="router: malformed command", complete_time=2.0),
    ], ids=["need-bytes", "refusal"])
    def test_table_less_reply_hardening_parity(self, message):
        """The frames that need no table get the same treatment: every
        truncation refused, every single-byte corruption refused or
        decoded as the oracle decodes it."""
        wire = frame_bytes(ORACLE.encode_reply(message))
        for cut in range(len(wire)):
            assert _outcome(SPEC.decode_reply, wire[:cut]) is CodecError
        for index in range(len(wire)):
            for flip in (0x01, 0x80, 0xFF):
                mutated = bytearray(wire)
                mutated[index] ^= flip
                _refuses_or_agrees(
                    _outcome(SPEC.decode_reply, bytes(mutated)),
                    _outcome(ORACLE.decode_reply, bytes(mutated)))

    def test_decode_bomb_parity(self):
        # a u32 length field promising far more data than the frame
        # holds must bounce off both codecs, not allocate
        wire = bytearray(next(iter(_hostile_frames())))
        index = wire.find(b"seq")
        wire[index - 4:index] = b"\xff\xff\xff\xff"
        fast, slow = _both_decode_command(bytes(wire))
        assert fast is CodecError
        assert slow is CodecError
