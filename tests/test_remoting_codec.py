"""Unit and property tests for the tagged-value format and the oracle.

The tagged values are :mod:`repro.remoting.codec`'s; the message layer
on top of them here is the oracle's (``tests/wire_oracle.py``), the
self-describing reference the runtime walker is held to.  Every hostile
frame is refused by both the oracle and the walker.
"""

import struct
import time

import pytest
from hypothesis import given, strategies as st

from repro.remoting.codec import (
    CodecError,
    Command,
    Reply,
    decode_value,
    encode_value,
)
from tests.wire_oracle import (
    StreamFramer,
    decode_message,
    encode_message,
    from_wire_dict,
    raw_frame,
    to_wire_dict,
    walker,
)


def wire_values():
    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**62), max_value=2**62),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=40),
        st.binary(max_size=40),
    )
    return st.recursive(
        scalars,
        lambda children: st.one_of(
            st.lists(children, max_size=5),
            st.dictionaries(st.text(max_size=10), children, max_size=5),
        ),
        max_leaves=20,
    )


class TestTaggedValues:
    @given(wire_values())
    def test_round_trip(self, value):
        assert decode_value(encode_value(value)) == value

    def test_bool_distinct_from_int(self):
        assert decode_value(encode_value(True)) is True
        assert decode_value(encode_value(1)) == 1
        assert decode_value(encode_value(1)) is not True

    def test_bytes_and_str_distinct(self):
        assert decode_value(encode_value(b"abc")) == b"abc"
        assert decode_value(encode_value("abc")) == "abc"

    def test_unencodable_raises(self):
        with pytest.raises(CodecError):
            encode_value(object())

    def test_non_string_dict_key_raises(self):
        with pytest.raises(CodecError):
            encode_value({1: "x"})

    def test_truncated_data_raises(self):
        data = encode_value("hello world")
        with pytest.raises(CodecError):
            decode_value(data[:-3])

    def test_trailing_bytes_raise(self):
        with pytest.raises(CodecError):
            decode_value(encode_value(1) + b"x")

    def test_unknown_tag_raises(self):
        with pytest.raises(CodecError):
            decode_value(b"Z")


class TestCommandReply:
    def make_command(self):
        return Command(
            seq=7,
            vm_id="vm-1",
            api="opencl",
            function="clEnqueueWriteBuffer",
            mode="async",
            scalars={"size": 4096, "blocking": False},
            handles={"queue": 0x1001, "waits": [0x1002, 0x1003], "evt": None},
            in_buffers={"ptr": b"\x00" * 64},
            out_sizes={"result": 16},
            issue_time=1.25,
        )

    def test_command_round_trip(self):
        cmd = self.make_command()
        again = decode_message(encode_message(cmd))
        assert isinstance(again, Command)
        assert again == cmd

    def test_reply_round_trip(self):
        reply = Reply(
            seq=7,
            return_value=0,
            out_payloads={"ptr": b"\x01\x02"},
            new_handles={"event": 0x2001},
            error=None,
            complete_time=3.5,
        )
        again = decode_message(encode_message(reply))
        assert isinstance(again, Reply)
        assert again == reply

    def test_error_reply_round_trip(self):
        reply = Reply(seq=1, error="CL_INVALID_VALUE")
        assert decode_message(encode_message(reply)).error == "CL_INVALID_VALUE"

    def test_payload_bytes(self):
        cmd = self.make_command()
        assert cmd.payload_bytes() == 64
        reply = Reply(seq=1, out_payloads={"a": b"123", "b": b"4567"})
        assert reply.payload_bytes() == 7

    def test_message_magic_checked(self):
        data = bytearray(encode_message(self.make_command()))
        data[0] = 0x00
        with pytest.raises(CodecError):
            decode_message(bytes(data))

    def test_short_message_rejected(self):
        with pytest.raises(CodecError):
            decode_message(b"\xabC")

    def test_missing_field_rejected(self):
        with pytest.raises(CodecError):
            from_wire_dict(Command, {"seq": 1})


class TestStreamFraming:
    def test_messages_survive_arbitrary_chunking(self):
        cmd = Command(seq=1, vm_id="v", api="a", function="f")
        reply = Reply(seq=1, return_value=0)
        stream = encode_message(cmd) + encode_message(reply)
        codec = StreamFramer()
        received = []
        for i in range(0, len(stream), 3):
            codec.feed(stream[i:i + 3])
            received.extend(codec.messages())
        assert len(received) == 2
        assert received[0] == cmd
        assert received[1] == reply

    def test_partial_message_not_delivered(self):
        codec = StreamFramer()
        data = encode_message(Command(seq=1, vm_id="v", api="a", function="f"))
        codec.feed(data[:10])
        assert codec.messages() == []
        codec.feed(data[10:])
        assert len(codec.messages()) == 1

    @given(st.integers(min_value=1, max_value=64))
    def test_chunk_size_invariance(self, chunk):
        commands = [
            Command(seq=i, vm_id="v", api="a", function=f"fn{i}",
                    in_buffers={"d": bytes(range(i % 20))})
            for i in range(5)
        ]
        stream = b"".join(encode_message(c) for c in commands)
        codec = StreamFramer()
        received = []
        for i in range(0, len(stream), chunk):
            codec.feed(stream[i:i + chunk])
            received.extend(codec.messages())
        assert received == commands


#: the runtime's decoder, holding the generated opencl tables
WALKER = walker("opencl")


def _write_buffer():
    """A ``clEnqueueWriteBuffer`` command as a conforming guest sends
    it: every hostile command frame below is this one, damaged."""
    return Command(
        seq=9, vm_id="vm-h", api="opencl", function="clEnqueueWriteBuffer",
        mode="async",
        scalars={"blocking_write": True, "offset": -3, "size": 48,
                 "num_events_in_wait_list": 2},
        handles={"command_queue": 0x1000, "buf": 0x1001,
                 "event_wait_list": [1, 2]},
        in_buffers={"ptr": bytes(range(48))},
        out_sizes={"event": 8},
        issue_time=1.5, trace_id="trace-h", span_id=3,
    )


#: the command a hostile reply frame below answers
READ_BUFFER = Command(
    seq=4, vm_id="vm-h", api="opencl", function="clEnqueueReadBuffer",
    scalars={"blocking_read": 1, "offset": 0, "size": 32,
             "num_events_in_wait_list": 0},
    handles={"command_queue": 0x1000, "buf": 0x1001},
    out_sizes={"ptr": 32, "event": 8},
)
CREATE_BUFFER = Command(
    seq=4, vm_id="vm-h", api="opencl", function="clCreateBuffer",
    scalars={"flags": 1, "size": 32}, handles={"context": 0x1000},
    out_sizes={"errcode_ret": 4},
)

#: replies carrying every reply section, each with the command it
#: answers (the walker decodes a reply against its command's tables)
FULL_REPLIES = [
    (Reply(seq=4, return_value=7, out_payloads={"ptr": b"\x01" * 32},
           new_handles={"event": 0x2000}, callbacks=[[1, [2, 3]]],
           complete_time=0.25),
     READ_BUFFER),
    (Reply(seq=4, return_value=0x3000, out_scalars={"errcode_ret": 0},
           new_handles={"__ret__": 0x3000}, error="CL_OUT_OF_MEMORY",
           complete_time=0.5, span_id=8),
     CREATE_BUFFER),
]


def _decoders(reply_to=None):
    """Both sides of the trust boundary: the oracle's decode and the
    walker's, a reply walked against the command it answers."""
    if reply_to is None:
        return (decode_message, WALKER.decode_command)
    return (decode_message,
            lambda frame: WALKER.decode_reply(frame, reply_to=reply_to))


def _refused(frame, reply_to=None):
    for decode in _decoders(reply_to):
        with pytest.raises(CodecError):
            decode(frame)


class TestHostileFrames:
    """The codec is a trust boundary: every malformation must surface as
    CodecError, never as a raw library exception (struct.error,
    RecursionError, MemoryError) that would escape Router.deliver.

    Each frame is thrown at the oracle and at the walker the router
    runs.  The frames are damaged copies of conforming ones, so the
    walker refuses them for the damage, not for a missing table."""

    def test_undamaged_frames_are_accepted(self):
        command = _write_buffer()
        wire = encode_message(command)
        for decode in _decoders():
            assert decode(wire) == command
        for reply, command in FULL_REPLIES:
            wire = encode_message(reply)
            for decode in _decoders(command):
                assert decode(wire) == reply

    def test_systematically_truncated_command_frames(self):
        wire = encode_message(_write_buffer())
        for cut in range(len(wire)):
            _refused(wire[:cut])

    def test_systematically_truncated_reply_frames(self):
        for reply, command in FULL_REPLIES:
            wire = encode_message(reply)
            for cut in range(len(wire)):
                _refused(wire[:cut], reply_to=command)

    def test_systematic_single_byte_corruption_never_escapes(self):
        wire = encode_message(_write_buffer())
        for index in range(len(wire)):
            for flip in (0x01, 0x80, 0xFF):
                mutated = bytearray(wire)
                mutated[index] ^= flip
                for decode in _decoders():
                    try:
                        message = decode(bytes(mutated))
                    except CodecError:
                        continue
                    # surviving frames must at least be structurally valid
                    assert isinstance(message, Command)

    def test_list_count_bomb_rejected_before_looping(self):
        # u32 count of ~4G with only a handful of payload bytes: the
        # decoder must reject by remaining-length bound, not iterate
        body = b"L" + struct.pack(">I", 4_000_000_000) + b"N" * 16
        start = time.monotonic()
        with pytest.raises(CodecError):
            decode_value(body)
        assert time.monotonic() - start < 0.5

    def test_dict_count_bomb_rejected_before_looping(self):
        body = b"M" + struct.pack(">I", 4_000_000_000) + b"\x00" * 16
        start = time.monotonic()
        with pytest.raises(CodecError):
            decode_value(body)
        assert time.monotonic() - start < 0.5

    def test_deep_nesting_is_codec_error_not_recursion_error(self):
        nested = (b"L" + struct.pack(">I", 1)) * 5000 + b"N"
        # as the whole body, and in the command_queue handle's slot
        body = nested
        _refused(b"\xabC" + struct.pack(">I", len(body)) + body)
        command = _write_buffer()
        command.handles["command_queue"] = 0x5EED
        wire = encode_message(command)
        slot = b"I" + struct.pack(">q", 0x5EED)
        body = wire[6:].replace(slot, nested)
        _refused(b"\xabC" + struct.pack(">I", len(body)) + body)

    def test_truncated_dict_key_rejected(self):
        body = b"M" + struct.pack(">I", 1) + struct.pack(">I", 64) + b"ke"
        with pytest.raises(CodecError):
            decode_value(body)

    def test_int_smuggled_as_buffer_rejected(self):
        # bytes(huge_int) would allocate gigabytes host-side
        wire_dict = to_wire_dict(_write_buffer())
        wire_dict["inbufs"] = {"ptr": 2 ** 40}
        _refused(raw_frame(Command, wire_dict))

    def test_mistyped_command_fields_rejected(self):
        base = to_wire_dict(_write_buffer())
        hostile = [
            ("seq", "not-an-int"), ("seq", True),
            ("vm", 7), ("api", None), ("fn", [1]), ("mode", 0),
            ("scalars", [1, 2]), ("handles", "x"), ("inbufs", "x"),
            ("outsz", [3]), ("t", "late"), ("tr", 5), ("tr", [1, 2, 3]),
        ]
        for key, value in hostile:
            wire_dict = dict(base)
            wire_dict[key] = value
            _refused(raw_frame(Command, wire_dict))

    def test_mistyped_out_size_rejected(self):
        wire_dict = to_wire_dict(_write_buffer())
        wire_dict["outsz"] = {"event": "big"}
        _refused(raw_frame(Command, wire_dict))

    def test_non_dict_message_body_rejected(self):
        _refused(raw_frame(Command, [1, 2, 3]))
        _refused(raw_frame(Reply, [1, 2, 3]), reply_to=READ_BUFFER)

    def test_mistyped_reply_fields_rejected(self):
        reply, command = FULL_REPLIES[0]
        base = to_wire_dict(reply)
        for key, value in [("seq", None), ("outs", [1]), ("oscal", 3),
                           ("new", "x"), ("cbs", 5), ("err", 17),
                           ("t", None), ("outs", {"ptr": 2 ** 40})]:
            wire_dict = dict(base)
            wire_dict[key] = value
            _refused(raw_frame(Reply, wire_dict), reply_to=command)
