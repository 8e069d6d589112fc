"""The WireCodec boundary: frames, buffer donation, codec selection.

Three layers of the zero-copy data path:

* :class:`WireFrame` — vectored frames whose payload segments alias
  caller memory, priced by :func:`len` without materialization;
* :class:`WireBuffer` — the buffer-donation contract (who may touch
  the memory, and the loud :class:`BufferContractError` when a caller
  hands over memory the encoder cannot splice);
* codec selection — ``VirtualStack.build(codec=...)`` threading one
  :class:`WireCodec` through hypervisor, router, and transports, with
  the generated walker producing the *same virtual-time results* as
  the self-describing oracle (the figure-5 bit-identity property).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.remoting.buffers import (
    BufferContractError,
    WireBuffer,
    as_byte_view,
    read_bytes,
)
from repro.remoting.codec import Command
from repro.remoting.speccodec import SpecializedCodec
from repro.remoting.wire import WireCodec, WireFrame, frame_bytes
from repro.stack import VirtualStack, build_stack, resolve_codec
from repro.transport.base import Transport
from tests.wire_oracle import OracleCodec


# ---------------------------------------------------------------------------
# WireFrame
# ---------------------------------------------------------------------------

class TestWireFrame:

    def test_len_sums_segments_without_joining(self):
        payload = memoryview(b"\x01" * 300)
        frame = WireFrame([b"head", payload, bytearray(b"tail")])
        assert len(frame) == 4 + 300 + 4
        assert frame._joined is None  # pricing did not materialize

    def test_join_concatenates_once_and_caches(self):
        frame = WireFrame([b"ab", memoryview(b"cd"), bytearray(b"ef")])
        joined = frame.join()
        assert joined == b"abcdef"
        assert frame.join() is joined
        assert bytes(frame) == b"abcdef"

    def test_single_segment_fast_path(self):
        frame = WireFrame([b"solo"])
        assert frame.join() == b"solo"
        assert len(frame) == 4

    def test_frame_bytes_normalizes_every_frame_shape(self):
        for shape in (b"xyz", bytearray(b"xyz"), memoryview(b"xyz"),
                      WireFrame([b"x", b"yz"])):
            assert frame_bytes(shape) == b"xyz"


# ---------------------------------------------------------------------------
# WireBuffer — the donation contract
# ---------------------------------------------------------------------------

class TestWireBuffer:

    def test_bytes_donation_is_read_only_view(self):
        source = b"\x07" * 64
        buf = WireBuffer(source)
        view = buf.view()
        assert view.readonly
        assert view.obj is source
        assert bytes(buf) == source
        assert len(buf) == buf.nbytes == 64

    def test_contiguous_ndarray_donates_zero_copy(self):
        array = np.arange(16, dtype=np.float32)
        buf = WireBuffer(array)
        assert buf.nbytes == array.nbytes
        assert bytes(buf) == array.tobytes()

    def test_non_contiguous_ndarray_is_a_contract_error(self):
        strided = np.arange(16, dtype=np.float32)[::2]
        with pytest.raises(BufferContractError):
            WireBuffer(strided)
        # the contract error is still a ValueError for old handlers
        with pytest.raises(ValueError):
            WireBuffer(strided)

    def test_non_buffer_is_a_contract_error(self):
        with pytest.raises(BufferContractError):
            WireBuffer(["not", "bytes"])

    def test_release_makes_lingering_use_fail_loudly(self):
        buf = WireBuffer(bytearray(b"live"))
        buf.release()
        with pytest.raises(BufferContractError):
            buf.view()
        with pytest.raises(BufferContractError):
            buf.nbytes
        assert repr(buf) == "WireBuffer(<released>)"

    def test_rewrapping_aliases_the_same_memory(self):
        inner = WireBuffer(b"shared")
        outer = WireBuffer(inner)
        assert outer.view().obj is inner.view().obj

    def test_read_bytes_accepts_wire_buffers(self):
        assert read_bytes(WireBuffer(b"payload")) == b"payload"
        assert read_bytes(WireBuffer(b"payload"), limit=3) == b"pay"

    def test_as_byte_view_rejects_read_only_targets(self):
        with pytest.raises(BufferContractError):
            as_byte_view(memoryview(b"frozen"))
        locked = np.arange(4, dtype=np.float32)
        locked.flags.writeable = False
        with pytest.raises(BufferContractError):
            as_byte_view(locked)

    def test_as_byte_view_rejects_strided_arrays(self):
        # reshape(-1) on a strided array copies: the write-back would
        # land in a temporary and vanish
        with pytest.raises(BufferContractError):
            as_byte_view(np.arange(16, dtype=np.float32)[::2])


# ---------------------------------------------------------------------------
# codec selection
# ---------------------------------------------------------------------------

class TestResolveCodec:

    def test_instance_passes_through(self):
        codec = OracleCodec()
        assert resolve_codec(codec, []) is codec

    def test_interpreted_by_name(self):
        # the runtime has one codec: the self-describing one is a test
        # oracle, not a selector
        with pytest.raises(ValueError):
            resolve_codec("interpreted", [])

    def test_specialized_default_loads_generated_tables(self):
        stack = build_stack("opencl")
        for selector in (None, "specialized"):
            codec = resolve_codec(selector, [stack])
            assert isinstance(codec, SpecializedCodec)
            assert codec.snapshot()["functions"] > 0

    def test_unknown_selector_rejected(self):
        with pytest.raises(ValueError):
            resolve_codec("turbo", [])

    def test_transport_defaults_to_router_codec(self):
        stack = VirtualStack.build("opencl")
        session = stack.add_vm("vm-codec")
        router = stack.hypervisor.router
        assert isinstance(router.codec, SpecializedCodec)
        transport = session.vm.driver.transport
        assert isinstance(transport, Transport)
        assert transport.codec is router.codec

    def test_transport_codec_override(self):
        oracle = OracleCodec()
        stack = VirtualStack.build("opencl", codec=oracle)
        session = stack.add_vm("vm-oracle")
        assert stack.hypervisor.router.codec is oracle
        assert session.vm.driver.transport.codec is oracle


# ---------------------------------------------------------------------------
# stack equivalence: the walker vs the oracle
# ---------------------------------------------------------------------------

def _vector_add(codec):
    from tests.test_end_to_end import full_vector_add

    stack = VirtualStack.build("opencl", codec=codec)
    session = stack.add_vm("vm-eq")
    cl = session.vm.library("opencl")
    a, b, c = full_vector_add(cl)
    return stack, session, (a + b, c)


class TestStackEquivalence:

    def test_specialized_matches_interpreted_end_to_end(self):
        fast_stack, fast_session, (expect_f, got_f) = \
            _vector_add("specialized")
        slow_stack, slow_session, (expect_s, got_s) = \
            _vector_add(OracleCodec())
        np.testing.assert_allclose(got_f, expect_f)
        np.testing.assert_allclose(got_s, expect_s)
        # virtual time is bit-identical: the codec changes how frames
        # are assembled, never what they cost or what they say
        assert fast_session.vm.time == slow_session.vm.time

    def test_workload_rides_the_fast_path(self):
        stack, session, _ = _vector_add("specialized")
        snap = stack.hypervisor.router.codec.snapshot()
        assert snap["fast_encodes"] > 0
        assert snap["fast_decodes"] > 0
        assert set(snap) == {"fast_encodes", "fast_decodes", "functions"}

    def test_figure5_sample_bit_identical(self):
        """The figure-5 measurement is invariant under codec choice."""
        from repro.harness import run_virtualized
        from repro.workloads import GaussianWorkload

        fast = run_virtualized(
            GaussianWorkload(scale=0.25), vm_id="vm-f",
            hypervisor=VirtualStack.build(
                "opencl", codec="specialized").hypervisor)
        slow = run_virtualized(
            GaussianWorkload(scale=0.25), vm_id="vm-s",
            hypervisor=VirtualStack.build(
                "opencl", codec=OracleCodec()).hypervisor)
        assert fast.runtime == slow.runtime
        assert fast.calls_sync == slow.calls_sync
        assert fast.calls_async == slow.calls_async


# ---------------------------------------------------------------------------
# hint-less decoding: a reply without outputs needs no reply_to
# ---------------------------------------------------------------------------

class TestHintlessDecode:

    def test_specialized_reply_decode_without_hint(self):
        codec = SpecializedCodec()
        codec.register_module(build_stack("opencl").codec_module)
        command = Command(seq=5, vm_id="vm-0", api="opencl",
                          function="clFinish",
                          handles={"queue": 7})
        from repro.remoting.codec import Reply

        reply = Reply(seq=5, return_value=0, complete_time=1.0)
        wire = codec.encode_reply(reply, reply_to=command)
        assert codec.decode_reply(wire) == reply
        assert codec.decode_reply(wire, reply_to=command) == reply

    def test_reply_with_outputs_needs_its_reply_to(self):
        from repro.remoting.codec import CodecError, Reply

        codec = SpecializedCodec()
        codec.register_module(build_stack("opencl").codec_module)
        read = Command(seq=6, vm_id="vm-0", api="opencl",
                       function="clEnqueueReadBuffer",
                       out_sizes={"ptr": 4})
        reply = Reply(seq=6, return_value=0, out_payloads={"ptr": b"abcd"},
                      complete_time=1.0)
        with pytest.raises(CodecError):
            codec.encode_reply(reply)
        wire = codec.encode_reply(reply, reply_to=read)
        with pytest.raises(CodecError):
            codec.decode_reply(wire)
        assert codec.decode_reply(wire, reply_to=read) == reply

    def test_abstract_base_refuses(self):
        codec = WireCodec()
        with pytest.raises(NotImplementedError):
            codec.encode_command(None)
