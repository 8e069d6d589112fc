"""The copy budget of the data path: two copies per direction.

The rule under test (``repro.remoting.buffers``): a payload at or above
the splice threshold is *borrowed* from the guest stub to device memory
and from the server stub's staging buffer to the caller's out-buffer;
only what outlives the call (the migration log, the transfer store)
holds a copy, and with the cache armed the log keeps the store's.  A
written byte is copied twice (device memory, log), a read byte twice
(device → staging, staging → caller).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro.opencl.api as native
from repro.opencl import types
from repro.remoting.speccodec import _SPLICE_THRESHOLD
from repro.remoting.wire import WireFrame
from repro.remoting.xfercache import CachePolicy
from repro.stack import VirtualStack
from repro.workloads.base import open_env
from tests.wire_oracle import OracleCodec

MIB = 1 << 20
TRANSPORTS = ("inproc", "ring", "network")


def payload_of(size, salt=0):
    return ((np.arange(size, dtype=np.uint32) * 2654435761 + salt) >> 7
            ).astype(np.uint8)


class Probe:
    """What crossed each boundary of one stack, observed in place."""

    def __init__(self, monkeypatch, transport="inproc", codec="specialized",
                 cache_policy=None):
        self.stack = VirtualStack.build("opencl", codec=codec)
        self.session = self.stack.add_vm("vm-dp", transport=transport,
                                         cache_policy=cache_policy)
        self.env = open_env(self.session.lib)
        self.written = []   # ptr arguments of native clEnqueueWriteBuffer
        self.staging = []   # ptr arguments of native clEnqueueReadBuffer
        self.replies = []   # frames Router.deliver returned

        real_write = native.clEnqueueWriteBuffer
        real_read = native.clEnqueueReadBuffer
        router_deliver = self.stack.router.deliver

        def write(queue, mem, blocking, offset, size, ptr, *rest):
            self.written.append(ptr)
            return real_write(queue, mem, blocking, offset, size, ptr, *rest)

        def read(queue, mem, blocking, offset, size, ptr, *rest):
            self.staging.append(ptr)
            return real_read(queue, mem, blocking, offset, size, ptr, *rest)

        def deliver(wire, arrival, source=None):
            reply = router_deliver(wire, arrival, source=source)
            self.replies.append(reply)
            return reply

        monkeypatch.setattr(native, "clEnqueueWriteBuffer", write)
        monkeypatch.setattr(native, "clEnqueueReadBuffer", read)
        monkeypatch.setattr(self.stack.router, "deliver", deliver)

    def round_trip(self, data):
        """Blocking write of ``data`` then a blocking read-back."""
        mem = self.env.buffer(max(data.nbytes, 1))
        self.env.write(mem, data)
        return mem, self.env.read(mem, data.nbytes, dtype=np.uint8)

    def logged_payloads(self):
        log = self.stack.router.vms["vm-dp"].logs["opencl"]
        return [chunk for entry in log.log
                for chunk in entry.command.in_buffers.values()]


def shares(chunk, array):
    return np.shares_memory(np.frombuffer(chunk, dtype=np.uint8), array)


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestBorrowedBothWays:
    def test_write_is_borrowed_to_the_native_call_and_owned_by_the_log(
            self, monkeypatch, transport):
        probe = Probe(monkeypatch, transport)
        data = payload_of(4 * MIB)
        _, got = probe.round_trip(data)
        assert np.array_equal(got, data)
        # (i) the native call read the caller's own memory
        assert shares(probe.written[-1], data)
        # (ii) the log holds bytes of its own
        (logged,) = [c for c in probe.logged_payloads()
                     if len(c) == data.nbytes]
        assert type(logged) is bytes and logged == data.tobytes()
        assert not shares(logged, data)

    def test_cached_write_is_held_once(self, monkeypatch, transport):
        """With the cache armed, the store's copy is the one the native
        call reads and the log keeps."""
        probe = Probe(monkeypatch, transport, cache_policy=CachePolicy())
        data = payload_of(4 * MIB)
        _, got = probe.round_trip(data)
        assert np.array_equal(got, data)
        (logged,) = [c for c in probe.logged_payloads()
                     if len(c) == data.nbytes]
        store = probe.stack.hypervisor.router.vms["vm-dp"].store
        (stored,) = store._entries.values()
        assert logged is stored and probe.written[-1] is stored
        assert type(stored) is bytes and stored == data.tobytes()
        assert not shares(stored, data)

    def test_reply_frame_carries_the_staging_buffer_by_reference(
            self, monkeypatch, transport):
        probe = Probe(monkeypatch, transport)
        data = payload_of(4 * MIB, salt=3)
        _, got = probe.round_trip(data)
        assert np.array_equal(got, data)
        # (iii) vectored reply: inline run, staging buffer, inline run
        frame, staging = probe.replies[-1], probe.staging[-1]
        assert isinstance(frame, WireFrame) and len(frame.segments) == 3
        assert frame.segments[1].obj is staging
        oracle = OracleCodec()
        assert bytes(frame) == oracle.encode_reply(
            oracle.decode_reply(bytes(frame)))

    def test_sizes_around_the_threshold_round_trip_alike(
            self, monkeypatch, transport):
        probe = Probe(monkeypatch, transport)
        for size in (0, _SPLICE_THRESHOLD - 1, _SPLICE_THRESHOLD,
                     _SPLICE_THRESHOLD + 1):
            data = payload_of(size, salt=size)
            _, got = probe.round_trip(data)
            assert got.tobytes() == data.tobytes(), size
            borrowed = size >= _SPLICE_THRESHOLD
            assert isinstance(probe.replies[-1], WireFrame) == borrowed
            if size:
                assert shares(probe.written[-1], data) == borrowed, size


def test_interpreted_codec_returns_the_same_bytes_by_copying(monkeypatch):
    probe = Probe(monkeypatch, codec=OracleCodec())
    data = payload_of(4 * MIB, salt=5)
    _, got = probe.round_trip(data)
    assert np.array_equal(got, data)
    assert not shares(probe.written[-1], data)
    assert type(probe.replies[-1]) is bytes


def test_strided_arrays_still_cost_their_one_copy(monkeypatch):
    probe = Probe(monkeypatch)
    data = payload_of(2 * MIB)[::2]
    _, got = probe.round_trip(data)
    assert np.array_equal(got, data)
    assert not shares(probe.written[-1], data)


def test_write_plus_read_back_peaks_under_two_and_a_half_payloads(
        monkeypatch):
    """(iv) the migration log's copy and the staging buffer are the
    only payload-sized allocations of the pair (≈ 5 × before payloads
    were borrowed)."""
    probe = Probe(monkeypatch)
    data = payload_of(4 * MIB, salt=7)
    out = np.zeros_like(data)
    env = probe.env
    mem = env.buffer(data.nbytes)
    env.write(mem, data)  # warm: first-use allocations are not the pair's
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        env.write(mem, data)
        assert env.cl.clEnqueueReadBuffer(
            env.queue, mem, types.CL_TRUE, 0, out.nbytes, out,
            0, None, None) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(out, data)
    assert peak - before <= 2.5 * data.nbytes
