"""Marshaling: the generated walker vs the interpreted oracle.

The generated codec's pitch is mechanical: per-function tables replace
per-field tag dispatch, one frame allocation replaces the wire-dict
intermediate, and large payloads splice into the frame as views
instead of copies.  This bench prices that on a workload-shaped
message mix (the commands and replies of three shipped APIs, small
control messages through multi-KiB tensor uploads, with the NULL-
pointer subset shapes real workloads send in about their measured
proportion) and asserts the headline: the specialized codec sustains
at least **2x** the round-trip rate of the self-describing codec that
interprets the same format field by field (``tests/wire_oracle.py``,
the parity suite's oracle; the runtime has no other codec).

The wall-clock numbers land in ``BENCH_codec.json``; byte identity is
*not* re-proven here (that is ``tests/test_codec_parity.py``'s job) —
a single checksum comparison guards against benching divergent codecs.

A ``refs`` section prices the frames the transfer cache and the tracer
add: the observatory's ``managed`` batch (32 async commands, one of them
a 64 KiB write elided to a cached ref) and a traced synchronous call,
each with its reply.  Both must ride the fast path too.

A ``chatty`` section prices the observatory's per-call workload: its
four calls (``clSetKernelArg`` x2, a launch with NULL offset, local size
and event, ``clFinish``) with their plain replies, as the round-trip
race and as microseconds per codec operation — the codec layer of one
``chatty`` call — encode and decode of commands and of replies apiece,
over the mix and per function (the set-arg and finish commands are
plain runs, the launch walks).

A bulk-shaped section prices the other end of the data path:
one 64 KiB / 1 MiB / 4 MiB write command and read reply per codec,
encode + decode nanoseconds per payload byte, and whether the decoded
payload is the input's memory (borrowed) or a copy of it.

``test_gate``, ``test_chatty_gate`` and ``test_bulk_gate`` at the bottom
are fixture-free on purpose: CI runs them without pytest-benchmark and
fails the job when the speedup on the workload or ``managed`` mix falls
under 2x, on the ``chatty`` mix under :data:`CHATTY_GATE`, or when the
specialized round trip of the 4 MiB pair allocates a payload's worth of
memory.  Run it from the repository root (it imports the oracle from
``tests``).
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import replace

import numpy as np

from repro.remoting.buffers import borrow_bytes
from repro.remoting.codec import Command, CommandBatch, Reply, ReplyBatch
from repro.remoting.speccodec import SpecializedCodec
from repro.remoting.wire import frame_bytes
from repro.stack import build_stack
from tests.wire_oracle import OracleCodec

from conftest import print_table

APIS = ("opencl", "mvnc", "qat")

#: payload sizes straddling the splice threshold (512 B): chatty
#: control traffic, a typical argument blob, a tensor-sized upload
PAYLOAD_SIZES = (48, 600, 4096)


def _specialized() -> SpecializedCodec:
    codec = SpecializedCodec()
    for api in APIS:
        codec.register_module(build_stack(api).codec_module)
    return codec


#: extra messages for the functions whose callers pass NULL pointers:
#: the generated stub omits a NULL parameter, so the frame carries an
#: in-order *subset* of the layout.  Counted on the observatory
#: workloads, such frames are 33 % of ``chatty`` command decodes
#: (launches with NULL offset and local size), 41 % of ``bulk``
#: (transfers with a NULL ``event``) and 18 % of figure 5 (see
#: docs/cost-model.md).  Each tuple names the parameters
#: one extra message leaves out: one launch in three goes without
#: offset and local size, half the transfers without ``event``.
MEASURED_SUBSETS = {
    "clEnqueueNDRangeKernel": (
        (), ("global_work_offset", "local_work_size", "event")),
    "clEnqueueWriteBuffer": (("event",),),
    "clEnqueueReadBuffer": (("event",),),
}


def _without(message, omitted):
    """A copy of a Command/Reply with the ``omitted`` parameters NULL."""
    sections = {
        field: {name: value for name, value in section.items()
                if name not in omitted}
        for field, section in vars(message).items()
        if isinstance(section, dict)
    }
    return replace(message, **sections)


def _message_mix():
    """(command, reply) pairs shaped like real forwarded traffic."""
    pairs = []
    for api in APIS:
        layout = build_stack(api).codec_module.LAYOUT
        for index, fn in enumerate(sorted(layout)):
            lay = layout[fn]
            size = PAYLOAD_SIZES[index % len(PAYLOAD_SIZES)]
            command = Command(
                seq=index, vm_id="vm-bench", api=api, function=fn,
                mode="sync" if index % 2 else "async",
                scalars={
                    name: (1.5 if kind == "float"
                           else "src" if kind == "str"
                           else [1, 2, 3] if kind == "ints" else 7)
                    for name, kind in lay["scalars"].items()
                },
                handles={
                    name: ([0x1000 + index, 0x1001 + index]
                           if kind == "ints" else 0x1000 + index)
                    for name, kind in lay["handles"].items()
                },
                in_buffers={name: bytes(size)
                            for name in lay["inbufs"]},
                out_sizes={name: size for name in lay["outsz"]},
                issue_time=0.5 * index,
            )
            new_names = list(lay["new"])
            if lay["ret"] == "handle":
                new_names.append("__ret__")
            reply = Reply(
                seq=index,
                return_value=0 if lay["ret"] == "scalar" else None,
                out_payloads={name: bytes(size)
                              for name in lay["outs"]},
                out_scalars={name: 3 for name in lay["oscal"]},
                new_handles={name: 0x2000 + index
                             for name in new_names},
                complete_time=0.5 * index + 0.25,
            )
            pairs.append((command, reply))
            pairs.extend(
                (_without(command, omitted), _without(reply, omitted))
                for omitted in MEASURED_SUBSETS.get(fn, ()))
    return pairs


def _ref_mix():
    """(frame, reply) pairs shaped like ``managed`` traffic.

    One coalesced batch as the poke stream flushes it — a 64 KiB
    ``clEnqueueWriteBuffer`` whose payload the cache elided to a ref,
    then ``clSetKernelArg`` x2 + ``clEnqueueNDRangeKernel`` over and
    over, 32 commands — and one traced blocking ``clFinish``.
    """
    commands = [Command(
        seq=0, vm_id="vm0", api="opencl", function="clEnqueueWriteBuffer",
        mode="async",
        scalars={"blocking_write": 0, "offset": 0, "size": 65536,
                 "num_events_in_wait_list": 0},
        handles={"command_queue": 3, "buf": 4, "event_wait_list": None},
        cached_refs={"ptr": [bytes(range(16)), 65536, "buf"]},
        issue_time=0.5)]
    while len(commands) < 32:
        seq = len(commands)
        if seq % 3:
            commands.append(Command(
                seq=seq, vm_id="vm0", api="opencl", function="clSetKernelArg",
                mode="async", handles={"kernel": 5},
                scalars={"arg_index": seq % 3, "arg_size": 8,
                         "arg_value": 1000 + seq},
                issue_time=0.5 + seq))
        else:
            commands.append(Command(
                seq=seq, vm_id="vm0", api="opencl",
                function="clEnqueueNDRangeKernel", mode="async",
                scalars={"work_dim": 1, "global_work_size": [1],
                         "num_events_in_wait_list": 0},
                handles={"command_queue": 3, "kernel": 5,
                         "event_wait_list": None},
                issue_time=0.5 + seq))
    batch = CommandBatch(vm_id="vm0", commands=commands, flush_time=40.0)
    replies = ReplyBatch(
        replies=[Reply(seq=command.seq, return_value=0,
                       complete_time=41.0 + command.seq)
                 for command in commands],
        complete_time=80.0)
    finish = Command(seq=32, vm_id="vm0", api="opencl", function="clFinish",
                     handles={"command_queue": 3}, issue_time=81.0,
                     trace_id="trace-managed", span_id=4242)
    finished = Reply(seq=32, return_value=0, complete_time=82.0,
                     span_id=4243)
    return [(batch, replies), (finish, finished)]


def _chatty_mix():
    """(command, reply) pairs exactly as the observatory's ``chatty``
    stream sends them: ``clSetKernelArg`` x2, ``clEnqueueNDRangeKernel``
    with NULL offset, local size and event, and a blocking ``clFinish``,
    each answered by a plain reply (int return, nothing else)."""
    kernel, queue = 200937477, 200937475
    commands = [
        Command(seq=399, vm_id="vm0", api="opencl",
                function="clSetKernelArg", mode="async",
                scalars={"arg_index": 1, "arg_size": 8, "arg_value": 495},
                handles={"kernel": kernel}, issue_time=7.403e-4),
        Command(seq=400, vm_id="vm0", api="opencl",
                function="clSetKernelArg", mode="async",
                scalars={"arg_index": 2, "arg_size": 8,
                         "arg_value": 1839403214},
                handles={"kernel": kernel}, issue_time=7.410e-4),
        Command(seq=401, vm_id="vm0", api="opencl",
                function="clEnqueueNDRangeKernel", mode="async",
                scalars={"work_dim": 1, "global_work_size": [1],
                         "num_events_in_wait_list": 0},
                handles={"command_queue": queue, "kernel": kernel,
                         "event_wait_list": None},
                issue_time=7.418e-4),
        Command(seq=402, vm_id="vm0", api="opencl", function="clFinish",
                handles={"command_queue": queue}, issue_time=7.425e-4),
    ]
    return [(command, Reply(seq=command.seq, return_value=0,
                            complete_time=command.issue_time + 1.25e-6))
            for command in commands]


#: the four codec operations of one forwarded call, as a layer
OPERATIONS = ("encode_command", "decode_command", "encode_reply",
              "decode_reply")


def _per_operation_us(codec, pairs, repeats=5, rounds=2000):
    """Best-of-``repeats`` microseconds per call of each operation,
    averaged over ``pairs``."""
    frames = [(command, reply, codec.encode_command(command),
               codec.encode_reply(reply, reply_to=command))
              for command, reply in pairs]
    calls = {
        "encode_command": lambda c, r, w, rw: codec.encode_command(c),
        "decode_command": lambda c, r, w, rw: codec.decode_command(w),
        "encode_reply": lambda c, r, w, rw: codec.encode_reply(
            r, reply_to=c),
        "decode_reply": lambda c, r, w, rw: codec.decode_reply(
            rw, reply_to=c),
    }
    result = {}
    for name in OPERATIONS:
        call = calls[name]
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(rounds):
                for frame in frames:
                    call(*frame)
            best = min(best, time.perf_counter() - start)
        result[name] = best * 1e6 / (rounds * len(frames))
    return result


def _roundtrip_rate(codec, pairs, repeats=5, rounds=30):
    """Best-of-``repeats`` round trips/second over the message mix.

    One round trip = encode command + decode command + encode reply +
    decode reply, i.e. everything marshaling does for one forwarded
    call.  Best-of damps scheduler noise without pytest-benchmark.
    """
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(rounds):
            for command, reply in pairs:
                wire = codec.encode_command(command)
                codec.decode_command(wire)
                rwire = codec.encode_reply(reply, reply_to=command)
                codec.decode_reply(rwire, reply_to=command)
        elapsed = time.perf_counter() - start
        best = max(best, rounds * len(pairs) / elapsed)
    return best


def _checksum(codec, pairs):
    import hashlib

    digest = hashlib.blake2b(digest_size=16)
    for command, reply in pairs:
        digest.update(frame_bytes(codec.encode_command(command)))
        digest.update(frame_bytes(
            codec.encode_reply(reply, reply_to=command)))
    return digest.hexdigest()


def _measure():
    pairs = _message_mix()
    interp = OracleCodec()
    spec = _specialized()
    assert _checksum(spec, pairs) == _checksum(interp, pairs), \
        "codecs diverged on the bench mix; parity suite must be failing"
    interp_rate = _roundtrip_rate(interp, pairs)
    spec_rate = _roundtrip_rate(spec, pairs)
    snap = spec.snapshot()
    return pairs, interp_rate, spec_rate, snap


def _measure_refs():
    """The same race on :func:`_ref_mix` (a batch counts as one round
    trip); the snapshot is the specialized codec's over all of it."""
    pairs = _ref_mix()
    interp = OracleCodec()
    spec = _specialized()
    assert _checksum(spec, pairs) == _checksum(interp, pairs), \
        "codecs diverged on the ref mix; parity suite must be failing"
    interp_rate = _roundtrip_rate(interp, pairs, rounds=20)
    spec_rate = _roundtrip_rate(spec, pairs, rounds=20)
    return {
        "frames": len(pairs),
        "commands": sum(len(getattr(frame, "commands", [frame]))
                        for frame, _ in pairs),
        "interpreted_roundtrips_per_s": interp_rate,
        "specialized_roundtrips_per_s": spec_rate,
        "speedup": spec_rate / interp_rate,
        "fast_path": spec.snapshot(),
    }


def _measure_chatty():
    """The race on :func:`_chatty_mix`, plus each codec's microseconds
    per operation: the codec layer of one ``chatty`` call."""
    pairs = _chatty_mix()
    interp = OracleCodec()
    spec = _specialized()
    assert _checksum(spec, pairs) == _checksum(interp, pairs), \
        "codecs diverged on the chatty mix; parity suite must be failing"
    interp_rate = _roundtrip_rate(interp, pairs, rounds=300)
    spec_rate = _roundtrip_rate(spec, pairs, rounds=300)
    snap = spec.snapshot()
    return {
        "frames": len(pairs),
        "interpreted_roundtrips_per_s": interp_rate,
        "specialized_roundtrips_per_s": spec_rate,
        "speedup": spec_rate / interp_rate,
        "fast_path": snap,
        "us_per_operation": {
            "interpreted": _per_operation_us(interp, pairs),
            "specialized": _per_operation_us(spec, pairs),
        },
        "specialized_us_per_function": {
            function: _per_operation_us(
                spec, [pair for pair in pairs
                       if pair[0].function == function])
            for function in dict.fromkeys(
                command.function for command, _ in pairs)
        },
    }


#: the observatory's ``bulk`` transfer sizes
BULK_SIZES = (64 << 10, 1 << 20, 4 << 20)


def _bulk_pair(size):
    """A blocking write as the guest stub marshals it (the caller's
    array, borrowed) and a read-back's reply as the server stub does
    (its staging buffer)."""
    data = np.arange(size, dtype=np.uint32).astype(np.uint8)
    common = dict(
        vm_id="vm-bench", api="opencl", mode="sync", issue_time=0.5,
        handles={"command_queue": 3, "buf": 4, "event_wait_list": None})
    write = Command(
        seq=1, function="clEnqueueWriteBuffer",
        scalars={"blocking_write": 1, "offset": 0, "size": size,
                 "num_events_in_wait_list": 0},
        in_buffers={"ptr": borrow_bytes(data)}, **common)
    read = Command(
        seq=2, function="clEnqueueReadBuffer",
        scalars={"blocking_read": 1, "offset": 0, "size": size,
                 "num_events_in_wait_list": 0},
        out_sizes={"ptr": size}, **common)
    reply = Reply(seq=2, return_value=0,
                  out_payloads={"ptr": bytearray(data)}, complete_time=1.0)
    return write, read, reply


def _bulk_round_trip(codec, write, read, reply):
    """Both payloads as their consumers receive them."""
    command = codec.decode_command(codec.encode_command(write))
    answer = codec.decode_reply(codec.encode_reply(reply, reply_to=read),
                                reply_to=read)
    return command.in_buffers["ptr"], answer.out_payloads["ptr"]


def _measure_bulk(repeats=7):
    rows = []
    for size in BULK_SIZES:
        write, read, reply = _bulk_pair(size)
        for codec in (OracleCodec(), _specialized()):
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                got = _bulk_round_trip(codec, write, read, reply)
                best = min(best, time.perf_counter() - start)
            sent = (write.in_buffers["ptr"], reply.out_payloads["ptr"])
            assert [bytes(g) for g in got] == [bytes(s) for s in sent]
            rows.append({
                "payload_bytes": size, "codec": codec.name,
                "ns_per_byte": best * 1e9 / (2 * size),
                "aliases_input": all(
                    np.shares_memory(np.frombuffer(g, dtype=np.uint8),
                                     np.frombuffer(s, dtype=np.uint8))
                    for g, s in zip(got, sent)),
            })
    return rows


def _bulk_allocation(size):
    """Peak bytes the specialized round trip of one pair allocates."""
    codec = _specialized()
    write, read, reply = _bulk_pair(size)
    _bulk_round_trip(codec, write, read, reply)  # warm
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        _bulk_round_trip(codec, write, read, reply)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_codec_throughput(once, bench_json):
    pairs, interp_rate, spec_rate, snap = once(_measure)
    refs = _measure_refs()
    chatty = _measure_chatty()
    bulk = _measure_bulk()
    ratio = spec_rate / interp_rate

    print_table(
        "marshaling round-trip throughput (encode+decode, cmd+reply)",
        ["codec", "round trips/s", "speedup"],
        [
            ["interpreted", f"{interp_rate:,.0f}", "1.00x"],
            ["specialized", f"{spec_rate:,.0f}", f"{ratio:.2f}x"],
        ],
    )

    print_table(
        "managed-shaped frames: cached ref + trace context (round trips)",
        ["codec", "round trips/s", "speedup"],
        [
            ["interpreted", f"{refs['interpreted_roundtrips_per_s']:,.0f}",
             "1.00x"],
            ["specialized", f"{refs['specialized_roundtrips_per_s']:,.0f}",
             f"{refs['speedup']:.2f}x"],
        ],
    )

    print_table(
        "chatty frames: one call's four operations, plain replies (us)",
        ["codec", *OPERATIONS, "speedup"],
        [[name, *(f"{per_op[op]:.2f}" for op in OPERATIONS),
          "1.00x" if name == "interpreted" else f"{chatty['speedup']:.2f}x"]
         for name, per_op in chatty["us_per_operation"].items()],
    )

    print_table(
        "chatty frames by function, specialized (us per operation)",
        ["function", *OPERATIONS],
        [[function, *(f"{per_op[op]:.2f}" for op in OPERATIONS)]
         for function, per_op
         in chatty["specialized_us_per_function"].items()],
    )

    print_table(
        "bulk write command + read reply (encode+decode)",
        ["payload", "codec", "ns/byte", "decoded payload"],
        [[f"{row['payload_bytes'] >> 10} KiB", row["codec"],
          f"{row['ns_per_byte']:.4f}",
          "borrowed" if row["aliases_input"] else "copied"]
         for row in bulk],
    )

    bench_json("codec", {
        "figure": "codec",
        "bulk": bulk,
        "messages": len(pairs),
        "apis": list(APIS),
        "payload_sizes": list(PAYLOAD_SIZES),
        "interpreted_roundtrips_per_s": interp_rate,
        "specialized_roundtrips_per_s": spec_rate,
        "speedup": ratio,
        "fast_path": snap,
        "refs": refs,
        "chatty": chatty,
    })

    assert ratio >= 2.0, f"specialized only {ratio:.2f}x interpreted"
    _assert_walked(snap, 2 * len(pairs))
    _assert_refs_fast(refs)
    _assert_chatty_fast(chatty)
    assert all(row["aliases_input"] == (row["codec"] == "specialized")
               for row in bulk)


def test_gate():
    """CI gate, fixture-free on purpose (runs without pytest-benchmark).

    Fails when the specialized codec cannot sustain 2x the interpreted
    round-trip rate on the workload-shaped mix or on the ref-carrying
    ``managed`` mix, or when its snapshot stops counting every frame
    of either as one walk.
    """
    pairs, interp_rate, spec_rate, snap = _measure()
    ratio = spec_rate / interp_rate
    print(f"\ncodec gate: interpreted {interp_rate:,.0f} rt/s, "
          f"specialized {spec_rate:,.0f} rt/s ({ratio:.2f}x)")
    assert ratio >= 2.0, f"specialized only {ratio:.2f}x interpreted"
    _assert_walked(snap, 2 * len(pairs))
    refs = _measure_refs()
    print(f"refs gate: {refs['speedup']:.2f}x on managed-shaped frames")
    _assert_refs_fast(refs)


#: the ``chatty`` mix's round-trip speedup over the oracle as recorded
#: in BENCH_codec.json when its set-arg and finish commands became one
#: ``struct`` run too (3.72x; 3.22x with plain replies only, 2.46x
#: before them), less a 20 % margin for a busy host
CHATTY_GATE = 2.97


def test_chatty_gate():
    """CI gate, fixture-free: the walker's round trip of the observatory's
    ``chatty`` call mix stays at :data:`CHATTY_GATE` times the oracle's,
    every frame one walk."""
    chatty = _measure_chatty()
    walker = chatty["us_per_operation"]["specialized"]
    print(f"\nchatty gate: {chatty['speedup']:.2f}x the oracle; walker "
          + ", ".join(f"{op} {walker[op]:.2f} us" for op in OPERATIONS))
    _assert_chatty_fast(chatty)


def _assert_chatty_fast(chatty):
    assert chatty["speedup"] >= CHATTY_GATE, \
        f"chatty frames only {chatty['speedup']:.2f}x interpreted"
    _assert_walked(chatty["fast_path"], 2 * chatty["frames"])


def _assert_walked(snap, frames_per_round):
    """The snapshot the observatory reads: its three keys, and every
    frame of the mix counted — whole round trips, plus the checksum's
    one encode of each."""
    assert set(snap) == {"fast_encodes", "fast_decodes", "functions"}
    assert snap["functions"] > 0
    assert snap["fast_decodes"] > 0
    assert snap["fast_decodes"] % frames_per_round == 0
    assert snap["fast_encodes"] == snap["fast_decodes"] + frames_per_round


def _assert_refs_fast(refs):
    assert refs["speedup"] >= 2.0, \
        f"ref-carrying frames only {refs['speedup']:.2f}x interpreted"
    _assert_walked(refs["fast_path"], 2 * refs["frames"])


def test_bulk_gate():
    """CI gate, fixture-free: the specialized round trip of the 4 MiB
    write command + read reply borrows its payloads end to end — it
    allocates less than one payload (headers only, in fact)."""
    size = BULK_SIZES[-1]
    peak = _bulk_allocation(size)
    print(f"\nbulk gate: {size >> 20} MiB pair allocates {peak:,} B")
    assert peak < size, f"round trip allocated {peak} B for {size} B"
