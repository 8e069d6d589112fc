"""Async command coalescing: policy, codec framing, flush semantics.

The contract under test (docs/cost-model.md, "Batch pricing"): with a
:class:`BatchPolicy` armed, async commands queue guest-side and cross
the channel as one :class:`CommandBatch` frame — flushed at sync
points, at queue thresholds, or when a call needs its reply leg — and
the router unbundles them through the ordinary verification/policy
path, in order.  With no policy (or ``enabled=False``), virtual-time
results are bit-identical to per-call async forwarding.
"""

import numpy as np
import pytest

from repro.faults import FaultPlan
from repro.faults.chaos import run_chaos
from repro.guest.batching import BatchPolicy
from repro.guest.driver import GuestDriver
from repro.guest.library import GuestRuntime, RemotingError
from repro.hypervisor.router import Router, RoutingInfo, RoutingTable
from repro.remoting.codec import (
    CodecError,
    Command,
    CommandBatch,
    Reply,
    ReplyBatch,
)
from repro.stack import VirtualStack
from repro.telemetry import Tracer
from repro.telemetry import tracer as tele
from repro.transport.base import BatchDeliveryResult
from repro.workloads import GaussianWorkload, NWWorkload
from repro.workloads.base import close_env, open_env
from tests.wire_oracle import (
    ORACLE,
    decode_message,
    encode_message,
    from_wire_dict,
    raw_frame,
    to_wire_dict,
    walker,
)

SMALL = 0.06


def batched_session(vm_id="vm-bat", policy=None, **kwargs):
    stack = VirtualStack.build("opencl")
    session = stack.add_vm(vm_id, batch_policy=policy or BatchPolicy(),
                           **kwargs)
    return stack, session


class TestBatchPolicy:
    def test_defaults(self):
        policy = BatchPolicy()
        assert policy.enabled
        assert policy.max_commands >= 2
        assert policy.max_bytes > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_commands=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_bytes=-1)
        with pytest.raises(ValueError):
            BatchPolicy(queue_cost=-1e-9)

    def test_frozen(self):
        with pytest.raises(Exception):
            BatchPolicy().max_commands = 5


#: the runtime's decoder, holding the generated opencl tables
WALKER = walker("opencl")


def _refused(frame, reply_to=None):
    """Both the oracle and the walker the router runs refuse ``frame``
    (a reply batch walked against the batch it answers)."""
    with pytest.raises(CodecError):
        decode_message(frame)
    with pytest.raises(CodecError):
        if reply_to is None:
            WALKER.decode_command(frame)
        else:
            WALKER.decode_reply(frame, reply_to=reply_to)


class TestBatchCodec:
    def make_batch(self, n=3):
        commands = [
            Command(seq=i, vm_id="vm-c", api="opencl",
                    function="clEnqueueWriteBuffer", mode="async",
                    scalars={"blocking_write": 0, "offset": 4 * i,
                             "size": 4, "num_events_in_wait_list": 0},
                    handles={"command_queue": 3, "buf": 4},
                    in_buffers={"ptr": bytes([i]) * 4})
            for i in range(n)
        ]
        return CommandBatch(vm_id="vm-c", commands=commands, flush_time=1.5)

    def test_command_batch_round_trip(self):
        batch = self.make_batch()
        again = decode_message(encode_message(batch))
        assert isinstance(again, CommandBatch)
        assert again == batch
        assert len(again) == 3

    def test_reply_batch_round_trip(self):
        batch = ReplyBatch(
            replies=[Reply(seq=i, return_value=0) for i in range(3)],
            complete_time=2.5,
        )
        again = decode_message(encode_message(batch))
        assert isinstance(again, ReplyBatch)
        assert again == batch

    def test_distinct_magics(self):
        cmd_wire = encode_message(self.make_batch())
        rep_wire = encode_message(ReplyBatch(replies=[Reply(seq=1)]))
        assert cmd_wire[:2] != rep_wire[:2]
        assert cmd_wire[:2] != encode_message(
            Command(seq=1, vm_id="v", api="a", function="f"))[:2]

    def test_payload_bytes_summed(self):
        assert self.make_batch(3).payload_bytes() == 12

    def test_walker_takes_the_undamaged_frames(self):
        batch = self.make_batch()
        assert WALKER.decode_command(encode_message(batch)) == batch
        reply_to = self.make_batch(1)
        replies = ReplyBatch(replies=[Reply(seq=0, return_value=0)],
                             complete_time=2.5)
        assert WALKER.decode_reply(encode_message(replies),
                                   reply_to=reply_to) == replies

    def test_empty_batch_rejected(self):
        wire_dict = {"vm": "v", "cmds": [], "t": 0.0}
        with pytest.raises(CodecError, match="no commands"):
            from_wire_dict(CommandBatch, wire_dict)
        _refused(raw_frame(CommandBatch, wire_dict))

    def test_non_dict_entry_rejected(self):
        wire_dict = {"vm": "v", "cmds": ["not-a-dict"], "t": 0.0}
        with pytest.raises(CodecError, match="wire type"):
            from_wire_dict(CommandBatch, wire_dict)
        _refused(raw_frame(CommandBatch, wire_dict))
        wire_dict = {"replies": [17], "t": 0.0}
        with pytest.raises(CodecError, match="wire type"):
            from_wire_dict(ReplyBatch, wire_dict)
        _refused(raw_frame(ReplyBatch, wire_dict),
                 reply_to=self.make_batch(1))

    def test_missing_fields_rejected(self):
        with pytest.raises(CodecError, match="missing field"):
            from_wire_dict(CommandBatch, {"vm": "v"})
        _refused(raw_frame(CommandBatch, {"vm": "v"}))
        with pytest.raises(CodecError, match="missing field"):
            from_wire_dict(ReplyBatch, {"t": 0.0})
        _refused(raw_frame(ReplyBatch, {"t": 0.0}),
                 reply_to=self.make_batch(1))

    def test_systematically_truncated_batch_frames(self):
        wire = encode_message(self.make_batch())
        for cut in range(len(wire)):
            _refused(wire[:cut])

    def test_malformed_inner_command_rejected(self):
        wire_dict = to_wire_dict(self.make_batch(2))
        del wire_dict["cmds"][1]["fn"]
        with pytest.raises(CodecError):
            from_wire_dict(CommandBatch, wire_dict)
        _refused(raw_frame(CommandBatch, wire_dict))


class ScriptedBatchTransport:
    """Transport double recording batches, with programmable outcomes."""

    def __init__(self, results=None):
        self.batches = []
        self.sent = []
        self.results = list(results or [])

    def deliver(self, command, guest_now, asynchronous=False):
        from repro.transport.base import DeliveryResult

        self.sent.append(command)
        return DeliveryResult(
            reply=Reply(seq=command.seq, return_value=0),
            sent_at=guest_now + 1e-6,
            completed_at=guest_now + 5e-6,
            reply_cost=1e-6,
        )

    def deliver_batch(self, batch, guest_now):
        self.batches.append(batch)
        if self.results:
            return self.results.pop(0)
        return BatchDeliveryResult(
            replies=[Reply(seq=c.seq, return_value=0)
                     for c in batch.commands],
            sent_at=guest_now + 1e-6,
            completed_at=guest_now + 5e-6,
        )


def make_runtime(policy=None, results=None):
    transport = ScriptedBatchTransport(results)
    driver = GuestDriver("vm-t", transport)
    runtime = GuestRuntime(driver, "testapi",
                           batch_policy=policy or BatchPolicy())
    return runtime, transport, driver


def submit(runtime, mode="async", out_targets=None, ret_kind="scalar",
           success=0, **kwargs):
    return runtime.submit(
        "fn", mode,
        kwargs.get("scalars", {}),
        kwargs.get("handles", {}),
        kwargs.get("in_buffers", {}),
        kwargs.get("out_sizes", {}),
        out_targets or {},
        ret_kind=ret_kind,
        success=success,
    )


class TestFlushTriggers:
    def test_async_calls_queue_without_touching_channel(self):
        runtime, transport, _ = make_runtime()
        for _ in range(3):
            assert submit(runtime) == 0
        assert transport.batches == []
        assert transport.sent == []
        assert len(runtime._queue) == 3

    def test_sync_call_flushes_queue_first(self):
        runtime, transport, _ = make_runtime()
        submit(runtime)
        submit(runtime)
        submit(runtime, mode="sync")
        assert len(transport.batches) == 1
        assert len(transport.batches[0]) == 2
        # queued work crosses the channel ahead of the blocking call
        assert transport.sent[0].mode == "sync"
        assert runtime.batches_flushed == 1
        assert runtime.commands_coalesced == 2

    def test_command_threshold_flushes(self):
        runtime, transport, _ = make_runtime(BatchPolicy(max_commands=4))
        for _ in range(4):
            submit(runtime)
        assert len(transport.batches) == 1
        assert len(transport.batches[0]) == 4
        assert runtime._queue == []

    def test_byte_threshold_flushes(self):
        runtime, transport, _ = make_runtime(BatchPolicy(max_bytes=64))
        submit(runtime, in_buffers={"d": b"x" * 32})
        assert transport.batches == []
        submit(runtime, in_buffers={"d": b"y" * 40})
        assert len(transport.batches) == 1

    def test_output_bearing_call_takes_reply_leg(self):
        runtime, transport, _ = make_runtime()
        submit(runtime)
        target = bytearray(4)
        submit(runtime, out_targets={"p": ("buffer", target)},
               out_sizes={"p": 4})
        # both the parked call and the output-bearing one flushed now
        assert len(transport.batches) == 1
        assert len(transport.batches[0]) == 2

    def test_explicit_flush(self):
        runtime, transport, _ = make_runtime()
        submit(runtime)
        runtime.flush()
        assert len(transport.batches) == 1
        runtime.flush()  # empty queue: no extra frame
        assert len(transport.batches) == 1

    def test_in_order_within_batch(self):
        runtime, transport, _ = make_runtime()
        for i in range(3):
            submit(runtime, scalars={"i": i})
        runtime.flush()
        sequence = [c.scalars["i"] for c in transport.batches[0].commands]
        assert sequence == [0, 1, 2]

    def test_disabled_policy_takes_per_call_path(self):
        runtime, transport, _ = make_runtime(BatchPolicy(enabled=False))
        submit(runtime)
        assert transport.batches == []
        assert len(transport.sent) == 1


class TestDeferredErrors:
    def test_batched_error_surfaces_at_next_sync(self):
        result = BatchDeliveryResult(
            replies=[Reply(seq=1, return_value=-48)],
            sent_at=1e-6, completed_at=5e-6,
        )
        runtime, _, _ = make_runtime(results=[result])
        assert submit(runtime) == 0  # async success, §4.2
        assert submit(runtime, mode="sync") == -48

    def test_lost_batch_is_an_infra_error(self):
        result = BatchDeliveryResult(sent_at=1e-6, completed_at=200e-6,
                                     timed_out=True)
        runtime, _, _ = make_runtime(results=[result])
        submit(runtime)
        runtime.flush()
        assert runtime.pending_async_error == -1001.0
        assert submit(runtime, mode="sync") == -1001.0
        # delivered exactly once
        assert submit(runtime, mode="sync") == 0

    def test_error_does_not_stop_later_commands(self):
        result = BatchDeliveryResult(
            replies=[Reply(seq=1, return_value=-48),
                     Reply(seq=2, return_value=0,
                           out_payloads={"p": b"\x07" * 4})],
            sent_at=1e-6, completed_at=5e-6,
        )
        runtime, _, _ = make_runtime(BatchPolicy(max_commands=2),
                                     results=[result])
        submit(runtime)
        target = bytearray(4)
        submit(runtime, out_targets={"p": ("buffer", target)},
               out_sizes={"p": 4})
        # the second command's outputs landed despite the first failing
        assert target == b"\x07" * 4
        assert submit(runtime, mode="sync") == -48

    def test_short_reply_batch_treated_as_frame_loss(self):
        result = BatchDeliveryResult(
            replies=[Reply(seq=1, return_value=0)],  # 1 reply, 2 staged
            sent_at=1e-6, completed_at=5e-6,
        )
        runtime, _, _ = make_runtime(results=[result])
        submit(runtime)
        submit(runtime)
        runtime.flush()
        assert runtime.pending_async_error == -1001.0


class TestUnencodableArgument:
    """An argument the wire cannot carry (an index past int64) fails the
    call it belongs to, as a remoting failure: raised by that call's
    stub when it crosses alone, and as the failed batch's deferred
    error when it was staged — never a raw CodecError out of a later
    call, never a silently dropped queue."""

    SRC = ("__kernel void vector_scale(__global float* x, float alpha, "
           "int n) {}")

    def _kernel(self, **kwargs):
        stack = VirtualStack.build("opencl")
        session = stack.add_vm("vm-wide", **kwargs)
        env = open_env(session.lib)
        kernel = env.kernel(env.program(self.SRC), "vector_scale")
        hv = stack.hypervisor
        return session, env, kernel, hv.router.metrics_for("vm-wide")

    def test_staged_argument_fails_its_batch(self):
        session, env, kernel, routed = self._kernel(
            batch_policy=BatchPolicy())
        cl, runtime = session.lib, session.runtime()
        before = routed.commands
        assert cl.clSetKernelArg(kernel, 1, 8, 7) == 0
        assert cl.clSetKernelArg(kernel, 2 ** 64, 8, 5) == 0
        # the sync point flushes the queue: its frame cannot be encoded,
        # so the whole batch failed and that is the error delivered
        assert cl.clFinish(env.queue) == -1001.0
        assert runtime.batches_flushed == 1
        assert runtime.commands_coalesced == 2
        assert runtime.pending_async_error is None
        # nothing of the batch reached the router; the clFinish did
        assert routed.commands == before + 1
        assert cl.clFinish(env.queue) == 0

    def test_lone_argument_raises_from_its_stub(self):
        session, env, kernel, routed = self._kernel()
        before = routed.commands
        with pytest.raises(RemotingError, match="^clSetKernelArg: "):
            session.lib.clSetKernelArg(kernel, 2 ** 64, 8, 5)
        assert routed.commands == before
        assert session.lib.clFinish(env.queue) == 0


class TestRouterUnbundling:
    def make_router(self):
        replies = []

        class Worker:
            def execute(self, command, release, batched=False):
                replies.append((command.seq, release, batched))
                return Reply(seq=command.seq, return_value=0,
                             complete_time=release + 1e-6)

        router = Router(lambda vm, api: Worker(), ORACLE)
        table = RoutingTable(api="testapi")
        table.functions["doWork"] = RoutingInfo(name="doWork")
        router.register_api(table)
        router.register_vm("vm1")
        return router, replies

    def make_batch(self, n, vm="vm1"):
        return CommandBatch(
            vm_id=vm,
            commands=[Command(seq=i, vm_id=vm, api="testapi",
                              function="doWork", mode="async")
                      for i in range(n)],
        )

    def test_unbundled_in_order_with_single_reply_batch(self):
        router, executed = self.make_router()
        wire = router.deliver(encode_message(self.make_batch(3)), 1.0)
        decoded = decode_message(wire)
        assert isinstance(decoded, ReplyBatch)
        assert [r.seq for r in decoded.replies] == [0, 1, 2]
        # in-order release: each command no earlier than its predecessor
        releases = [entry[1] for entry in executed]
        assert releases == sorted(releases)
        assert decoded.complete_time >= releases[-1]

    def test_first_command_pays_full_dispatch(self):
        router, executed = self.make_router()
        router.deliver(encode_message(self.make_batch(3)), 0.0)
        assert [entry[2] for entry in executed] == [False, True, True]

    def test_per_command_accounting(self):
        router, _ = self.make_router()
        router.deliver(encode_message(self.make_batch(5)), 0.0)
        assert router.metrics_for("vm1").commands == 5

    def test_inner_rejections_are_per_command(self):
        router, _ = self.make_router()
        batch = self.make_batch(2)
        batch.commands[1].function = "sneaky"
        decoded = decode_message(
            router.deliver(encode_message(batch), 0.0))
        assert decoded.replies[0].error is None
        assert "does not route" in decoded.replies[1].error
        assert router.metrics_for("vm1").rejected == 1

    def test_oversized_batch_rejected_wholesale(self):
        router, executed = self.make_router()
        router.max_batch_commands = 4
        decoded = decode_message(
            router.deliver(encode_message(self.make_batch(5)), 0.0))
        assert isinstance(decoded, Reply)
        assert "exceeds limit" in decoded.error
        assert router.oversized_batches == 1
        assert not executed

    def test_unknown_vm_batch_rejected_per_command(self):
        router, executed = self.make_router()
        decoded = decode_message(
            router.deliver(encode_message(self.make_batch(2, vm="evil")),
                           0.0))
        assert isinstance(decoded, ReplyBatch)
        assert all("unknown VM" in r.error for r in decoded.replies)
        assert not executed


class TestEndToEnd:
    def test_workload_outputs_identical_with_batching(self):
        _, plain = batched_session("vm-pln", BatchPolicy(enabled=False))
        _, batched = batched_session("vm-bat")
        workload = NWWorkload(scale=SMALL)
        base = workload.run(plain.lib)
        out = workload.run(batched.lib)
        assert base.verified and out.verified
        for key, value in base.outputs.items():
            assert np.array_equal(value, out.outputs[key]), key

    def test_fewer_frames_same_commands(self):
        _, plain = batched_session("vm-fa", BatchPolicy(enabled=False))
        _, batched = batched_session("vm-fb")
        workload = GaussianWorkload(scale=SMALL)
        assert workload.run(plain.lib).verified
        assert workload.run(batched.lib).verified
        batched.flush()
        assert (batched.vm.driver.transport.messages
                < plain.vm.driver.transport.messages * 0.95)
        # the hypervisor accounts the same number of commands either way
        stack_a = plain.stack.router.metrics_for("vm-fa").commands
        stack_b = batched.stack.router.metrics_for("vm-fb").commands
        assert stack_a == stack_b

    def test_disabled_policy_bit_identical_virtual_time(self):
        """The regression gate: enabled=False costs exactly per-call.

        vm_ids share a length — the id crosses the wire in every frame,
        so differently-sized names would price differently.
        """
        _, none_policy = batched_session("vm-x1", BatchPolicy(enabled=False))
        stack = VirtualStack.build("opencl")
        no_policy = stack.add_vm("vm-x2")
        workload = NWWorkload(scale=SMALL)
        assert workload.run(none_policy.lib).verified
        assert workload.run(no_policy.lib).verified
        assert none_policy.time == no_policy.time
        assert none_policy.runtime().batches_flushed == 0

    def test_shutdown_flushes_stragglers(self):
        _, session = batched_session("vm-sd")
        env = open_env(session.lib)
        data = np.arange(8, dtype=np.float32)
        mem = env.buffer(data.nbytes, host=data)
        env.write(mem, data, blocking=False)  # async, parks in the queue
        runtime = session.runtime()
        assert runtime._queue
        session.shutdown()
        assert not runtime._queue
        assert runtime.batches_flushed >= 1

    def test_batch_spans_recorded(self):
        tracer = Tracer()
        with tele.use(tracer):
            _, session = batched_session("vm-tr")
            env = open_env(session.lib)
            data = np.arange(16, dtype=np.float32)
            mem = env.buffer(data.nbytes, host=data)
            env.write(mem, data, blocking=False)
            env.finish()
            close_env(env)
        names = {span.name for span in tracer.all_spans()}
        assert {"batch.queue", "batch.flush", "transport.flush",
                "router.batch"} <= names
        flush = next(s for s in tracer.all_spans()
                     if s.name == "batch.flush")
        assert flush.attrs["commands"] >= 1
        assert flush.attrs["reason"] in ("sync", "threshold", "reply-leg")


class TestStagedPayloadsAreOwned:
    """A staged command outlives the call that made it, so it may not
    hold the caller's memory: payloads are borrowed only until the
    call returns."""

    def test_array_overwritten_before_the_flush(self):
        _, session = batched_session("vm-al")
        env = open_env(session.lib)
        data = np.arange(4096, dtype=np.uint8)
        mem = env.buffer(data.nbytes)
        as_of_call = data.copy()
        env.write(mem, data, blocking=False)
        runtime = session.runtime()
        (staged,) = runtime._queue
        assert type(staged.command.in_buffers["ptr"]) is bytes
        data[:] = 0xEE
        session.flush()
        got = env.read(mem, data.nbytes, dtype=np.uint8)
        assert np.array_equal(got, as_of_call)


class TestFaultsOnBatchedFrames:
    @pytest.mark.parametrize("mode", ["drop", "corrupt", "duplicate"])
    def test_chaos_modes_contained_with_batching(self, mode):
        report = run_chaos(mode=mode, seed=1234, scale=SMALL,
                           bystander=False, batching=True)
        # the invariant: completion (via retries) or a structured error
        assert report.completed or report.error is not None
        if report.completed:
            assert report.verified

    def test_dropped_batches_retried_to_completion(self):
        """Batched frames of idempotent commands retransmit like sync
        retries do: the handle-minting setup runs fault-free, then the
        plan is armed over the (retry-safe) async write stream."""
        stack, session = batched_session("vm-rty")
        env = open_env(session.lib)
        data = np.arange(64, dtype=np.float32)
        mem = env.buffer(data.nbytes, host=np.zeros_like(data))
        stack.install_fault_plan(FaultPlan(seed=7, drop=0.5))
        runtime = session.runtime()
        for _ in range(8):
            env.write(mem, data, blocking=False)
        session.flush()
        assert runtime.batches_flushed >= 1
        assert runtime.retries > 0
        # every drop was absorbed by retransmission, not deferred
        assert runtime.pending_async_error is None

    def test_zero_rate_plan_cost_transparent_with_batching(self):
        def run(vm_id, install):
            stack, session = batched_session(vm_id)
            if install:
                stack.install_fault_plan(FaultPlan(seed=1234))
            result = NWWorkload(scale=SMALL).run(session.lib)
            session.flush()
            assert result.verified
            return session.time

        assert run("vm-zr1", False) == run("vm-zr2", True)
