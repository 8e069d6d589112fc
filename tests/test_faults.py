"""Chaos suite: the forwarded stack stays contained under injected faults.

The invariant under test (the failure-path contract of ``repro.faults``):
whatever a :class:`FaultPlan` does to the wire or the workers, a full
workload either completes — possibly via retries — or every affected
call surfaces as a *structured* error (``RemotingError`` or an error
reply), and no exception ever escapes ``Router.deliver`` or
``Transport.deliver``.  With no plan installed, virtual-time results
stay bit-identical.

Seeded via ``CAVA_CHAOS_SEED`` (the CI chaos-smoke job pins it), so
every run of this suite injects exactly the same faults.
"""

import os

import numpy as np
import pytest

from repro.faults import (
    MODES,
    FaultInjectionError,
    FaultPlan,
    FaultyTransport,
    RetryPolicy,
)
from repro.faults.chaos import run_chaos
from repro.guest.library import RemotingError
from repro.remoting.codec import Command, CommandBatch
from repro.stack import make_hypervisor
from repro.workloads import BFSWorkload
from repro.workloads.base import open_env

SEED = int(os.environ.get("CAVA_CHAOS_SEED", "1234"))


def fresh_stack(vm_id="v1"):
    hypervisor = make_hypervisor(apis=("opencl",))
    vm = hypervisor.create_vm(vm_id)
    return hypervisor, vm


def opened_env(vm):
    return open_env(vm.library("opencl"))


class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan(drop=1.5)
        with pytest.raises(FaultInjectionError):
            FaultPlan(corrupt=-0.1)
        with pytest.raises(FaultInjectionError):
            FaultPlan(crash_on_call=0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan.for_mode("meteor-strike")

    def test_same_seed_same_decisions(self):
        command = Command(seq=1, vm_id="v", api="a", function="f")
        first = [FaultPlan(seed=SEED, drop=0.3, corrupt=0.3, delay=0.3,
                           duplicate=0.3).decide_command(command)
                 for _ in range(1)]
        a = FaultPlan(seed=SEED, drop=0.3, corrupt=0.3, delay=0.3,
                      duplicate=0.3)
        b = FaultPlan(seed=SEED, drop=0.3, corrupt=0.3, delay=0.3,
                      duplicate=0.3)
        for _ in range(100):
            assert a.decide_command(command) == b.decide_command(command)
            assert a.decide_reply(command) == b.decide_reply(command)
        assert first  # silence the single-draw warm-up

    def test_corruption_always_breaks_framing(self):
        from repro.remoting.codec import (
            CodecError,
            decode_message,
            encode_message,
        )

        wire = encode_message(
            Command(seq=9, vm_id="v", api="a", function="f",
                    in_buffers={"d": b"payload"})
        )
        plan = FaultPlan(seed=SEED, corrupt=1.0)
        for _ in range(50):
            damaged = plan.corrupt_bytes(wire)
            with pytest.raises(CodecError):
                decode_message(damaged)


class TestNoFaultBitIdentical:
    """A zero-rate plan (and its wrapper) must be cost-transparent."""

    def _run(self, install_plan):
        hypervisor, vm = fresh_stack()
        if install_plan:
            hypervisor.install_fault_plan(FaultPlan(seed=SEED))
        result = BFSWorkload(scale=0.06).run(vm.library("opencl"))
        assert result.verified
        return vm.clock.now

    def test_virtual_time_unchanged_by_idle_plan(self):
        assert self._run(False) == self._run(True)


class TestRetries:
    def test_idempotent_calls_retried_to_completion(self):
        hypervisor, vm = fresh_stack()
        env = opened_env(vm)
        data = np.arange(16, dtype=np.float32)
        mem = env.buffer(data.nbytes, host=data)
        plan = FaultPlan(seed=5, drop=0.5)
        hypervisor.install_fault_plan(plan)
        runtime = vm.runtimes["opencl"]
        ok = failed = 0
        for _ in range(40):
            try:
                env.write(mem, data)
                ok += 1
            except RemotingError as err:
                assert "timeout" in str(err)
                failed += 1
        # at 50% drop, most calls complete via retransmission and the
        # rare giveup (6 consecutive drops) is a structured timeout
        assert ok >= 30
        assert runtime.retries > 0
        assert runtime.giveups == failed
        assert plan.counts()["drop"] >= runtime.retries

    def test_retries_charge_virtual_backoff(self):
        hypervisor, vm = fresh_stack()
        env = opened_env(vm)
        data = np.arange(16, dtype=np.float32)
        mem = env.buffer(data.nbytes, host=data)
        policy = RetryPolicy()
        hypervisor.install_fault_plan(FaultPlan(seed=5, drop=0.5),
                                      retry_policy=policy)
        before = vm.clock.now
        for _ in range(10):
            try:
                env.write(mem, data)
            except RemotingError:
                pass
        runtime = vm.runtimes["opencl"]
        assert runtime.retries > 0
        # every retry sat out at least the timeout plus its backoff
        floor = runtime.retries * (0.0 + policy.base_backoff)
        assert vm.clock.now - before > floor

    def test_handle_calls_never_retried(self):
        hypervisor, vm = fresh_stack()
        env = opened_env(vm)
        hypervisor.install_fault_plan(FaultPlan(seed=SEED, drop=1.0))
        with pytest.raises(RemotingError, match="timeout"):
            env.buffer(64)  # clCreateBuffer returns a fresh handle
        assert vm.runtimes["opencl"].retries == 0

    def test_exhausted_retries_give_up_structurally(self):
        hypervisor, vm = fresh_stack()
        env = opened_env(vm)
        data = np.arange(4, dtype=np.float32)
        mem = env.buffer(data.nbytes, host=data)
        policy = RetryPolicy(max_retries=3)
        hypervisor.install_fault_plan(FaultPlan(seed=SEED, drop=1.0),
                                      retry_policy=policy)
        with pytest.raises(RemotingError, match="timeout"):
            env.write(mem, data)
        runtime = vm.runtimes["opencl"]
        assert runtime.retries == 3
        assert runtime.giveups == 1


def assert_only_owned_bytes(hypervisor, vm):
    """What outlives an exchange — the migration log, the transfer
    store, the coalescing queue — holds ``bytes`` of its own, never a
    view of the caller's memory or of a frame.  Reads only: no clock
    moves, so it is safe after every exchange of a sanitized run."""
    clocks = (vm.clock.now, hypervisor.worker(vm.vm_id, "opencl").clock.now)
    kept = [chunk
            for entry in hypervisor.worker(vm.vm_id, "opencl").recorder.log
            for chunk in entry.command.in_buffers.values()]
    store = hypervisor.xfer_stores.get(vm.vm_id)
    if store is not None:
        kept.extend(store._entries.values())
    for staged in vm.runtimes["opencl"]._queue:
        kept.extend(staged.command.in_buffers.values())
        kept.extend(original for kind, original, _digest, _size
                    in staged.elided.values() if kind == "buf")
    assert all(type(chunk) is bytes for chunk in kept)
    assert clocks == (vm.clock.now,
                      hypervisor.worker(vm.vm_id, "opencl").clock.now)


class TestBorrowedPayloadsUnderFaults:
    """An async write's payload is borrowed only until the call
    returns: no fault makes a later frame carry the caller's array as
    it is by then."""

    def written_then_overwritten(self, **rates):
        hypervisor, vm = fresh_stack()
        env = opened_env(vm)
        data = np.arange(4096, dtype=np.uint8)
        mem = env.buffer(data.nbytes, host=np.zeros_like(data))
        plan = FaultPlan(seed=SEED, **rates)
        hypervisor.install_fault_plan(plan, retry_policy=RetryPolicy())
        as_of_call = data.copy()
        env.write(mem, data, blocking=False)
        data[:] = 0xEE
        assert_only_owned_bytes(hypervisor, vm)
        return hypervisor, vm, env, mem, as_of_call, plan

    def test_duplicated_async_write_lands_the_call_time_bytes(self):
        hypervisor, vm, env, mem, as_of_call, plan = (
            self.written_then_overwritten(duplicate=1.0))
        assert plan.counts()["duplicate"] == 1
        hypervisor.install_fault_plan(FaultPlan(seed=SEED))
        got = env.read(mem, as_of_call.nbytes, dtype=np.uint8)
        assert np.array_equal(got, as_of_call)

    def test_dropped_async_write_is_lost_not_resent_stale(self):
        hypervisor, vm, env, mem, as_of_call, plan = (
            self.written_then_overwritten(drop=1.0))
        runtime = vm.runtimes["opencl"]
        assert runtime.retries == 0  # async frames are never retried
        assert runtime.pending_async_error is not None
        hypervisor.install_fault_plan(FaultPlan(seed=SEED))  # recovery
        assert env.cl.clFinish(env.queue) != 0  # the deferred error
        got = env.read(mem, as_of_call.nbytes, dtype=np.uint8)
        assert not got.any()  # the write never landed, in any version
        fresh = as_of_call[::-1].copy()
        env.write(mem, fresh, blocking=False)
        fresh[:] = 0xEE
        got = env.read(mem, as_of_call.nbytes, dtype=np.uint8)
        assert np.array_equal(got, as_of_call[::-1])


class TestVectoredReplyFaults:
    """Every fault mode against reply frames that carry their payload
    by reference: a 1 MiB blocking read, and a batch carrying one."""

    SIZE = 1 << 20
    ROUNDS = 6
    RATES = {
        "drop": dict(drop=0.3, drop_replies=0.3),
        "corrupt": dict(corrupt=0.4),
        "delay": dict(delay=0.5, delay_replies=0.5),
        "duplicate": dict(duplicate=0.5),
    }
    #: ``kind/leg`` of every fault injected under seed 1234, recorded at
    #: the commit before reply frames became vectored (one exchange is
    #: one frame each way, so a command and a batch draw alike)
    PARENT_LOGS = {
        "corrupt": " ".join(["corrupt/command"] * 6),
        "delay": ("delay/command delay/command delay/reply delay/command "
                  "delay/reply delay/command"),
        "drop": ("drop/reply drop/reply drop/command drop/reply drop/reply "
                 "drop/reply drop/command drop/command drop/reply "
                 "drop/command drop/reply"),
        "duplicate": "duplicate/command duplicate/command",
    }

    def exchanges(self, mode, batched):
        from repro.guest.batching import BatchPolicy
        from repro.opencl import types

        hypervisor = make_hypervisor(apis=("opencl",))
        vm = hypervisor.create_vm(
            "v1", batch_policy=BatchPolicy() if batched else None)
        env = opened_env(vm)
        data = (np.arange(self.SIZE, dtype=np.uint32) % 251).astype(np.uint8)
        mem = env.buffer(data.nbytes, host=data)
        scratch = env.buffer(2048)
        plan = FaultPlan(seed=1234, **self.RATES[mode])
        hypervisor.install_fault_plan(plan, retry_policy=RetryPolicy())
        runtime = vm.runtimes["opencl"]
        exact = 0
        for _ in range(self.ROUNDS):
            out = np.zeros_like(data)
            try:
                if batched:
                    # a spliced write and the read cross as one batch;
                    # its reply batch carries the 1 MiB by reference
                    env.write(scratch, data[:2048], blocking=False)
                assert env.cl.clEnqueueReadBuffer(
                    env.queue, mem,
                    types.CL_FALSE if batched else types.CL_TRUE,
                    0, out.nbytes, out, 0, None, None) == 0
            except RemotingError as err:
                assert "timeout" in str(err)
            if runtime.pending_async_error is not None:
                runtime.pending_async_error = None  # typed, and seen
            if out.any():
                assert np.array_equal(out, data)  # exact bytes, or none
                exact += 1
            assert_only_owned_bytes(hypervisor, vm)
        assert exact
        return hypervisor, plan

    @pytest.mark.parametrize("batched", [False, True],
                             ids=["command", "batch"])
    @pytest.mark.parametrize("mode", sorted(RATES))
    def test_typed_error_or_exact_bytes(self, mode, batched):
        hypervisor, plan = self.exchanges(mode, batched)
        legs = {event.leg for event in plan.events}
        assert "command" in legs
        if mode in ("drop", "delay"):
            assert "reply" in legs
        if mode == "corrupt":
            # every damaged frame was caught at the router's boundary
            assert (hypervisor.router.malformed_frames
                    == plan.counts()["corrupt"])
        log = " ".join(f"{e.kind}/{e.leg}" for e in plan.events)
        assert log == self.PARENT_LOGS[mode]


class TestSharedCrossing:
    """One crossing step serves single commands and batches alike."""

    FRAMES = 60

    def crossing_events(self, plan, batched):
        """(kind, leg) of every fault over ``FRAMES`` one-command frames
        sent straight through the injector, as commands or batches."""
        hypervisor, vm = fresh_stack()
        transport = FaultyTransport(vm.driver.transport, plan)
        for seq in range(self.FRAMES):
            # the router refuses the call, and says so in a reply
            # frame: all the reply leg needs
            command = Command(seq=seq, vm_id=vm.vm_id, api="opencl",
                              function="noSuchCall", mode="async")
            if batched:
                transport.deliver_batch(
                    CommandBatch(vm_id=vm.vm_id, commands=[command]),
                    seq * 1e-3)
            else:
                transport.deliver(command, seq * 1e-3)
        assert transport.messages == self.FRAMES
        return [(event.kind, event.leg) for event in plan.events]

    @pytest.mark.parametrize("rates, expected", [
        (dict(drop=0.3, drop_replies=0.3),
         {("drop", "command"), ("drop", "reply")}),
        # detected corruption ends the exchange: with every reply also
        # marked for loss, no reply-leg decision is ever drawn
        (dict(corrupt=1.0, drop_replies=1.0), {("corrupt", "command")}),
        (dict(delay=0.3, delay_replies=0.3),
         {("delay", "command"), ("delay", "reply")}),
        (dict(duplicate=0.3, delay_replies=0.3),
         {("duplicate", "command"), ("delay", "reply")}),
    ], ids=["drop", "corrupt", "delay", "duplicate"])
    def test_same_seed_same_events_for_either_frame_kind(self, rates,
                                                         expected):
        single = self.crossing_events(FaultPlan(seed=SEED, **rates),
                                      batched=False)
        batch = self.crossing_events(FaultPlan(seed=SEED, **rates),
                                     batched=True)
        assert single == batch
        assert set(single) == expected

    def test_total_loss_recovery_matches_the_parent_commit(self):
        """``drop=1.0``: what one sync call and one flushed batch cost
        in retries, give-ups and guest time, pinned from the commit
        before the two retry loops became one."""
        from repro.guest.batching import BatchPolicy

        data = np.arange(16, dtype=np.float32)
        hypervisor, vm = fresh_stack()
        env = opened_env(vm)
        mem = env.buffer(data.nbytes, host=data)
        hypervisor.install_fault_plan(FaultPlan(seed=SEED, drop=1.0),
                                      retry_policy=RetryPolicy())
        with pytest.raises(RemotingError, match="timeout"):
            env.write(mem, data)
        runtime = vm.runtimes["opencl"]
        assert (runtime.retries, runtime.giveups) == (5, 1)
        assert vm.clock.now == 0.0018239422773333337

        hypervisor = make_hypervisor(apis=("opencl",))
        vm = hypervisor.create_vm("v1", batch_policy=BatchPolicy())
        env = opened_env(vm)
        mem = env.buffer(data.nbytes, host=data)
        hypervisor.install_fault_plan(FaultPlan(seed=SEED, drop=1.0),
                                      retry_policy=RetryPolicy())
        env.write(mem, data, blocking=False)
        env.write(mem, data, blocking=False)
        vm.flush()
        runtime = vm.runtimes["opencl"]
        assert runtime.batches_flushed == 1
        assert (runtime.retries, runtime.giveups) == (5, 1)
        assert runtime.pending_async_error is not None
        assert vm.clock.now == 0.0018147644373333336

    def test_second_plan_reaches_channels_the_first_wrapped(self):
        hypervisor, vm0 = fresh_stack("vm0")
        env = opened_env(vm0)
        plan1, plan2 = FaultPlan(drop=0.0), FaultPlan(drop=1.0)
        hypervisor.install_fault_plan(plan1)
        env.finish()
        hypervisor.install_fault_plan(plan2)
        vm1 = hypervisor.create_vm("vm1")
        for vm in (vm0, vm1):
            assert vm.driver.transport.plan is plan2
            # re-pointed, not wrapped a second time
            assert not isinstance(vm.driver.transport.inner,
                                  FaultyTransport)
        with pytest.raises(RemotingError, match="timeout"):
            env.finish()
        assert plan1.events == [] and plan2.counts()["drop"] >= 1


class TestWorkerCrash:
    def make_two_tenant_stack(self):
        hypervisor = make_hypervisor(apis=("opencl",))
        plan = FaultPlan(seed=SEED, crash_on_call=4, crash_vm="victim")
        hypervisor.install_fault_plan(plan)
        victim = hypervisor.create_vm("victim")
        bystander = hypervisor.create_vm("bystander")
        return hypervisor, victim, bystander

    def test_crash_contained_to_one_vm(self):
        hypervisor, victim, bystander = self.make_two_tenant_stack()
        peer_env = opened_env(bystander)  # spawn the bystander first
        with pytest.raises(RemotingError, match="server-lost"):
            opened_env(victim)
        # every further victim call keeps failing cleanly...
        with pytest.raises(RemotingError, match="server-lost"):
            opened_env(victim)
        # ...while the bystander's worker never noticed
        data = np.arange(8, dtype=np.float32)
        mem = peer_env.buffer(data.nbytes, host=data)
        peer_env.write(mem, data)
        assert np.array_equal(peer_env.read(mem, data.nbytes), data)
        assert ("victim", "opencl") in hypervisor.lost_workers
        assert ("bystander", "opencl") not in hypervisor.lost_workers

    def test_crashed_worker_handles_invalidated(self):
        hypervisor = make_hypervisor(apis=("opencl",))
        victim = hypervisor.create_vm("victim")
        env = opened_env(victim)  # 4 calls: platform/device/context/queue
        worker = hypervisor.worker("victim", "opencl")
        assert len(worker.handles) > 0
        plan = FaultPlan(seed=SEED, crash_on_call=1, crash_vm="victim")
        hypervisor.install_fault_plan(plan)
        with pytest.raises(RemotingError, match="server-lost"):
            env.buffer(64)
        assert len(worker.handles) == 0  # table cleared on crash

    def test_restart_brings_vm_back(self):
        hypervisor, victim, _ = self.make_two_tenant_stack()
        with pytest.raises(RemotingError, match="server-lost"):
            opened_env(victim)
        hypervisor.restart_worker("victim", "opencl")
        # the plan crashes once; a fresh worker serves a full workload
        result = BFSWorkload(scale=0.06).run(victim.library("opencl"))
        assert result.verified
        assert hypervisor.router.metrics_for("victim").server_lost >= 1


class TestBreakerThroughStack:
    def test_malformed_flood_trips_and_recovers(self):
        hypervisor, vm = fresh_stack()
        env = opened_env(vm)
        router = hypervisor.router
        now = vm.clock.now
        for index in range(router.breaker_threshold):
            router.deliver(b"\xabC\xff\xff\xff\xff", now + index * 1e-6,
                           source="v1")
        assert router.breakers["v1"].tripped == 1
        # the flooding VM's legitimate traffic is rejected while open
        with pytest.raises(RemotingError, match="circuit open"):
            env.finish()
        # after the cooldown the VM is served again
        vm.clock.advance(router.breaker_cooldown + 1e-3, "idle")
        env.finish()

    def test_other_vm_unaffected_by_open_breaker(self):
        hypervisor = make_hypervisor(apis=("opencl",))
        noisy = hypervisor.create_vm("noisy")
        quiet = hypervisor.create_vm("quiet")
        opened_env(noisy)
        router = hypervisor.router
        for index in range(router.breaker_threshold):
            router.deliver(b"junk", noisy.clock.now + index * 1e-6,
                           source="noisy")
        assert router.breakers["noisy"].tripped == 1
        env = opened_env(quiet)
        data = np.arange(8, dtype=np.float32)
        mem = env.buffer(data.nbytes, host=data)
        assert np.array_equal(env.read(mem, data.nbytes), data)


class TestChaosHarness:
    @pytest.mark.parametrize("mode", tuple(MODES) + ("all",))
    def test_every_mode_contained(self, mode):
        report = run_chaos(mode=mode, seed=SEED, bystander=False)
        assert report.contained
        if not report.completed:
            # a structured failure names the failing call's error
            assert report.error

    def test_crash_mode_recovers_and_isolates(self):
        report = run_chaos(mode="crash", seed=SEED)
        assert report.contained
        assert report.server_lost >= 1
        assert report.recovered_after_restart is True
        assert report.bystander_verified is True

    def test_delay_mode_completes_late_but_correct(self):
        report = run_chaos(mode="delay", seed=SEED, bystander=False)
        assert report.completed and report.verified
        assert report.injected.get("delay", 0) > 0

    def test_reports_are_deterministic(self):
        first = run_chaos(mode="all", seed=SEED, bystander=False)
        second = run_chaos(mode="all", seed=SEED, bystander=False)
        assert first.injected == second.injected
        assert first.completed == second.completed
        assert first.error == second.error
        assert first.retries == second.retries

    def test_report_formats(self):
        report = run_chaos(mode="crash", seed=SEED)
        text = report.format()
        assert "mode=crash" in text
        assert "invariant: contained" in text


class TestFaultTelemetry:
    def test_fault_spans_and_retry_metrics(self):
        from repro.telemetry import MetricsRegistry, Tracer, use

        registry = MetricsRegistry()
        tracer = Tracer(metrics=registry)
        hypervisor, vm = fresh_stack()
        with use(tracer):
            env = opened_env(vm)
            data = np.arange(16, dtype=np.float32)
            mem = env.buffer(data.nbytes, host=data)
            hypervisor.install_fault_plan(FaultPlan(seed=5, drop=0.5))
            for _ in range(10):
                try:
                    env.write(mem, data)
                except RemotingError:
                    pass
        names = {span.name for span in tracer.spans}
        assert "fault.drop" in names
        assert "retry" in names
        # span-derived per-function retries agree with the runtime's own
        # counter, the one live store of VM-level retries
        runtime = vm.runtimes["opencl"]
        per_function = registry.vm("v1").functions["clEnqueueWriteBuffer"]
        assert per_function.retries == runtime.retries > 0

    def test_faulty_transport_costs_delegate(self):
        hypervisor, vm = fresh_stack()
        inner = vm.driver.transport
        wrapped = FaultyTransport(inner, FaultPlan(seed=SEED))
        for nbytes in (64, 4096, 1 << 20):
            assert wrapped.send_cost(nbytes) == inner.send_cost(nbytes)
            assert wrapped.recv_cost(nbytes) == inner.recv_cost(nbytes)
            assert wrapped.enqueue_cost(nbytes) == inner.enqueue_cost(nbytes)


class TestXferCacheChaos:
    """Every fault mode against cached-ref frames and the NeedBytes leg.

    The transfer cache adds two new frame shapes to the wire — commands
    carrying digest-only refs, and the router's ``NeedBytes`` answer —
    and both must satisfy the suite's containment invariant: recover
    via retry/retransmission or surface a typed error, and *never*
    deliver bytes other than the guest's bytes at send time.
    """

    DATA_BYTES = 4096

    def cached_stack(self, shared=True, vm_id="v1"):
        from repro.remoting.xfercache import CachePolicy

        hypervisor = make_hypervisor(apis=("opencl",))
        vm = hypervisor.create_vm(
            vm_id,
            cache_policy=CachePolicy(min_bytes=64, shared_index=shared),
        )
        return hypervisor, vm

    def _pump(self, fn, attempts=30):
        """Retry through structured failures; anything else propagates."""
        last = None
        for _ in range(attempts):
            try:
                return fn()
            except RemotingError as err:
                last = err
        raise AssertionError(f"never recovered: {last}")

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("shared", [True, False])
    def test_every_mode_on_cached_frames(self, mode, shared):
        hypervisor, vm = self.cached_stack(shared=shared)
        env = opened_env(vm)
        data = np.arange(self.DATA_BYTES, dtype=np.uint8)
        mem = env.buffer(data.nbytes)
        # seed the store (and local index) before the faults arm, so
        # the faulted frames really are digest-only
        env.write(mem, data)
        env.write(mem, data)
        assert hypervisor.router.metrics_for(vm.vm_id).xfer_hits >= 1

        hypervisor.install_fault_plan(FaultPlan.for_mode(mode, seed=SEED))
        for round_index in range(8):
            try:
                env.write(mem, data)
            except RemotingError:
                # crash mode: bring the worker back and re-establish the
                # device state the way a real guest driver would
                if (vm.vm_id, "opencl") in hypervisor.lost_workers:
                    hypervisor.restart_worker(vm.vm_id, "opencl")
                    env = opened_env(vm)
                    mem = env.buffer(data.nbytes)
                    self._pump(lambda: env.write(mem, data))
        got = self._pump(
            lambda: env.read(mem, data.nbytes, dtype=np.uint8))
        assert bytes(got) == data.tobytes(), \
            f"mode {mode} delivered wrong bytes"

    @pytest.mark.parametrize("mode", MODES)
    def test_every_mode_on_the_need_bytes_leg(self, mode):
        """Force a genuine miss each round (local index + cleared
        store), so every faulted exchange includes the miss/retransmit
        leg — the NeedBytes answer and the full-payload resend."""
        hypervisor, vm = self.cached_stack(shared=False)
        env = opened_env(vm)
        data = np.arange(self.DATA_BYTES, dtype=np.uint8)
        mem = env.buffer(data.nbytes)
        env.write(mem, data)
        env.write(mem, data)
        cache = vm.xfer_cache
        assert cache.elided_payloads == 1

        hypervisor.install_fault_plan(FaultPlan.for_mode(mode, seed=SEED))
        store = hypervisor.xfer_stores[vm.vm_id]
        for round_index in range(8):
            store.clear("chaos: force a miss")
            try:
                env.write(mem, data)
            except RemotingError:
                if (vm.vm_id, "opencl") in hypervisor.lost_workers:
                    hypervisor.restart_worker(vm.vm_id, "opencl")
                    env = opened_env(vm)
                    mem = env.buffer(data.nbytes)
                    self._pump(lambda: env.write(mem, data))
        assert cache.retransmits >= 1, "the miss leg never fired"
        got = self._pump(
            lambda: env.read(mem, data.nbytes, dtype=np.uint8))
        assert bytes(got) == data.tobytes(), \
            f"mode {mode} corrupted the retransmission leg"

    def test_mutation_between_faulted_sends_never_leaks(self):
        """Interleave guest-side mutation with faulted cached sends:
        the read-back must always be the *latest successfully written*
        bytes, never a stale cache resolution."""
        hypervisor, vm = self.cached_stack(shared=True)
        env = opened_env(vm)
        data = bytearray(range(256)) * (self.DATA_BYTES // 256)
        mem = env.buffer(self.DATA_BYTES)
        hypervisor.install_fault_plan(FaultPlan.for_mode("all", seed=SEED))
        model = None
        for round_index in range(10):
            data[round_index] = (data[round_index] + 1) % 256
            payload = np.frombuffer(bytes(data), dtype=np.uint8)
            try:
                env.write(mem, payload)
                model = bytes(data)
            except RemotingError:
                pass
        assert model is not None, "every faulted write failed"
        got = self._pump(
            lambda: env.read(mem, self.DATA_BYTES, dtype=np.uint8))
        assert bytes(got) == model

    def test_need_bytes_reply_dropped_then_retried(self):
        """Drop every host→guest reply for a while: the NeedBytes
        answer itself is lost, the guest times out, and the seeded
        retry path must converge to the correct bytes once the plan
        stops dropping."""
        hypervisor, vm = self.cached_stack(shared=False)
        env = opened_env(vm)
        data = np.arange(self.DATA_BYTES, dtype=np.uint8)
        mem = env.buffer(data.nbytes)
        env.write(mem, data)
        env.write(mem, data)

        hypervisor.install_fault_plan(
            FaultPlan(seed=SEED, drop_replies=0.5))
        store = hypervisor.xfer_stores[vm.vm_id]
        recovered = 0
        for _ in range(6):
            store.clear("chaos: force a miss")
            try:
                self._pump(lambda: env.write(mem, data), attempts=10)
                recovered += 1
            except AssertionError:
                pass
        assert recovered >= 1
        got = self._pump(
            lambda: env.read(mem, data.nbytes, dtype=np.uint8))
        assert bytes(got) == data.tobytes()

    def test_fault_free_cached_run_costs_unchanged_by_idle_plan(self):
        """A zero-rate plan stays cost-transparent with the cache on."""

        def run(install_plan):
            hypervisor, vm = self.cached_stack(shared=True,
                                               vm_id="v-idle")
            if install_plan:
                hypervisor.install_fault_plan(FaultPlan(seed=SEED))
            env = opened_env(vm)
            data = np.arange(self.DATA_BYTES, dtype=np.uint8)
            mem = env.buffer(data.nbytes)
            for _ in range(4):
                env.write(mem, data)
            return vm.clock.now

        assert run(False) == run(True)


class TestMigrationChaos:
    """Every fault mode against the migration channel's two legs.

    The containment invariant, extended to migrations: whatever the
    plan injects into pre-copy or cutover frames (or the destination
    worker), a migration either completes with full fidelity or aborts
    back to a still-serving source.  There is never a half-migrated
    worker, a stuck frozen VM, or wrong bytes.  Both policies of the one
    engine are held to it: stop-the-world (zero pre-copy rounds, only
    the cutover leg) and live (the default round budget).
    """


    N = 1024

    def migration_stack(self, vm_id="vm-mig"):
        hypervisor, vm = fresh_stack(vm_id)
        env = opened_env(vm)
        data = np.arange(self.N, dtype=np.float32)
        mem = env.buffer(data.nbytes, host=data)
        return hypervisor, vm, env, mem, data

    def _read_back(self, env, mem, nbytes, attempts=30):
        last = None
        for _ in range(attempts):
            try:
                return env.read(mem, nbytes)
            except RemotingError as err:
                last = err
        raise AssertionError(f"never read back: {last}")

    @staticmethod
    def policy(max_rounds):
        """``None`` is the default (live) policy."""
        from repro.migration import MigrationPolicy

        if max_rounds is None:
            return None
        return MigrationPolicy(max_rounds=max_rounds)

    @pytest.mark.parametrize(
        "mode,max_rounds",
        [(mode, None) for mode in MODES] + [(mode, 0) for mode in MODES],
        ids=list(MODES) + [f"stop-the-world-{mode}" for mode in MODES])
    def test_every_mode_never_half_migrates(self, mode, max_rounds):
        from repro.migration import MigrationAborted

        hypervisor, vm, env, mem, data = self.migration_stack()
        source = hypervisor.worker(vm.vm_id, "opencl")
        hypervisor.install_fault_plan(FaultPlan.for_mode(mode, seed=SEED))
        try:
            report = hypervisor.live_migrate_vm(
                vm.vm_id, "opencl", policy=self.policy(max_rounds))
        except MigrationAborted:
            # clean abort: the source slot is untouched and serving
            assert hypervisor.worker(vm.vm_id, "opencl") is source
            assert hypervisor.migrations[-1].aborted
        else:
            assert not report.aborted
            assert hypervisor.worker(vm.vm_id, "opencl") is not source
            if max_rounds == 0:
                assert report.rounds == 0
                assert report.mode == "stop-the-world"
        # no stuck frozen window either way
        assert vm.vm_id not in hypervisor.router.frozen_vms
        # and in both outcomes the guest reads its own bytes back
        got = self._read_back(env, mem, data.nbytes)
        assert got.tobytes() == data.tobytes(), \
            f"mode {mode} delivered wrong bytes"

    def test_total_loss_aborts_to_serving_source(self):
        from repro.migration import MigrationAborted

        hypervisor, vm, env, mem, data = self.migration_stack("vm-loss")
        source = hypervisor.worker(vm.vm_id, "opencl")
        # arm the migration channel only — the guest channel stays
        # clean, so "source still serving" is directly observable
        plan = FaultPlan(seed=SEED, drop=1.0)
        hypervisor.fault_plan = plan
        # live first, then stop-the-world against the same source
        for max_rounds in (None, 0):
            with pytest.raises(MigrationAborted):
                hypervisor.live_migrate_vm(vm.vm_id, "opencl",
                                           policy=self.policy(max_rounds))
            assert hypervisor.worker(vm.vm_id, "opencl") is source
            assert vm.vm_id not in hypervisor.router.frozen_vms
        assert [m.mode for m in hypervisor.migrations] == \
            ["live", "stop-the-world"]
        assert all(m.aborted for m in hypervisor.migrations)
        assert any(event.leg == "cutover" for event in plan.events)
        got = env.read(mem, data.nbytes)
        assert got.tobytes() == data.tobytes()

    def test_fault_events_carry_migration_legs(self):
        """Injected migration faults are attributable per leg — chaos
        runs can assert coverage of pre-copy and cutover separately."""
        from repro.migration import MigrationPolicy

        hypervisor, vm, env, mem, data = self.migration_stack("vm-legs")
        # kernel writes are invisible to the recorder: they force real
        # pre-copy payload frames for the plan to fault
        kernel = env.kernel(env.program(
            "__kernel void vector_add(__global float* a, __global float* "
            "b, __global float* c, int n) {}"), "vector_add")
        outs = [env.buffer(data.nbytes) for _ in range(4)]
        second = env.buffer(data.nbytes, host=data)

        plan = FaultPlan(seed=SEED, drop=0.4, duplicate=0.4, delay=0.4)
        hypervisor.fault_plan = plan  # migration channel only
        policy = MigrationPolicy(max_frame_retries=64)
        engine = hypervisor.start_live_migration(vm.vm_id, "opencl",
                                                 policy=policy)
        engine.precopy_round()
        for out in outs:
            env.set_args(kernel, mem, second, out, self.N)
            env.launch(kernel, [self.N])
        env.finish()
        shipped = engine.precopy_round()
        assert shipped == 4 * data.nbytes
        report = engine.cutover()
        assert not report.aborted

        legs = {event.leg for event in plan.events}
        assert "precopy" in legs
        assert "cutover" in legs
        assert all(event.vm_id == vm.vm_id for event in plan.events)
        assert report.retransmits == engine.channel.retransmits > 0
