"""Tests for the hypervisor invocation router (interposition point)."""

import dataclasses

import pytest

from repro.codegen.routing_gen import generate_routing_module
from repro.hypervisor.policy import ResourcePolicy, VMPolicy
from repro.hypervisor.router import Router, RoutingInfo, RoutingTable
from repro.remoting.codec import Command, CommandBatch, Reply
from repro.spec import parse_spec
from repro.spec.errors import SpecSemanticError
from repro.spec.model import RecordKind
from tests.wire_oracle import ORACLE, decode_message, encode_message, walker


class StubWorker:
    def __init__(self):
        self.executed = []

    def execute(self, command, release):
        self.executed.append((command, release))
        return Reply(seq=command.seq, return_value=0, complete_time=release)


@pytest.fixture()
def setup():
    worker = StubWorker()
    router = Router(lambda vm, api: worker, ORACLE)
    table = RoutingTable(api="testapi")
    table.functions["doWork"] = RoutingInfo(name="doWork")
    router.register_api(table)
    router.register_vm("vm1")
    return router, worker


def generated_table(spec):
    """The routing table CAvA generates for ``spec``."""
    namespace = {}
    exec(generate_routing_module(spec), namespace)
    return namespace["build_table"]()


def send(router, command, arrival=0.0):
    return decode_message(router.deliver(encode_message(command), arrival))


def make_command(function="doWork", vm="vm1", **kwargs):
    return Command(seq=1, vm_id=vm, api="testapi", function=function,
                   **kwargs)


class TestVerification:
    def test_known_function_dispatched(self, setup):
        router, worker = setup
        reply = send(router, make_command())
        assert reply.error is None
        assert len(worker.executed) == 1

    def test_unknown_vm_rejected(self, setup):
        router, worker = setup
        reply = send(router, make_command(vm="intruder"))
        assert "unknown VM" in reply.error
        assert not worker.executed

    def test_unknown_api_rejected(self, setup):
        router, worker = setup
        command = make_command()
        command.api = "nope"
        reply = send(router, command)
        assert "unknown API" in reply.error

    def test_unknown_function_rejected(self, setup):
        router, worker = setup
        reply = send(router, make_command(function="sneaky"))
        assert "does not route" in reply.error
        assert router.metrics_for("vm1").rejected == 1

    def test_oversized_payload_rejected(self, setup):
        router, _ = setup
        router.max_payload_bytes = 10
        reply = send(router, make_command(in_buffers={"d": b"x" * 100}))
        assert "exceeds router limit" in reply.error

    def test_bad_out_size_rejected(self, setup):
        router, _ = setup
        reply = send(router, make_command(out_sizes={"p": -5}))
        assert "bad out-size" in reply.error

    def test_oversized_out_buffer_rejected(self, setup):
        router, _ = setup
        router.max_payload_bytes = 100
        reply = send(router, make_command(out_sizes={"p": 10_000}))
        assert "exceeds router limit" in reply.error

    def test_malformed_bytes_rejected(self, setup):
        router, _ = setup
        reply = decode_message(router.deliver(b"garbage-not-a-frame", 0.0))
        assert "malformed" in reply.error

    def test_reply_message_rejected(self, setup):
        router, _ = setup
        wire = encode_message(Reply(seq=1))
        reply = decode_message(router.deliver(wire, 0.0))
        assert "expected a command" in reply.error

    def test_missing_worker_reported(self):
        router = Router(lambda vm, api: None, ORACLE)
        table = RoutingTable(api="testapi")
        table.functions["doWork"] = RoutingInfo(name="doWork")
        router.register_api(table)
        router.register_vm("vm1")
        reply = send(router, make_command())
        assert "no API server" in reply.error


class TestSchedulingAndAccounting:
    def test_interposition_cost_added(self, setup):
        router, worker = setup
        send(router, make_command(), arrival=1.0)
        _, release = worker.executed[0]
        assert release == pytest.approx(1.0 + router.interposition_cost)

    def test_rate_limiter_delays_release(self):
        policy = ResourcePolicy()
        policy.set_policy("vm1", VMPolicy(command_rate=10.0, command_burst=1))
        worker = StubWorker()
        router = Router(lambda vm, api: worker, ORACLE,
                        policy=policy)
        table = RoutingTable(api="testapi")
        table.functions["doWork"] = RoutingInfo(name="doWork")
        router.register_api(table)
        router.register_vm("vm1")
        send(router, make_command(), arrival=0.0)
        send(router, make_command(), arrival=0.0)
        _, release2 = worker.executed[1]
        assert release2 >= 0.1
        assert router.metrics_for("vm1").rate_delay > 0

    def test_policy_changed_in_place_raises(self):
        """The router plans a VM from its policy when the policy is
        installed, so an edit in place would go unseen until some
        unrelated ``set_policy``.  It raises instead; a new policy
        through ``set_policy`` takes effect on the next command."""
        policy = ResourcePolicy()
        worker = StubWorker()
        router = Router(lambda vm, api: worker, ORACLE,
                        policy=policy)
        table = RoutingTable(api="testapi")
        table.functions["doWork"] = RoutingInfo(name="doWork")
        router.register_api(table)
        router.register_vm("vm1")
        send(router, make_command(), arrival=0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            policy.default.command_rate = 10.0
        with pytest.raises(TypeError):
            policy.default.resource_limits["bus_bytes"] = 1.0
        assert router.metrics_for("vm1").rate_delay == 0.0
        policy.set_policy("vm1", dataclasses.replace(
            policy.default, command_rate=10.0, command_burst=1))
        for _ in range(50):
            send(router, make_command(), arrival=0.0)
        assert router.metrics_for("vm1").rate_delay > 0

    def test_resource_policy_changed_in_place_raises(self):
        """Neither the default nor a VM's entry can be swapped behind
        ``set_policy``'s back (an unplanned edit would be ignored until
        some unrelated ``set_policy``); through ``set_policy`` a new
        policy throttles the stack's very next calls."""
        from repro.stack import VirtualStack
        from repro.workloads.base import open_env

        policy = ResourcePolicy(per_vm={"vmX": VMPolicy()})
        session = VirtualStack.build("opencl", policy=policy).add_vm("vm0")
        cl = session.lib
        env = open_env(cl)
        metrics = session.stack.hypervisor.router.metrics_for("vm0")
        throttled = VMPolicy(command_rate=10.0, command_burst=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            policy.default = throttled
        with pytest.raises(TypeError):
            policy.per_vm["vm0"] = throttled
        for _ in range(50):
            cl.clFinish(env.queue)
        assert metrics.rate_delay == 0.0
        assert policy.policy_for("vm0") == VMPolicy()
        policy.set_policy("vm0", throttled)
        for _ in range(50):
            cl.clFinish(env.queue)
        assert metrics.rate_delay > 0
        assert dict(policy.per_vm) == {"vmX": VMPolicy(), "vm0": throttled}

    def test_per_function_counters(self, setup):
        router, _ = setup
        send(router, make_command())
        send(router, make_command())
        metrics = router.metrics_for("vm1")
        assert metrics.commands == 2
        assert metrics.per_function["doWork"] == 2

    def test_per_function_distinguishes_functions(self, setup):
        router, _ = setup
        table = router.tables["testapi"]
        table.functions["other"] = RoutingInfo(name="other")
        send(router, make_command())
        send(router, make_command(function="other"))
        metrics = router.metrics_for("vm1")
        assert metrics.per_function == {"doWork": 1, "other": 1}
        # rejections are not counted as routed commands
        send(router, make_command(function="sneaky"))
        assert metrics.per_function == {"doWork": 1, "other": 1}


class TestRouterTracing:
    def test_policy_and_queue_spans_recorded(self, setup):
        from repro.telemetry import Tracer, use

        router, _ = setup
        tracer = Tracer()
        with use(tracer):
            command = make_command()
            command.span_id = 77
            send(router, command, arrival=1.0)
        names = {s.name: s for s in tracer.spans}
        policy = names["router.policy"]
        queue = names["router.queue"]
        assert policy.parent_id == 77 and queue.parent_id == 77
        assert policy.layer == "router"
        assert policy.start == 1.0
        assert policy.end == pytest.approx(1.0 + router.interposition_cost)
        assert queue.start == policy.end

    def test_rejection_span_carries_reason(self, setup):
        from repro.telemetry import Tracer, use

        router, _ = setup
        tracer = Tracer()
        with use(tracer):
            send(router, make_command(function="sneaky"))
        (span,) = tracer.spans
        assert span.name == "router.policy"
        assert "does not route" in span.attrs["rejected"]

    def test_no_spans_without_tracer(self, setup):
        from repro.telemetry import tracer as tele

        router, _ = setup
        send(router, make_command())
        assert tele.active().all_spans() == []

    def test_payload_bytes_accounted(self, setup):
        router, _ = setup
        send(router, make_command(in_buffers={"d": b"x" * 64}))
        assert router.metrics_for("vm1").payload_bytes == 64

    def test_resource_estimates_from_consumes(self):
        spec = parse_spec(
            "api(testapi);\n"
            "int copyData(int dst, size_t nbytes) "
            "{ consumes(bus_bytes, nbytes); }"
        )
        worker = StubWorker()
        router = Router(lambda vm, api: worker, ORACLE)
        router.register_api(generated_table(spec))
        router.register_vm("vm1")
        command = make_command(function="copyData",
                               scalars={"dst": 1, "nbytes": 4096})
        send(router, command)
        assert router.metrics_for("vm1").resources["bus_bytes"] == 4096


class TestErrorReplySeqEcho:
    """Every verification rejection echoes the command's seq.

    A reply with seq=-1 is only legitimate when the frame was too
    damaged to recover a sequence number at all; any decodable command
    must get its own seq back, or the guest cannot match the failure to
    the call that caused it.
    """

    SEQ = 777

    def _reply(self, router, command):
        command.seq = self.SEQ
        return send(router, command)

    def test_unknown_vm_echoes_seq(self, setup):
        router, _ = setup
        reply = self._reply(router, make_command(vm="intruder"))
        assert "unknown VM" in reply.error
        assert reply.seq == self.SEQ

    def test_unknown_api_echoes_seq(self, setup):
        router, _ = setup
        command = make_command()
        command.api = "nope"
        reply = self._reply(router, command)
        assert "unknown API" in reply.error
        assert reply.seq == self.SEQ

    def test_unrouted_function_echoes_seq(self, setup):
        router, _ = setup
        reply = self._reply(router, make_command(function="sneaky"))
        assert "does not route" in reply.error
        assert reply.seq == self.SEQ

    def test_oversized_payload_echoes_seq(self, setup):
        router, _ = setup
        router.max_payload_bytes = 10
        reply = self._reply(router,
                            make_command(in_buffers={"d": b"x" * 100}))
        assert "exceeds router limit" in reply.error
        assert reply.seq == self.SEQ

    def test_bad_out_size_echoes_seq(self, setup):
        router, _ = setup
        reply = self._reply(router, make_command(out_sizes={"p": -5}))
        assert "bad out-size" in reply.error
        assert reply.seq == self.SEQ

    def test_oversized_out_buffer_echoes_seq(self, setup):
        router, _ = setup
        router.max_payload_bytes = 100
        reply = self._reply(router, make_command(out_sizes={"p": 10_000}))
        assert "exceeds router limit" in reply.error
        assert reply.seq == self.SEQ

    def test_quota_rejection_echoes_seq(self):
        spec = parse_spec(
            "api(testapi);\n"
            "int copyData(int dst, size_t nbytes) "
            "{ consumes(bus_bytes, nbytes); }"
        )
        policy = ResourcePolicy()
        policy.set_policy("vm1",
                          VMPolicy(resource_limits={"bus_bytes": 1}))
        router = Router(lambda vm, api: StubWorker(), ORACLE, policy=policy)
        router.register_api(generated_table(spec))
        router.register_vm("vm1")
        command = make_command(function="copyData",
                               scalars={"dst": 1, "nbytes": 4096})
        command.seq = self.SEQ
        reply = send(router, command)
        assert "quota exhausted" in reply.error
        assert reply.seq == self.SEQ

    def test_undecodable_frame_gets_minus_one(self, setup):
        router, _ = setup
        reply = decode_message(router.deliver(b"garbage", 0.0))
        assert reply.seq == -1  # no seq recoverable from garbage


class TestUnknownVmAccounting:
    def test_unknown_vms_share_one_bounded_counter(self, setup):
        router, _ = setup
        before = set(router.vms)
        for index in range(200):
            send(router, make_command(vm=f"intruder-{index}"))
        # untrusted vm_id bytes must not grow the metrics table
        assert set(router.vms) == before
        assert router.unknown_rejections == 200

    def test_known_vm_rejections_still_per_vm(self, setup):
        router, _ = setup
        send(router, make_command(function="sneaky"))
        assert router.metrics_for("vm1").rejected == 1
        assert router.unknown_rejections == 0


class TestCircuitBreaker:
    """Breaker decisions key on the transport-attested ``source``."""

    def flood(self, router, times, start=0.0, step=1e-5,
              source="vm1"):
        for index in range(times):
            router.deliver(b"garbage", start + index * step, source=source)

    def send_from(self, router, command, arrival, source):
        return decode_message(
            router.deliver(encode_message(command), arrival, source=source)
        )

    def test_flood_trips_breaker(self, setup):
        router, worker = setup
        self.flood(router, router.breaker_threshold)
        assert router.vms["vm1"].tripped == 1
        # even a well-formed command is rejected while the breaker is open
        arrival = router.breaker_threshold * 1e-5
        reply = self.send_from(router, make_command(), arrival, "vm1")
        assert "circuit open" in reply.error
        assert not worker.executed

    def test_breaker_closes_after_cooldown(self, setup):
        router, worker = setup
        self.flood(router, router.breaker_threshold)
        reopen = (router.breaker_threshold * 1e-5
                  + router.breaker_cooldown + 1e-6)
        reply = self.send_from(router, make_command(), reopen, "vm1")
        assert reply.error is None
        assert len(worker.executed) == 1

    def test_strikes_outside_window_do_not_trip(self, setup):
        router, _ = setup
        self.flood(router, router.breaker_threshold,
                   step=router.breaker_window * 2)
        assert router.vms["vm1"].tripped == 0

    def test_other_sources_unaffected(self, setup):
        router, worker = setup
        router.register_vm("vm2")
        self.flood(router, router.breaker_threshold, source="vm1")
        command = make_command(vm="vm2")
        reply = self.send_from(router, command,
                               router.breaker_threshold * 1e-5, "vm2")
        assert reply.error is None
        assert len(worker.executed) == 1

    def test_unattributed_frames_never_open_a_breaker(self, setup):
        router, _ = setup
        for index in range(50):
            router.deliver(b"garbage", index * 1e-6)  # no source
        assert not any(state.strikes for state in router.vms.values())
        assert router.malformed_frames == 50


class TestWorkerCrashContainment:
    def test_crash_becomes_server_lost_reply(self):
        from repro.faults.errors import WorkerCrashed

        class DyingWorker:
            def execute(self, command, release):
                raise WorkerCrashed("boom")

        lost = []
        router = Router(lambda vm, api: DyingWorker(), ORACLE,
                        on_worker_lost=lambda *args: lost.append(args))
        table = RoutingTable(api="testapi")
        table.functions["doWork"] = RoutingInfo(name="doWork")
        router.register_api(table)
        router.register_vm("vm1")
        command = make_command()
        command.seq = 42
        reply = send(router, command)
        assert "server-lost" in reply.error
        assert reply.seq == 42
        assert lost == [("vm1", "testapi", "boom")]
        assert router.metrics_for("vm1").server_lost == 1

    def test_lost_resolver_becomes_server_lost_reply(self):
        from repro.faults.errors import WorkerLost

        def resolver(vm, api):
            raise WorkerLost("awaiting restart")

        router = Router(resolver, ORACLE)
        table = RoutingTable(api="testapi")
        table.functions["doWork"] = RoutingInfo(name="doWork")
        router.register_api(table)
        router.register_vm("vm1")
        reply = send(router, make_command())
        assert "server-lost" in reply.error
        assert "awaiting restart" in reply.error


class TestReplyEncodeGuard:
    def test_unencodable_reply_becomes_error_reply(self, setup):
        router, worker = setup

        class Opaque:
            pass

        def execute(command, release):
            return Reply(seq=command.seq, return_value=Opaque(),
                         complete_time=release)

        worker.execute = execute
        reply = send(router, make_command())
        assert "reply encoding failed" in reply.error
        assert reply.seq == 1


def _opencl(function, **fields):
    return Command(seq=5, vm_id="vm1", api="opencl", function=function,
                   mode="async", issue_time=1.0, **fields)


#: frames no conforming guest sends, each well-formed for the oracle
#: that encodes them here, and each outside the walker's one rule
TIGHTENED_FORMS = {
    "out-of-order-key": _opencl(
        "clEnqueueNDRangeKernel",
        scalars={"global_work_size": [64], "work_dim": 1}),
    "unknown-function": _opencl("clNoSuchCall"),
    "bad-mode": _opencl("clFinish", handles={"command_queue": 3}),
    "malformed-tr": _opencl("clFinish", trace_id=5, span_id=6),
    "wrong-kind-xr": _opencl(
        "clEnqueueWriteBuffer",
        cached_refs={"ptr": [bytes(16), 64, "str"]}),
}
TIGHTENED_FORMS["bad-mode"].mode = "eager"


def _walker_router(worker):
    """A router over the generated opencl stack, on the runtime's
    walker, with ``vm1`` registered."""
    from repro.stack import build_stack

    router = Router(lambda vm, api: worker, walker("opencl"))
    router.register_api(build_stack("opencl").routing_table())
    router.register_vm("vm1")
    return router


class TestIntegerArrival:
    """``deliver`` is public, so its arrival may be an int, and the
    walker carries only float times: a rejection, a refusal of the whole
    frame and a failed reply encode all still answer with a frame."""

    def answer(self, router, wire, reply_to=None, source="vm1"):
        return router.codec.decode_reply(
            router.deliver(wire, 2, source=source), reply_to=reply_to)

    def test_rejected_call_answers_at_its_arrival(self):
        router = _walker_router(StubWorker())
        command = _opencl("clFinish", handles={"command_queue": 3})
        command.vm_id = "intruder"
        # unattested: on vm1's channel the frame would be a forgery
        reply = self.answer(router, router.codec.encode_command(command),
                            command, source=None)
        assert "unknown VM" in reply.error
        assert reply.complete_time == 2.0

    def test_malformed_frame_is_refused(self):
        router = _walker_router(StubWorker())
        reply = self.answer(router, b"garbage-not-a-frame")
        assert "malformed command" in reply.error
        assert reply.complete_time == 2.0
        assert router.malformed_frames == 1

    def test_reply_with_an_int_time_becomes_a_refusal(self):
        worker = StubWorker()
        worker.execute = lambda command, release: Reply(
            seq=command.seq, return_value=0, complete_time=3)
        router = _walker_router(worker)
        command = _opencl("clFinish", handles={"command_queue": 3})
        reply = self.answer(router, router.codec.encode_command(command))
        assert "reply encoding failed" in reply.error
        assert (reply.seq, reply.complete_time) == (5, 3.0)


class TestTightenedForms:
    """Through the real walker, a frame outside the conformance rule is
    a malformed frame: one ``malformed_frames``, one breaker strike, no
    VM rejection counted, nothing executed — and a batch holding one
    such command is malformed as a whole."""

    def deliver(self, frame):
        worker = StubWorker()
        router = _walker_router(worker)
        reply = decode_message(router.deliver(
            encode_message(frame), 1.0, source="vm1"))
        assert "malformed command" in reply.error
        assert router.malformed_frames == 1
        assert len(router.vms["vm1"].strikes) == 1
        assert router.metrics_for("vm1").rejected == 0
        assert router.metrics_for("vm1").commands == 0
        assert worker.executed == []

    @pytest.mark.parametrize("form", sorted(TIGHTENED_FORMS))
    def test_form_is_a_malformed_frame(self, form):
        self.deliver(TIGHTENED_FORMS[form])

    @pytest.mark.parametrize("form", sorted(TIGHTENED_FORMS))
    def test_batch_holding_the_form_is_a_malformed_frame(self, form):
        good = _opencl("clFinish", handles={"command_queue": 3})
        self.deliver(CommandBatch(
            vm_id="vm1", commands=[good, TIGHTENED_FORMS[form], good],
            flush_time=1.0))


class TestRoutingTableFromSpec:
    def test_functions_and_records(self):
        spec = parse_spec(
            "api(x);\n"
            "int clCreateThing(int ctx);\n"
            "int weird(int a) { unsupported; }\n"
        )
        table = generated_table(spec)
        assert "clCreateThing" in table.functions
        assert "weird" not in table.functions  # unsupported not routed
        assert table.functions["clCreateThing"].record_kind is \
            RecordKind.CREATE

    def test_estimates_are_compiled(self):
        spec = parse_spec(
            "api(x);\n"
            "int f(int n) { consumes(a, 2 * 3); consumes(b, 1 / 0);\n"
            "               consumes(c, 12 / n); }\n"
            "int g(int n);\n"
        )
        source = generate_routing_module(spec)
        assert "parse_expr" not in source and "repro.spec.expr" not in source
        table = generated_table(spec)
        info = table.functions["f"]
        # a constant is folded at generation; one that fails is left out
        assert info.resources["a"] == 6.0 and "b" not in info.resources
        assert callable(info.resources["c"]) and info.per_call
        assert not table.functions["g"].per_call
        command = make_command(function="f", scalars={"n": 4})
        assert table.estimate(info, command) == {"a": 6.0, "c": 3.0}
        command.scalars["n"] = 0   # ZeroDivisionError: left out
        assert table.estimate(info, command) == {"a": 6.0}

    def test_unknown_sizeof_fails_at_generation(self):
        spec = parse_spec(
            "api(x);\n"
            "int f(int n) { consumes(a, n * sizeof(struct nothing)); }\n"
        )
        with pytest.raises(SpecSemanticError):
            generate_routing_module(spec)
