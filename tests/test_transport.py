"""Unit tests for the pluggable transports."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import FaultPlan, FaultyTransport
from repro.hypervisor.hypervisor import TRANSPORTS
from repro.remoting.codec import (
    CodecError,
    Command,
    CommandBatch,
    NeedBytes,
    Reply,
    ReplyBatch,
)
from repro.telemetry import Tracer
from repro.telemetry import tracer as tele
from repro.transport.base import (
    DeliveryResult,
    Leg,
    Transport,
    TransportError,
)
from repro.transport.inproc import InProcTransport
from repro.transport.network import NetworkTransport
from repro.transport.ring import RingTransport
from tests.wire_oracle import ORACLE, decode_message, encode_message


class EchoRouter:
    """Minimal router double: replies success at arrival time."""

    #: the codec a transport built on this router marshals with
    codec = ORACLE

    def __init__(self):
        self.delivered = []

    def deliver(self, wire, arrival, source=None):
        command = decode_message(wire)
        self.delivered.append((command, arrival))
        return encode_message(
            Reply(seq=command.seq, return_value=0, complete_time=arrival)
        )


def make_command(payload=b""):
    return Command(seq=1, vm_id="vm", api="x", function="f",
                   in_buffers={"data": payload} if payload else {})


class TestDeliveryMechanics:
    def test_round_trip_through_wire_format(self):
        router = EchoRouter()
        transport = InProcTransport(router)
        result = transport.deliver(make_command(b"abc"), guest_now=1.0)
        (reply,) = result.replies
        assert isinstance(reply, Reply)
        assert reply.return_value == 0
        command, arrival = router.delivered[0]
        assert command.function == "f"
        assert command.in_buffers["data"] == b"abc"
        assert arrival > 1.0

    def test_sent_at_includes_send_cost(self):
        router = EchoRouter()
        transport = InProcTransport(router, latency=10e-6)
        result = transport.deliver(make_command(), guest_now=0.0)
        assert result.sent_at >= 10e-6

    def test_async_uses_enqueue_cost(self):
        router = EchoRouter()
        transport = InProcTransport(router, latency=10e-6)
        sync = transport.deliver(make_command(), 0.0, asynchronous=False)
        async_ = transport.deliver(make_command(), 0.0, asynchronous=True)
        assert async_.sent_at < sync.sent_at

    def test_metrics_counted(self):
        router = EchoRouter()
        transport = InProcTransport(router)
        transport.deliver(make_command(b"x" * 100), 0.0)
        assert transport.messages == 1
        assert transport.tx_bytes > 100
        assert transport.rx_bytes > 0


class TestInProc:
    def test_cost_linear_in_bytes(self):
        transport = InProcTransport(EchoRouter())
        assert transport.send.price(10_000) > transport.send.price(0)

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            InProcTransport(EchoRouter(), latency=-1)


class TestRing:
    def test_small_message_single_doorbell(self):
        ring = RingTransport(EchoRouter())
        assert ring.slot_bytes == 4096
        cost_small = ring.send.price(100)
        cost_one_slot = ring.send.price(4000)
        assert cost_small == pytest.approx(
            cost_one_slot - 3900 * ring.copy_byte_cost
        )

    def test_large_message_extra_doorbells(self):
        ring = RingTransport(EchoRouter())
        per_byte = ring.copy_byte_cost
        small = ring.send.price(4096) - 4096 * per_byte
        # 128 slots: still in the ring, past the first 64-slot drain
        big = ring.send.price(4096 * 128) - 4096 * 128 * per_byte
        assert big > small

    def test_oversized_message_uses_sideband(self):
        ring = RingTransport(EchoRouter())
        capacity = ring.slot_bytes * ring.slots
        in_ring = ring.send.price(capacity)
        sideband = ring.send.price(capacity + ring.slot_bytes)
        # side-band pays extra doorbells and a pinning premium per byte
        assert sideband > in_ring
        per_byte_sideband = ((ring.send.price(capacity * 2) - sideband)
                             / (capacity - ring.slot_bytes))
        assert per_byte_sideband > ring.copy_byte_cost

    def test_capacity(self):
        ring = RingTransport(EchoRouter())
        assert ring.capacity_bytes == 4096 * 256


class TestNetwork:
    def test_higher_latency_than_inproc(self):
        net = NetworkTransport(EchoRouter())
        local = InProcTransport(EchoRouter())
        assert net.send.price(0) > local.send.price(0)

    def test_packetization(self):
        net = NetworkTransport(EchoRouter())
        one_packet = net.send.price(net.mtu - 100)
        many_packets = net.send.price(net.mtu * 9)
        extra_packets = 9 - 1
        assert many_packets - one_packet >= \
            extra_packets * net.per_packet_cost


#: every registered transport, bare and behind the fault injector
CHANNELS = [
    channel
    for name, cls in sorted(TRANSPORTS.items())
    for channel in (
        pytest.param(lambda cls=cls: cls(EchoRouter()), id=name),
        pytest.param(lambda cls=cls: FaultyTransport(cls(EchoRouter()),
                                                     FaultPlan()),
                     id=f"faulty+{name}"),
    )
]


#: prices are compared to within a femtosecond: far below the smallest
#: price term (one byte over the in-proc channel, 8 ps) and far above
#: float rounding
SLACK = 1e-15
#: frame sizes up to 16 MiB, past the ring's 1 MiB side-band threshold
FRAME = st.integers(min_value=0, max_value=1 << 24)


@pytest.mark.parametrize("channel", CHANNELS)
class TestPricingProperty:
    """Every transport prices each leg it carries, bytes included."""

    @settings(max_examples=60)
    @given(small=FRAME, extra=FRAME)
    def test_async_grows_at_least_at_the_wire_rate(self, channel, small,
                                                   extra):
        transport = channel()
        grown = (transport.enqueue.price(small + extra)
                 - transport.enqueue.price(small))
        assert grown >= extra * transport.send.per_byte - SLACK

    @settings(max_examples=60)
    @given(nbytes=FRAME)
    def test_async_costs_no_more_than_sync(self, channel, nbytes):
        transport = channel()
        assert (transport.enqueue.price(nbytes)
                <= transport.send.price(nbytes) + SLACK)

    @settings(max_examples=60)
    @given(sizes=st.lists(st.integers(min_value=0, max_value=1 << 20),
                          min_size=1, max_size=32))
    def test_batch_costs_no_more_than_its_commands(self, channel, sizes):
        transport = channel()
        one_by_one = sum(transport.enqueue.price(n) for n in sizes)
        assert transport.enqueue.price(sum(sizes)) <= one_by_one + SLACK


class TestAbstractBase:
    def test_base_costs_not_implemented(self):
        """The base declares no price, and every transport prices with
        its three legs alone: no cost hook, no async default."""
        transport = Transport(EchoRouter())
        for leg in ("send", "enqueue", "reply"):
            assert not hasattr(transport, leg)
        with pytest.raises(AttributeError):
            transport.deliver(make_command(), 0.0)
        for cls in (Transport, FaultyTransport, *TRANSPORTS.values()):
            for name in ("send_cost", "recv_cost", "enqueue_cost",
                         "enqueue_overhead"):
                assert not hasattr(cls, name), f"{cls.__name__}.{name}"

    def test_non_reply_result_rejected(self):
        class BadRouter:
            codec = ORACLE

            def deliver(self, wire, arrival, source=None):
                return encode_message(make_command())

        transport = InProcTransport(BadRouter())
        with pytest.raises(TransportError):
            transport.deliver(make_command(), 0.0)


class BatchEchoRouter(EchoRouter):
    """Also answers batches, and damaged frames the way the router does."""

    def deliver(self, wire, arrival, source=None):
        try:
            message = decode_message(bytes(wire))
        except CodecError as err:
            return encode_message(
                Reply(seq=-1, error=f"malformed ({err})",
                      complete_time=arrival))
        self.delivered.append((message, arrival))
        if isinstance(message, CommandBatch):
            return encode_message(ReplyBatch(
                replies=[Reply(seq=command.seq, return_value=0,
                               complete_time=arrival + 1e-6)
                         for command in message.commands],
                complete_time=arrival + 1e-6))
        return encode_message(Reply(seq=message.seq, return_value=0,
                                    complete_time=arrival + 1e-6))


class AnswerRouter(BatchEchoRouter):
    """Answers every frame, lone or batched, the one way it is told:
    ``"refused"`` with one error reply for the whole frame,
    ``"need_bytes"`` with a NeedBytes, anything else as the echo does."""

    def __init__(self, answer):
        super().__init__()
        self.answer = answer

    def deliver(self, wire, arrival, source=None):
        if self.answer == "refused":
            return encode_message(Reply(seq=-1, error="router: refused",
                                        complete_time=arrival))
        if self.answer == "need_bytes":
            return encode_message(NeedBytes(
                seq=1, missing=[[1, "data", b"x" * 16]],
                complete_time=arrival))
        return super().deliver(wire, arrival, source)


def make_batch(count=3):
    return CommandBatch(vm_id="vm", commands=[
        Command(seq=seq, vm_id="vm", api="x", function="f", mode="async",
                in_buffers={"data": b"p" * seq})
        for seq in range(1, count + 1)])


class LegsOnlyTransport(Transport):
    """The subclassing contract: declare the three legs, nothing else."""

    name = "legs-only"
    send = Leg(3e-6, 1e-9)
    reply = Leg(2e-6, 1e-9)
    enqueue = Leg(1e-6, 0.0)


class TestSharedExchange:
    """``deliver`` and ``deliver_batch`` are one exchange; the fault
    injector replaces only its crossing step."""

    @pytest.mark.parametrize(
        "factory", [InProcTransport, RingTransport, NetworkTransport])
    def test_idle_injector_is_transparent_on_both_entry_points(
            self, factory):
        bare = factory(BatchEchoRouter())
        inner = factory(BatchEchoRouter())
        faulty = FaultyTransport(inner, FaultPlan())
        for asynchronous in (False, True):
            assert faulty.deliver(make_command(b"abc"), 1.0,
                                  asynchronous=asynchronous) == \
                bare.deliver(make_command(b"abc"), 1.0,
                             asynchronous=asynchronous)
        assert faulty.deliver_batch(make_batch(), 2.0) == \
            bare.deliver_batch(make_batch(), 2.0)
        assert (faulty.messages, faulty.tx_bytes, faulty.rx_bytes) == \
            (bare.messages, bare.tx_bytes, bare.rx_bytes)
        assert faulty.messages == 3
        # the injector never calls through the transport it wraps
        assert inner.messages == inner.tx_bytes == inner.rx_bytes == 0
        assert faulty.plan.events == []

    def test_legs_are_the_whole_subclassing_contract(self):
        transport = LegsOnlyTransport(BatchEchoRouter())
        tracer = Tracer()
        with tele.use(tracer):
            single = transport.deliver(make_command(b"abc"), 1.0)
            queued = transport.deliver(make_command(), 1.0,
                                       asynchronous=True)
            batch = transport.deliver_batch(make_batch(), 2.0)
        assert single.sent_at == 1.0 + transport.send.price(
            len(encode_message(make_command(b"abc"))))
        assert queued.sent_at == 1.0 + 1e-6
        # the default flush price is one enqueue for the whole frame
        assert batch.sent_at == 2.0 + 1e-6
        assert [reply.seq for reply in batch.replies] == [1, 2, 3]
        assert single.reply_cost > 0.0 and not single.timed_out
        assert transport.messages == 3
        assert transport.tx_bytes > 0 and transport.rx_bytes > 0
        spans = [(span.name, span.attrs["submit"], span.attrs["transport"])
                 for span in tracer.all_spans()]
        assert spans == [("transport.send", "sync", "legs-only"),
                         ("transport.send", "async", "legs-only"),
                         ("transport.flush", "batch", "legs-only")]
        flush = tracer.all_spans()[-1]
        assert flush.function == "<batch>" and flush.attrs["commands"] == 3

    @pytest.mark.parametrize(
        "answer", ["answered", "lost", "refused", "need_bytes"])
    def test_one_result_contract_for_a_lone_frame_and_a_batch(
            self, answer):
        """Both entry points return one result type, whatever the
        answer; a frame that failed as a whole carries no replies, and
        only a lone frame that was answered or got NeedBytes pays for
        its reply leg."""

        def channel():
            transport = LegsOnlyTransport(AnswerRouter(answer))
            if answer == "lost":
                return FaultyTransport(transport, FaultPlan(drop=1.0))
            return transport

        single = channel().deliver(make_command(b"abc"), 1.0)
        batch = channel().deliver_batch(make_batch(), 2.0)
        assert type(single) is type(batch) is DeliveryResult
        assert [reply.error for reply in single.replies] == {
            "answered": [None], "refused": ["router: refused"],
        }.get(answer, [])
        assert [reply.seq for reply in batch.replies] == (
            [1, 2, 3] if answer == "answered" else [])
        for result in (single, batch):
            assert result.timed_out == (answer == "lost")
            assert (result.need_bytes is not None) == (answer == "need_bytes")
            if answer == "lost":
                assert result.error.startswith("transport: timeout")
        if answer != "lost":
            assert single.error is None
            assert batch.error == (
                "router: refused" if answer == "refused" else None)
        assert single.failed == (answer in ("lost", "need_bytes"))
        assert batch.failed == (answer != "answered")
        assert (single.reply_cost > 0.0) == (answer != "lost")
        assert batch.reply_cost == 0.0

    def test_per_class_instrumentation_meets_each_frame_once(
            self, monkeypatch):
        """Wrap both entry points on ``Transport`` and then on
        ``FaultyTransport``, in that order, the way the observatory's
        tracing does: a frame must enter exactly one wrapper."""
        entered = []

        def wrap(fn):
            def traced(*args, **kwargs):
                entered.append(fn.__name__)
                return fn(*args, **kwargs)
            return traced

        for cls in (Transport, FaultyTransport):
            monkeypatch.setattr(cls, "deliver", wrap(cls.deliver))
            monkeypatch.setattr(cls, "deliver_batch",
                                wrap(cls.deliver_batch))
        bare = InProcTransport(BatchEchoRouter())
        faulty = FaultyTransport(InProcTransport(BatchEchoRouter()),
                                 FaultPlan())
        for transport in (bare, faulty):
            del entered[:]
            transport.deliver(make_command(), 0.0)
            assert entered == ["deliver"]
            transport.deliver_batch(make_batch(), 0.0)
            assert entered == ["deliver", "deliver_batch"]
