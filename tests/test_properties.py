"""Property-based hardening across the core components.

These tests attack the invariants that keep the system trustworthy: the
router must survive arbitrary guest bytes, the rate limiter must never
exceed its configured envelope, the migration recorder must track object
lifetimes exactly, expressions must round-trip through their source
form, and the device engine must conserve time.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import sanitizer as _sanitize
from repro.hypervisor.policy import RateLimiter, ResourcePolicy, VMPolicy
from repro.hypervisor.pool import DeviceClass, DevicePool, PoolScheduler
from repro.hypervisor.scheduler import (
    FairShareScheduler,
    FifoScheduler,
    RoundRobinScheduler,
    WorkItem,
)
from repro.migration.recorder import CallRecorder
from repro.remoting.codec import (
    CodecError,
    Command,
    Reply,
    decode_message,
    decode_value,
    encode_message,
)
from repro.remoting.handles import HandleError, HandleTable
from repro.spec.expr import (
    Binary,
    Conditional,
    Literal,
    Name,
    SizeOf,
    Unary,
    evaluate,
    parse_expr,
)
from repro.spec.model import RecordKind


class TestCodecRobustness:
    @given(st.binary(max_size=200))
    def test_random_bytes_never_crash_decoder(self, blob):
        """Untrusted guest bytes must fail cleanly, not explode."""
        try:
            decode_message(blob)
        except CodecError:
            pass  # the only acceptable failure mode

    @given(st.binary(max_size=120))
    def test_random_value_bytes_fail_cleanly(self, blob):
        try:
            decode_value(blob)
        except CodecError:
            pass

    @given(st.binary(max_size=64))
    def test_truncations_of_valid_message_fail_cleanly(self, payload):
        wire = encode_message(
            Command(seq=1, vm_id="v", api="a", function="f",
                    in_buffers={"d": payload})
        )
        for cut in range(0, len(wire), max(1, len(wire) // 10)):
            truncated = wire[:cut]
            try:
                result = decode_message(truncated)
            except CodecError:
                continue
            # decoding may only succeed on the complete frame
            assert truncated == wire and isinstance(result, Command)

    @given(st.binary(max_size=64))
    def test_single_byte_corruptions_never_crash(self, payload):
        wire = bytearray(encode_message(
            Reply(seq=2, out_payloads={"x": payload})
        ))
        for index in range(0, len(wire), max(1, len(wire) // 8)):
            corrupted = bytearray(wire)
            corrupted[index] ^= 0xFF
            try:
                decode_message(bytes(corrupted))
            except CodecError:
                pass


class TestRateLimiterEnvelope:
    @settings(max_examples=50)
    @given(
        st.floats(min_value=1.0, max_value=1000.0),
        st.integers(min_value=1, max_value=16),
        st.lists(st.floats(min_value=0.0, max_value=0.05), min_size=5,
                 max_size=120),
    )
    def test_never_exceeds_token_envelope(self, rate, burst, gaps):
        policy = ResourcePolicy()
        policy.set_policy("vm", VMPolicy(command_rate=rate,
                                         command_burst=burst))
        limiter = RateLimiter(policy)
        arrival = 0.0
        releases = []
        for gap in gaps:
            arrival += gap
            releases.append(limiter.next_allowed("vm", arrival))
        # in any window of length W, at most rate*W + burst releases
        window = 0.5
        for start in releases:
            in_window = sum(
                1 for r in releases if start <= r < start + window
            )
            assert in_window <= rate * window + burst + 1e-6

    @settings(max_examples=30)
    @given(st.lists(st.floats(min_value=0.0, max_value=0.1), min_size=2,
                    max_size=60))
    def test_releases_monotone(self, gaps):
        policy = ResourcePolicy()
        policy.set_policy("vm", VMPolicy(command_rate=50.0,
                                         command_burst=2))
        limiter = RateLimiter(policy)
        arrival = 0.0
        previous = -1.0
        for gap in gaps:
            arrival += gap
            release = limiter.next_allowed("vm", arrival)
            assert release >= arrival
            assert release >= previous
            previous = release


def _command(seq, handles=None):
    return Command(seq=seq, vm_id="v", api="a", function="f",
                   handles=handles or {})


class TestRecorderModel:
    @settings(max_examples=60)
    @given(st.lists(
        st.tuples(st.sampled_from(["create", "destroy"]),
                  st.integers(min_value=0, max_value=12)),
        max_size=60,
    ))
    def test_log_tracks_live_set_exactly(self, ops):
        """The recorder's created ids equal a straightforward live-set
        model, for any create/destroy interleaving."""
        recorder = CallRecorder()
        live = set()
        next_id = 100
        created_ids = {}
        for op, key in ops:
            if op == "create":
                handle = next_id
                next_id += 1
                created_ids[key] = handle
                live.add(handle)
                recorder.record(
                    _command(handle),
                    Reply(seq=handle, new_handles={"h": handle}),
                    RecordKind.CREATE,
                )
            else:
                handle = created_ids.get(key)
                if handle is None or handle not in live:
                    continue
                live.discard(handle)
                recorder.record(
                    _command(0, handles={"h": handle}), Reply(seq=0),
                    RecordKind.DESTROY,
                )
        assert recorder.live_created_ids() == live


class TestHandleTableModel:
    @settings(max_examples=60)
    @given(st.lists(
        st.tuples(st.sampled_from(["alloc", "free", "lookup"]),
                  st.integers(min_value=0, max_value=10)),
        max_size=80,
    ))
    def test_matches_dict_model(self, ops):
        table = HandleTable("vm-prop")
        model = {}
        objects = {}
        for op, key in ops:
            if op == "alloc":
                if key in model:  # re-allocating a slot frees the old one
                    table.free(model.pop(key))
                obj = object()
                objects[key] = obj
                model[key] = table.allocate(obj)
            elif op == "free" and key in model:
                guest_id = model.pop(key)
                assert table.free(guest_id) is objects[key]
            elif op == "lookup":
                if key in model:
                    assert table.lookup(model[key]) is objects[key]
                else:
                    with pytest.raises(HandleError):
                        table.lookup(0xDEAD0000 + key)
        assert len(table) == len(model)


def _expr_strategy():
    leaves = st.one_of(
        st.integers(min_value=0, max_value=100).map(
            lambda v: Literal(float(v))),
        st.sampled_from(["a", "b", "c"]).map(Name),
        st.just(SizeOf("float")),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(["+", "-", "*"]), children,
                      children).map(lambda t: Binary(*t)),
            st.tuples(st.sampled_from(["<", "==", ">="]), children,
                      children).map(lambda t: Binary(*t)),
            children.map(lambda e: Unary("-", e)),
            st.tuples(children, children, children).map(
                lambda t: Conditional(*t)),
        )

    return st.recursive(leaves, extend, max_leaves=12)


class TestExpressionRoundTrip:
    @settings(max_examples=80)
    @given(_expr_strategy(),
           st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
    def test_source_round_trip_preserves_value(self, expr, a, b, c):
        env = {"a": a, "b": b, "c": c}
        reparsed = parse_expr(expr.to_source())
        assert evaluate(reparsed, env) == evaluate(expr, env)

    @settings(max_examples=80)
    @given(_expr_strategy(),
           st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
    def test_python_compilation_matches_evaluator(self, expr, a, b, c):
        from repro.codegen.pyexpr import expr_to_python

        env = {"a": a, "b": b, "c": c}
        code = expr_to_python(expr, {"a", "b", "c"}, {}, {"float": 4})
        python_value = eval(code, dict(env))
        # C semantics: booleans are 1/0
        if isinstance(python_value, bool):
            python_value = 1.0 if python_value else 0.0
        assert float(python_value) == evaluate(expr, env)


class TestSchedulerConservation:
    """The one device engine, under any pick policy, pool size and
    stealing setting: every item runs exactly once, no member runs two
    items at a time, and device time billed to VMs is device time the
    members delivered."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.dictionaries(
            st.sampled_from(["vm0", "vm1", "vm2", "vm3"]),
            st.lists(
                st.builds(WorkItem, st.floats(0.0, 5e-3),
                          st.floats(0.0, 2e-3)),
                max_size=12,
            ),
            min_size=1, max_size=4,
        ),
        st.lists(
            st.sampled_from([DeviceClass.baseline_gpu(),
                             DeviceClass.big_gpu(),
                             DeviceClass.small_gpu()]),
            min_size=1, max_size=3,
        ),
        st.sampled_from([FifoScheduler, RoundRobinScheduler,
                         FairShareScheduler]),
        st.booleans(),
    )
    def test_time_conserved_and_no_overlap(self, streams, classes, pick,
                                           steal):
        from repro.telemetry import Tracer, use

        pool = DevicePool.from_classes(classes)
        tracer = Tracer()
        was_armed = _sanitize.active().enabled
        sanitizer = _sanitize.install()
        checked = sanitizer.checks.get("pool-conservation", 0)
        try:
            with use(tracer):
                result = PoolScheduler(pool, allow_stealing=steal,
                                       pick=pick).run(streams)
        finally:
            if not was_armed:
                _sanitize.uninstall()
        assert sanitizer.checks["pool-conservation"] == checked + 1
        # everything completed
        for vm, items in streams.items():
            assert result.vm_stats[vm].completed == len(items)
        # no member overlaps itself
        by_member = {}
        for span in tracer.spans:
            if span.name == "device.compute":
                by_member.setdefault(span.attrs["device"], []).append(span)
        for spans in by_member.values():
            spans.sort(key=lambda s: (s.start, s.end))
            for first, second in zip(spans, spans[1:]):
                assert second.start >= first.end - 1e-12
        # device time billed to VMs equals service the members delivered
        billed = sum(s.device_time for s in result.vm_stats.values())
        delivered = sum(d.nominal_time
                        for d in result.device_stats.values())
        assert billed == pytest.approx(delivered)
        assert billed == pytest.approx(sum(
            item.duration for items in streams.values() for item in items
        ))
