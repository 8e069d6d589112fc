"""Tests for the cross-layer tracing/metrics subsystem."""

import json

import pytest

from repro.harness.runner import run_virtualized
from repro.remoting.codec import Command, Reply, decode_message, encode_message
from repro.telemetry import (
    LAYERS,
    MetricsRegistry,
    NOOP,
    Span,
    Tracer,
    TracerError,
    breakdown,
    load_trace,
    perfetto_trace,
    read_jsonl,
    self_times,
    spans_from_perfetto,
    write_jsonl,
    write_perfetto,
)
from repro.telemetry import tracer as tele
from repro.vclock import VirtualClock
from repro.workloads import KMeansWorkload


class TestNoopDefault:
    def test_active_defaults_to_noop(self):
        assert tele.active() is NOOP
        assert not NOOP.enabled

    def test_noop_operations_return_none(self):
        assert NOOP.start_span("x", 0.0) is None
        assert NOOP.record_span("x", 0.0, 1.0) is None
        assert NOOP.current() is None
        assert NOOP.all_spans() == []

    def test_use_restores_previous(self):
        tracer = Tracer()
        with tele.use(tracer):
            assert tele.active() is tracer
        assert tele.active() is NOOP


class TestTracer:
    def test_stack_nesting_and_inheritance(self):
        tracer = Tracer()
        outer = tracer.start_span("call", 0.0, kind="function",
                                  vm_id="vm1", api="opencl",
                                  function="call")
        inner = tracer.record_span("marshal", 0.0, 1.0)
        assert inner.parent_id == outer.span_id
        assert inner.vm_id == "vm1"
        assert inner.api == "opencl"
        assert inner.function == "call"
        tracer.end_span(outer, 2.0)
        assert [s.name for s in tracer.spans] == ["marshal", "call"]

    def test_explicit_parent_crosses_the_wire(self):
        tracer = Tracer()
        root = tracer.record_span("guest", 0.0, 1.0)
        host = tracer.record_span("dispatch", 0.5, 0.9,
                                  parent_id=root.span_id)
        assert host.parent_id == root.span_id

    def test_double_end_rejected(self):
        tracer = Tracer()
        span = tracer.start_span("x", 0.0)
        tracer.end_span(span, 1.0)
        with pytest.raises(TracerError):
            tracer.end_span(span, 2.0)

    def test_containers_finalized_by_all_spans(self):
        tracer = Tracer()
        vm = tracer.container("vm1", now=0.0)
        api = tracer.container("vm1", "opencl", now=0.0)
        assert api.parent_id == vm.span_id
        tracer.record_span("op", 0.0, 3.0, vm_id="vm1")
        spans = tracer.all_spans()
        assert vm in spans and api in spans
        assert vm.end == 3.0

    def test_self_times_exclude_children(self):
        tracer = Tracer()
        parent = tracer.start_span("parent", 0.0, layer="server")
        tracer.record_span("child", 1.0, 3.0, layer="device")
        tracer.end_span(parent, 4.0)
        own = self_times(tracer.spans)
        assert own[parent.span_id] == pytest.approx(2.0)
        shares = breakdown(tracer.spans, lambda s: s.layer)
        assert shares["server"] == pytest.approx(2.0)
        assert shares["device"] == pytest.approx(2.0)


class TestWirePropagation:
    def test_command_trace_fields_round_trip(self):
        command = Command(seq=7, vm_id="vm1", api="a", function="f",
                          trace_id="t1", span_id=42)
        decoded = decode_message(encode_message(command))
        assert decoded.trace_id == "t1"
        assert decoded.span_id == 42

    def test_reply_span_id_round_trips(self):
        reply = Reply(seq=7, span_id=9)
        assert decode_message(encode_message(reply)).span_id == 9

    def test_untraced_wire_encoding_unchanged(self):
        """With tracing off the ids stay None and the wire dict carries
        no trace key at all — encoded byte counts (and thus per-byte
        modeled costs) are identical to an uninstrumented build."""
        command = Command(seq=7, vm_id="vm1", api="a", function="f")
        assert "tr" not in command.to_wire_dict()
        assert "tr" not in Reply(seq=7).to_wire_dict()
        decoded = decode_message(encode_message(command))
        assert decoded.trace_id is None and decoded.span_id is None


class TestEndToEndTrace:
    @pytest.fixture(scope="class")
    def traced_run(self):
        tracer = Tracer(metrics=MetricsRegistry())
        measurement = run_virtualized(KMeansWorkload(scale=0.1),
                                      vm_id="vm-kmeans", tracer=tracer)
        return tracer, measurement

    def test_all_layers_present(self, traced_run):
        tracer, _ = traced_run
        layers = {s.layer for s in tracer.all_spans()}
        assert set(LAYERS) <= layers
        assert len(layers & set(LAYERS)) >= 5

    def test_span_tree_reaches_device(self, traced_run):
        tracer, _ = traced_run
        spans = tracer.all_spans()
        children = {}
        for span in spans:
            if span.parent_id is not None:
                children.setdefault(span.parent_id, []).append(span)

        def layers_under(span, acc):
            acc.add(span.layer)
            for child in children.get(span.span_id, []):
                layers_under(child, acc)
            return acc

        roots = [s for s in spans if s.kind == "function"]
        assert roots, "guest stubs must open function spans"
        kernel_roots = [r for r in roots
                        if r.name == "clEnqueueNDRangeKernel"]
        assert kernel_roots
        for root in kernel_roots:
            reached = layers_under(root, set())
            assert "device" in reached, (
                f"call {root.name} never reached the device layer"
            )
            assert {"guest", "transport", "router", "server"} <= reached

    def test_function_spans_cover_the_run(self, traced_run):
        """The guest's virtual time is fully attributed: root function
        spans are contiguous and sum to the reported runtime."""
        tracer, measurement = traced_run
        roots = [s for s in tracer.all_spans() if s.kind == "function"]
        total = sum(s.duration for s in roots)
        assert total == pytest.approx(measurement.runtime, rel=1e-9)

    def test_metrics_registry_attribution(self, traced_run):
        tracer, measurement = traced_run
        telemetry = tracer.metrics.vm("vm-kmeans")
        assert telemetry.calls == (
            measurement.calls_sync + measurement.calls_async
        )
        kernel = telemetry.functions["clEnqueueNDRangeKernel"]
        assert kernel.calls > 0
        assert kernel.async_calls + kernel.sync_calls == kernel.calls
        assert telemetry.errors == 0
        for layer in LAYERS:
            assert telemetry.layer_spans.get(layer, 0) > 0

    def test_perfetto_export_loads_and_round_trips(self, traced_run,
                                                   tmp_path):
        tracer, _ = traced_run
        spans = tracer.all_spans()
        path = write_perfetto(spans, str(tmp_path / "trace.json"))
        with open(path, "r", encoding="utf-8") as handle:
            document = json.loads(handle.read())
        categories = {e["cat"] for e in document["traceEvents"]
                      if e.get("ph") == "X"}
        assert len(categories & set(LAYERS)) >= 5
        # one pid per VM plus the host pid, one tid per layer
        pids = {e["pid"] for e in document["traceEvents"]}
        assert len(pids) == 2
        reloaded = spans_from_perfetto(document)
        assert len(reloaded) == len(spans)
        original = {s.span_id: s for s in spans}
        for span in reloaded:
            source = original[span.span_id]
            assert span.parent_id == source.parent_id
            assert span.duration == pytest.approx(source.duration,
                                                  abs=1e-9)

    def test_jsonl_export_is_lossless(self, traced_run, tmp_path):
        tracer, _ = traced_run
        spans = tracer.all_spans()
        path = write_jsonl(spans, str(tmp_path / "trace.jsonl"))
        reloaded = read_jsonl(path)
        assert len(reloaded) == len(spans)
        original = {s.span_id: s for s in spans}
        for span in reloaded:
            source = original[span.span_id]
            assert span.parent_id == source.parent_id
            assert span.start == source.start
            assert span.end == source.end
            assert span.attrs == source.attrs
        assert load_trace(path)[0].trace_id == spans[0].trace_id


class TestZeroCostWhenOff:
    def test_noop_default_is_bit_identical(self):
        """Installing and removing a tracer leaves untraced runs exactly
        as they were — the Figure 5 numbers cannot move."""
        baseline = run_virtualized(KMeansWorkload(scale=0.1), vm_id="vm-a")
        run_virtualized(KMeansWorkload(scale=0.1), vm_id="vm-b",
                        tracer=Tracer())
        again = run_virtualized(KMeansWorkload(scale=0.1), vm_id="vm-c")
        assert baseline.runtime == again.runtime
        assert baseline.accounts == again.accounts

    def test_tracing_observer_cost_is_priced_and_small(self):
        """With tracing on, the propagated (trace_id, span_id) really
        rides the wire, so the modeled cost moves — honestly, and only
        by the few extra bytes per command."""
        untraced = run_virtualized(KMeansWorkload(scale=0.1), vm_id="vm-u")
        traced = run_virtualized(KMeansWorkload(scale=0.1), vm_id="vm-t",
                                 tracer=Tracer())
        assert traced.runtime != untraced.runtime
        assert traced.runtime == pytest.approx(untraced.runtime,
                                               rel=1e-3)


class TestClockEventOptIn:
    def test_events_off_by_default(self):
        clock = VirtualClock("c")
        clock.advance(1.0, "a")
        assert clock.events == []

    def test_record_events_constructor_opt_in(self):
        clock = VirtualClock("c", record_events=True)
        clock.advance(1.0, "a")
        clock.advance(2.0, "b")
        assert clock.events == [(1.0, "a"), (3.0, "b")]
        clock.clear_events()
        assert clock.events == []

    def test_tracing_context_restores_opt_in(self):
        clock = VirtualClock("c", record_events=True)
        with clock.tracing():
            clock.advance(1.0, "a")
        clock.advance(1.0, "b")  # still recording: ctor opt-in persists
        assert clock.events == [(1.0, "a"), (2.0, "b")]


class TestTelemetryCli:
    @pytest.fixture(scope="class")
    def trace_file(self, tmp_path_factory):
        tracer = Tracer()
        run_virtualized(KMeansWorkload(scale=0.1), vm_id="vm-cli",
                        tracer=tracer)
        path = tmp_path_factory.mktemp("traces") / "run.jsonl"
        return write_jsonl(tracer.all_spans(), str(path))

    def test_cava_trace_breakdown(self, trace_file):
        from repro.telemetry.cli import run_trace

        output = run_trace(trace_file)
        assert "clEnqueueNDRangeKernel" in output
        assert "vm-cli" in output
        for layer in LAYERS:
            assert layer in output

    def test_cava_trace_filters(self, trace_file):
        from repro.telemetry.cli import run_trace

        output = run_trace(trace_file, function="clEnqueueNDRangeKernel")
        body = [line for line in output.splitlines() if "vm-cli" in line]
        assert body
        assert all("clEnqueueNDRangeKernel" in line for line in body)

    def test_cava_top_summary(self, trace_file):
        from repro.telemetry.cli import run_top

        output = run_top(trace_file)
        assert "vm-cli" in output
        assert "top function" in output

    def test_cli_entrypoint(self, trace_file, capsys):
        from repro.codegen.cli import main

        assert main(["trace", trace_file]) == 0
        assert main(["top", trace_file]) == 0
        out = capsys.readouterr().out
        assert "vm-cli" in out

    def test_cli_rejects_malformed_trace(self, tmp_path, capsys):
        from repro.codegen.cli import main

        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"not a span": true}\n[1,2,3\n')
        assert main(["trace", str(bad)]) == 2


class TestPerfettoFormat:
    def test_native_device_spans_land_on_host_pid(self):
        tracer = Tracer()
        tracer.record_span("device.compute", 0.0, 1.0, layer="device")
        document = perfetto_trace(tracer.all_spans())
        names = {e["args"]["name"] for e in document["traceEvents"]
                 if e["name"] == "process_name"}
        assert names == {"host"}


def _span(span_id, start, end, parent_id=None, name="op",
          layer="guest", kind="op", vm_id="v1"):
    return Span(trace_id="t", span_id=span_id, parent_id=parent_id,
                name=name, layer=layer, kind=kind, vm_id=vm_id,
                start=start, end=end)


class TestSelfTimeEdgeCases:
    def test_overlapping_children_clip_to_zero(self):
        # children together cover more than the parent: self time is 0,
        # never negative
        spans = [
            _span(1, 0.0, 1.0),
            _span(2, 0.0, 0.8, parent_id=1),
            _span(3, 0.3, 1.0, parent_id=1),
        ]
        own = self_times(spans)
        assert own[1] == 0.0
        assert own[2] == pytest.approx(0.8)
        assert own[3] == pytest.approx(0.7)

    def test_orphan_parent_id_is_harmless(self):
        # a child pointing at a span that is not in the set (cross-wire
        # parent, truncated trace) keeps its full duration
        spans = [_span(1, 0.0, 0.5, parent_id=999)]
        assert self_times(spans) == {1: pytest.approx(0.5)}

    def test_unfinished_spans_excluded(self):
        spans = [
            _span(1, 0.0, 1.0),
            _span(2, 0.2, None, parent_id=1),  # still open
        ]
        own = self_times(spans)
        assert 2 not in own
        assert own[1] == pytest.approx(1.0)  # open child charges nothing

    def test_breakdown_skips_containers(self):
        spans = [
            _span(1, 0.0, 10.0, kind="vm"),
            _span(2, 0.0, 10.0, kind="api", parent_id=1),
            _span(3, 0.0, 1.0, kind="function", parent_id=2),
            _span(4, 0.25, 0.75, parent_id=3, layer="transport"),
        ]
        shares = breakdown(spans, lambda s: s.layer)
        assert shares == {
            "guest": pytest.approx(0.5),
            "transport": pytest.approx(0.5),
        }

    def test_breakdown_empty_input(self):
        assert breakdown([], lambda s: s.layer) == {}
