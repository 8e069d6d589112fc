"""Tests for the happens-before layer: ``cava race`` (CAVA4xx), the
generated-code ordering agreement checks (CAVA308/309), and the shared
suppression-family split with ``cava lint``.

The ``ordering_*`` specs under ``tests/specs_bad/`` are the negative
corpus — one per CAVA40x code, every one of which validates.
"""

import json
import os

import pytest

from repro.analysis import (
    CODE_TABLE,
    Severity,
    analyze_generated_ordering,
    analyze_ordering,
    build_hb_model,
    lint_path,
    race_path,
    race_spec,
)
from repro.apis import APIS
from repro.codegen.cli import main as cava_main
from repro.codegen.generator import GeneratedSources, generate_sources
from repro.spec import parse_spec
from repro.spec.parser import parse_spec_file
from repro.stack import default_specs_dir

BAD_DIR = os.path.join(os.path.dirname(__file__), "specs_bad")

ORDERING_SEEDS = {
    "ordering_async_output": "CAVA401",
    "ordering_noncommuting": "CAVA402",
    "ordering_async_release_batch": "CAVA403",
    "ordering_stale_elision": "CAVA404",
}


def bad_spec(name):
    return parse_spec_file(os.path.join(BAD_DIR, name + ".cava"))


def bad_path(name):
    return os.path.join(BAD_DIR, name + ".cava")


def shipped(api):
    return os.path.join(default_specs_dir(), f"{api}.cava")


def codes(report):
    return {d.code for d in report.diagnostics}


class TestHBModel:
    def test_opencl_classifications(self):
        model = build_hb_model(parse_spec_file(shipped("opencl")))
        assert model.functions["clFinish"].classification == "sync"
        assert model.functions["clSetKernelArg"].classification == "async"
        # blocking_write toggles the mode at runtime
        assert model.functions["clEnqueueWriteBuffer"].classification \
            == "conditional"
        assert model.functions["clEnqueueWriteBuffer"].can_async
        assert "clFinish" in model.sync_points

    def test_alias_classes_group_void_pointers(self):
        model = build_hb_model(parse_spec_file(shipped("opencl")))
        write = next(
            a for a in model.functions["clEnqueueWriteBuffer"].accesses
            if a.param == "ptr"
        )
        read = next(
            a for a in model.functions["clEnqueueReadBuffer"].accesses
            if a.param == "ptr"
        )
        assert write.alias_class == read.alias_class
        assert write.writes_device and not write.writes_guest
        assert read.writes_guest and not read.writes_device

    def test_conflicts_and_commutes(self):
        model = build_hb_model(parse_spec_file(shipped("opencl")))
        assert model.conflicts("clEnqueueWriteBuffer",
                               "clEnqueueReadBuffer")
        assert not model.commutes("clEnqueueWriteBuffer",
                                  "clEnqueueReadBuffer")
        pairs = model.noncommuting_pairs()
        assert ("clEnqueueReadBuffer", "clEnqueueWriteBuffer") in pairs

    def test_release_vs_use_breaks_commutation_without_buffers(self):
        model = build_hb_model(bad_spec("ordering_async_release_batch"))
        assert not model.conflicts("freeWidget", "touchWidget")
        assert not model.commutes("freeWidget", "touchWidget")

    def test_sync_points_empty_for_all_async_api(self):
        model = build_hb_model(bad_spec("ordering_async_output"))
        assert model.sync_points == []
        assert {f.name for f in model.async_capable()} \
            == {"submit", "poll"}


class TestOrderingDiagnostics:
    @pytest.mark.parametrize("name,code", sorted(ORDERING_SEEDS.items()))
    def test_seed_fires_exactly_its_code(self, name, code):
        spec = bad_spec(name)
        assert spec.validate() == []  # per-function checks pass
        diags, checks = analyze_ordering(spec)
        assert {d.code for d in diags} == {code}
        assert checks > 0

    @pytest.mark.parametrize("name,code", sorted(ORDERING_SEEDS.items()))
    def test_codes_are_registered(self, name, code):
        assert code in CODE_TABLE

    def test_401_is_error_the_rest_warnings(self):
        severities = {
            code: CODE_TABLE[code][0]
            for code in ("CAVA401", "CAVA402", "CAVA403", "CAVA404")
        }
        assert severities["CAVA401"] is Severity.ERROR
        assert all(severities[c] is Severity.WARNING
                   for c in ("CAVA402", "CAVA403", "CAVA404"))

    def test_sync_point_discharges_401(self):
        spec = parse_spec(
            "api(ok);\n"
            "int submit(int job) { async; }\n"
            "int poll(unsigned int *status) {\n"
            "  async; parameter(status) { out; nullable; buffer(1); }\n"
            "}\n"
            "int wait();\n"  # sync-capable: orders the reply application
        )
        diags, _ = analyze_ordering(spec)
        assert not any(d.code == "CAVA401" for d in diags)

    def test_sync_only_api_is_clean(self):
        spec = parse_spec(
            "api(calm);\n"
            "int send(const void *data, unsigned int data_size) {\n"
            "  parameter(data) { buffer(data_size); }\n"
            "}\n"
            "int recv(void *dst, unsigned int dst_size) {\n"
            "  parameter(dst) { out; buffer(dst_size); }\n"
            "}\n"
        )
        diags, _ = analyze_ordering(spec)
        assert diags == []


class TestGeneratedOrdering:
    """CAVA308/309: the generated stack must embed the HB contract."""

    def _sources(self, api="mvnc"):
        spec = parse_spec_file(shipped(api))
        return spec, generate_sources(spec, "repro.mvnc.api")

    def _tampered(self, sources, field_name, old, new):
        fields = {
            "api_name": sources.api_name,
            "guest_source": sources.guest_source,
            "server_source": sources.server_source,
            "routing_source": sources.routing_source,
        }
        assert old in fields[field_name], f"{old!r} not in {field_name}"
        fields[field_name] = fields[field_name].replace(old, new, 1)
        return GeneratedSources(**fields)

    def test_clean_stack_passes(self):
        spec, sources = self._sources()
        diags, checks = analyze_generated_ordering(spec, sources=sources)
        assert diags == []
        assert checks > len(
            [f for f in spec.functions.values() if not f.unsupported])

    def test_stub_mode_flip_caught(self):
        spec, sources = self._sources()
        tampered = self._tampered(
            sources, "guest_source",
            "        _mode = 'async'\n"
            "        return _rt.submit('mvncLoadTensor'",
            "        _mode = 'sync'\n"
            "        return _rt.submit('mvncLoadTensor'",
        )
        diags, _ = analyze_generated_ordering(spec, sources=tampered)
        assert any(d.code == "CAVA308" and d.subject == "mvncLoadTensor"
                   for d in diags)

    def test_stub_bypassing_runtime_caught(self):
        spec, sources = self._sources()
        tampered = self._tampered(
            sources, "guest_source",
            "return _rt.submit('mvncLoadTensor'",
            "return _rt.transport.send('mvncLoadTensor'",
        )
        diags, _ = analyze_generated_ordering(spec, sources=tampered)
        assert any(d.code == "CAVA308" and d.subject == "mvncLoadTensor"
                   for d in diags)

    def test_routing_misclassification_caught(self):
        spec, sources = self._sources()
        tampered = self._tampered(
            sources, "routing_source",
            "'mvncLoadTensor': 'async'",
            "'mvncLoadTensor': 'sync'",
        )
        diags, _ = analyze_generated_ordering(spec, sources=tampered)
        assert any(d.code == "CAVA309" and "mvncLoadTensor" in d.message
                   for d in diags)

    def test_routing_metadata_not_attached_caught(self):
        spec, sources = self._sources()
        tampered = self._tampered(
            sources, "routing_source",
            "    table.sync_points = list(SYNC_POINTS)\n",
            "",
        )
        diags, _ = analyze_generated_ordering(spec, sources=tampered)
        assert any(d.code == "CAVA309" for d in diags)

    def test_generated_sources_carry_ordering(self):
        spec, sources = self._sources()
        assert sources.ordering["mvncLoadTensor"] == "async"
        assert sources.ordering["mvncOpenDevice"] == "sync"

    def test_routing_table_from_spec_carries_ordering(self):
        spec, sources = self._sources()
        namespace = {}
        exec(sources.routing_source, namespace)
        table = namespace["build_table"]()
        assert table.ordering["mvncLoadTensor"] == "async"
        assert "mvncOpenDevice" in table.sync_points
        assert "mvncLoadTensor" not in table.sync_points


class TestRaceCli:
    def test_shipped_specs_pass_warning_gate(self, capsys):
        specs = [shipped(api) for api, plugin in APIS.items()
                 if isinstance(plugin.spec, str)]
        assert cava_main(["race", *specs, "--fail-on", "warning"]) == 0
        out = capsys.readouterr().out
        assert out.count("race '") == len(specs)

    def test_opencl_triage_is_suppressions_not_silence(self):
        report = race_path(shipped("opencl"))
        assert not report.diagnostics
        suppressed = {d.code for d, _why in report.suppressed}
        assert {"CAVA402", "CAVA403", "CAVA404"} <= suppressed

    def test_error_seed_exits_one(self, capsys):
        assert cava_main(
            ["race", bad_path("ordering_async_output")]) == 1
        assert "CAVA401" in capsys.readouterr().out

    def test_fail_on_threshold(self, capsys):
        warn_only = bad_path("ordering_noncommuting")
        assert cava_main(["race", warn_only, "--fail-on", "error"]) == 0
        assert cava_main(["race", warn_only, "--fail-on", "warning"]) == 1

    def test_json_output(self, capsys):
        assert cava_main([
            "race", bad_path("ordering_stale_elision"), "--json",
            "--fail-on", "warning",
        ]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["api"] == "staley"
        assert document["tool"] == "race"
        assert any(d["code"] == "CAVA404"
                   for d in document["diagnostics"])

    def test_explicit_suppress_file(self, tmp_path, capsys):
        supp = tmp_path / "mute.lint"
        supp.write_text(
            "CAVA402 upload.data: single-producer stream, uploads are "
            "idempotent\n"
            "CAVA402 fill.pattern: single-producer stream, fills are "
            "idempotent\n")
        assert cava_main([
            "race", bad_path("ordering_noncommuting"),
            "--suppress", str(supp), "--fail-on", "warning",
        ]) == 0


class TestFamilySeparation:
    """One ``.lint`` file serves both tools; neither flags the other's
    entries as stale."""

    def test_lint_ignores_race_suppressions(self):
        report = lint_path(shipped("opencl"))
        assert report.gate("warning")
        assert not any(d.code == "CAVA002" for d in report.diagnostics)

    def test_race_ignores_lint_suppressions(self):
        report = race_path(shipped("opencl"))
        assert report.gate("warning")
        assert not any(d.code == "CAVA002" for d in report.diagnostics)

    def test_race_flags_stale_race_entries(self, tmp_path):
        supp = tmp_path / "mute.lint"
        supp.write_text(
            "CAVA403 nothing.here: this ordering finding never fires\n")
        spec_path = tmp_path / "calm.cava"
        spec_path.write_text("api(calm);\nint ping(int n);\n")
        report = race_path(str(spec_path), suppress_path=str(supp))
        assert any(d.code == "CAVA002" for d in report.diagnostics)

    def test_invalid_spec_reports_cava100(self, tmp_path):
        spec_path = tmp_path / "broken.cava"
        spec_path.write_text(
            "api(broken);\n"
            "int f(const void *data) {\n"
            "  parameter(data) { buffer(nosuch); }\n"
            "}\n")
        report = race_path(str(spec_path))
        assert "CAVA100" in codes(report)
        assert not report.gate("error")
