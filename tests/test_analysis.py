"""Tests for ``repro.analysis`` — the deep static-analysis pass.

The bad specs under ``tests/specs_bad/`` are the negative corpus: each
exercises at least one diagnostic per ``CAVA`` code family, and every
one of them passes ``spec.validate()`` — the whole point of the lint
pass is the cross-function properties per-function validation cannot
see.  The ``validate_*`` seeds are the exception: they hold
``validate()``'s own rules (``tests/test_spec_parser.py``).
"""

import json
import os

import pytest

from repro.analysis import (
    CODE_TABLE,
    Severity,
    analyze_generated,
    lint_path,
    lint_spec,
    parse_suppressions,
)
from repro.analysis.genast import analyze_generated_codec
from repro.analysis.suppressions import apply_suppressions
from repro.apis import APIS
from repro.codegen.cli import main as cava_main
from repro.codegen.generator import GeneratedSources, generate_sources
from repro.spec import parse_spec
from repro.spec.parser import parse_spec_file
from repro.stack import default_specs_dir

BAD_DIR = os.path.join(os.path.dirname(__file__), "specs_bad")
#: the registered APIs whose spec is a shipped ``.cava`` file
SHIPPED = [name for name, plugin in APIS.items()
           if isinstance(plugin.spec, str)]


def bad_spec(name):
    return parse_spec_file(os.path.join(BAD_DIR, name + ".cava"))


def lint_bad(name):
    return lint_spec(bad_spec(name))


def codes(report):
    return {d.code for d in report.diagnostics}


class TestDataflow:
    def test_out_scalar_in_size_expr_caught(self):
        spec = bad_spec("dataflow_out_scalar_size")
        assert spec.validate() == []         # per-function checks pass
        report = lint_spec(spec)
        assert "CAVA101" in codes(report)    # the lint pass does not
        assert not report.gate("error")

    def test_out_scalar_in_sync_condition_and_resources(self):
        report = lint_bad("dataflow_out_condition")
        assert {"CAVA102", "CAVA103"} <= codes(report)

    def test_shrinks_to_buffer_caught(self):
        spec = bad_spec("dataflow_shrinks_buffer")
        assert spec.validate() == []
        report = lint_spec(spec)
        assert "CAVA104" in codes(report)

    def test_pointer_valued_size_expr_caught(self):
        report = lint_bad("dataflow_ptr_size")
        assert "CAVA106" in codes(report)

    def test_aliasable_in_out_pair_warned(self):
        report = lint_bad("dataflow_alias")
        diags = [d for d in report.diagnostics if d.code == "CAVA105"]
        assert diags and diags[0].severity is Severity.WARNING

    def test_self_referential_size_caught(self):
        spec = parse_spec(
            "api(x);\n"
            "int f(const void *data) { parameter(data) { buffer(data); } }\n"
        )
        report = lint_spec(spec)
        assert "CAVA107" in codes(report)

    def test_clean_spec_has_no_dataflow_findings(self):
        spec = parse_spec(
            "api(x);\n"
            "int f(const void *data, unsigned int data_size) {\n"
            "  parameter(data) { buffer(data_size); }\n"
            "}\n"
        )
        assert not codes(lint_spec(spec)) & {
            "CAVA101", "CAVA102", "CAVA103", "CAVA104", "CAVA105",
            "CAVA106", "CAVA107",
        }


class TestLifecycle:
    def test_release_without_producer_is_error(self):
        spec = bad_spec("lifecycle_release_no_producer")
        assert spec.validate() == []
        report = lint_spec(spec)
        diags = [d for d in report.diagnostics if d.code == "CAVA201"]
        assert diags and diags[0].severity is Severity.ERROR
        assert not report.gate("error")

    def test_leaked_handle_type_is_warning(self):
        spec = bad_spec("lifecycle_leak")
        assert spec.validate() == []
        report = lint_spec(spec)
        assert "CAVA202" in codes(report)
        assert report.gate("error") and not report.gate("warning")

    def test_double_release_in_one_call(self):
        report = lint_bad("lifecycle_double_release")
        assert "CAVA203" in codes(report)

    def test_array_release_is_double_release_hazard(self):
        spec = parse_spec(
            "api(x);\ntype(widget) { handle; }\n"
            "widget makeWidget(int kind);\n"
            "int freeAll(const widget *list, unsigned int list_size) {\n"
            "  parameter(list) { buffer(list_size); deallocates; }\n"
            "}\n"
        )
        assert "CAVA203" in codes(lint_spec(spec))

    def test_async_release_races_sync_use(self):
        report = lint_bad("lifecycle_async_release")
        assert "CAVA204" in codes(report)

    def test_unkeyed_recorded_modify_is_warned(self):
        spec = bad_spec("lifecycle_unkeyed_modify")
        assert spec.validate() == []
        report = lint_spec(spec)
        flagged = [d for d in report.diagnostics if d.code == "CAVA205"]
        # setMode, which declares its key, is not flagged
        assert [d.subject for d in flagged] == ["setGain"]
        assert flagged[0].severity is Severity.WARNING
        assert report.gate("error") and not report.gate("warning")
        justified = parse_suppressions(
            "CAVA205 setGain: every gain step is replayed on purpose\n")
        assert lint_spec(spec, suppressions=justified).gate("warning")

    def test_sync_release_does_not_race(self):
        spec = parse_spec(
            "api(x);\ntype(widget) { handle; }\n"
            "widget makeWidget(int kind);\n"
            "int pokeWidget(widget w);\n"
            "int freeWidget(widget w) { parameter(w) { deallocates; } }\n"
        )
        assert "CAVA204" not in codes(lint_spec(spec))


class TestGeneratedAst:
    """Layer 3: invariants of the generated stack itself."""

    def _sources(self, api="mvnc"):
        spec = parse_spec_file(
            os.path.join(default_specs_dir(), f"{api}.cava"))
        return spec, generate_sources(spec, "repro.mvnc.api")

    def _tampered(self, sources, **replacements):
        fields = {
            "api_name": sources.api_name,
            "guest_source": sources.guest_source,
            "server_source": sources.server_source,
            "routing_source": sources.routing_source,
            "codec_source": sources.codec_source,
        }
        for field_name, (old, new) in replacements.items():
            assert old in fields[field_name], f"{old!r} not in {field_name}"
            fields[field_name] = fields[field_name].replace(old, new, 1)
        return GeneratedSources(**fields)

    def test_shrinks_to_buffer_spec_caught_by_ast_layer_alone(self):
        """A seeded bad *spec* (not tampered source) that validates and
        the generated-AST layer rejects."""
        spec = bad_spec("dataflow_shrinks_buffer")
        assert spec.validate() == []
        diags, _ = analyze_generated(spec)
        assert any(d.code == "CAVA307" for d in diags)

    def test_clean_stack_passes(self):
        spec, sources = self._sources()
        diags, checks = analyze_generated(spec, sources=sources)
        assert diags == []
        assert checks > 30

    def test_decode_reorder_caught(self):
        spec, sources = self._sources()
        block = (
            "    input_tensor = cmd.in_buffers.get('input_tensor')\n"
            "    input_tensor_length = cmd.scalars.get('input_tensor_length')\n"
        )
        swapped = (
            "    input_tensor_length = cmd.scalars.get('input_tensor_length')\n"
            "    input_tensor = cmd.in_buffers.get('input_tensor')\n"
        )
        tampered = self._tampered(
            sources, server_source=(block, swapped))
        diags, _ = analyze_generated(spec, sources=tampered)
        assert any(d.code == "CAVA301" and d.subject == "mvncLoadTensor"
                   for d in diags)

    def test_handle_translation_bypass_caught(self):
        spec, sources = self._sources()
        tampered = self._tampered(sources, server_source=(
            "worker.handles.lookup_optional(cmd.handles.get('graph_handle'))",
            "cmd.handles.get('graph_handle')",
        ))
        diags, _ = analyze_generated(spec, sources=tampered)
        assert any(d.code == "CAVA302" for d in diags)

    def test_unbound_out_handle_caught(self):
        spec, sources = self._sources()
        tampered = self._tampered(sources, server_source=(
            "worker.bind('graph_handle', graph_handle.value)",
            "graph_handle.value",
        ))
        diags, _ = analyze_generated(spec, sources=tampered)
        assert any(d.code == "CAVA302"
                   and "graph_handle" in d.subject for d in diags)

    def test_async_unguarded_output_caught(self):
        spec = parse_spec(
            "api(t);\n"
            "int f(int n, float *out_data, int out_data_size) {\n"
            "  async;\n"
            "  parameter(out_data) { out; buffer(out_data_size); "
            "nullable; }\n"
            "}\n"
        )
        sources = generate_sources(spec, "nowhere.native")
        assert not any(d.code == "CAVA303"
                       for d in analyze_generated(spec, sources=sources)[0])
        broken = GeneratedSources(
            api_name=sources.api_name,
            guest_source=sources.guest_source.replace(
                "if out_data is not None:", "if True:", 1),
            server_source=sources.server_source,
            routing_source=sources.routing_source,
            codec_source=sources.codec_source,
        )
        diags, _ = analyze_generated(spec, sources=broken)
        assert any(d.code == "CAVA303" for d in diags)

    def test_untyped_raise_caught(self):
        spec = parse_spec("api(t);\nint f(void *mystery);\n")
        sources = generate_sources(spec, "nowhere.native")
        assert "raise RemotingError" in sources.guest_source
        broken = GeneratedSources(
            api_name=sources.api_name,
            guest_source=sources.guest_source.replace(
                "raise RemotingError", "raise ValueError", 1),
            server_source=sources.server_source,
            routing_source=sources.routing_source,
            codec_source=sources.codec_source,
        )
        diags, _ = analyze_generated(spec, sources=broken)
        assert any(d.code == "CAVA304" for d in diags)

    def test_swallowing_except_caught(self):
        spec, sources = self._sources()
        tampered = self._tampered(sources, server_source=(
            "_ret = _native.mvncLoadTensor",
            "try:\n"
            "        pass\n"
            "    except Exception:\n"
            "        pass\n"
            "    _ret = _native.mvncLoadTensor",
        ))
        diags, _ = analyze_generated(spec, sources=tampered)
        assert any(d.code == "CAVA304" for d in diags)

    def test_missing_size_assertion_caught(self):
        spec, sources = self._sources()
        tampered = self._tampered(sources, guest_source=(
            "_assert_size(_n, 'input_tensor', 'mvncLoadTensor')",
            "pass",
        ))
        diags, _ = analyze_generated(spec, sources=tampered)
        assert any(d.code == "CAVA305"
                   and d.subject == "mvncLoadTensor.input_tensor"
                   for d in diags)

    def test_function_set_drift_caught(self):
        spec, sources = self._sources()
        tampered = self._tampered(sources, guest_source=(
            "'mvncLoadTensor', ", "",
        ))
        diags, _ = analyze_generated(spec, sources=tampered)
        assert any(d.code == "CAVA306"
                   and "mvncLoadTensor" in d.message for d in diags)

    # -- CAVA310/311/312: the marshaling fast path ------------------------

    def test_missing_codec_module_caught(self):
        spec, sources = self._sources()
        stripped = GeneratedSources(
            api_name=sources.api_name,
            guest_source=sources.guest_source,
            server_source=sources.server_source,
            routing_source=sources.routing_source,
            codec_source="",
        )
        diags, _ = analyze_generated(spec, sources=stripped)
        assert any(d.code == "CAVA310" for d in diags)

    def test_codec_function_drift_caught(self):
        spec, sources = self._sources()
        # drop one function's whole LAYOUT entry (tables go stale)
        start = sources.codec_source.index("    'mvncLoadTensor': {")
        end = (sources.codec_source.index("\n    },", start)
               + len("\n    },\n"))
        tampered = self._tampered(sources, codec_source=(
            sources.codec_source[start:end], "",
        ))
        diags, _ = analyze_generated(spec, sources=tampered)
        assert any(d.code == "CAVA310"
                   and "mvncLoadTensor" in d.message for d in diags)

    def test_codec_layout_drift_caught(self):
        spec, sources = self._sources()
        # misfile the tensor payload as a scalar section entry
        tampered = self._tampered(sources, codec_source=(
            "'inbufs': ['input_tensor'],",
            "'inbufs': [],",
        ))
        diags, _ = analyze_generated(spec, sources=tampered)
        assert any(d.code == "CAVA311"
                   and d.subject == "mvncLoadTensor" for d in diags)

    def test_codec_function_definition_caught(self):
        spec, sources = self._sources()
        # marshaling code of the module's own, instead of the shared
        # bounds-checked walkers
        tampered = self._tampered(sources, codec_source=(
            "del _fn, _lay\n",
            "del _fn, _lay\n\n\n"
            "def decode_command_mvncLoadTensor(data):\n"
            "    return data[6:]\n",
        ))
        diags, _ = analyze_generated(spec, sources=tampered)
        assert any(d.code == "CAVA312"
                   and d.subject == "decode_command_mvncLoadTensor"
                   for d in diags)

    def test_codec_struct_import_caught(self):
        spec, sources = self._sources()
        tampered = self._tampered(sources, codec_source=(
            "from repro.remoting import speccodec as _sc",
            "import struct\nfrom repro.remoting import speccodec as _sc",
        ))
        diags, _ = analyze_generated(spec, sources=tampered)
        assert any(d.code == "CAVA312" and "struct" in d.message
                   for d in diags)

    @pytest.mark.parametrize("api", SHIPPED)
    def test_shipped_codec_modules_hold_tables_only(self, api):
        spec, sources = self._sources(api)
        diags, _ = analyze_generated_codec(spec, sources=sources)
        assert diags == []
        assert "def " not in sources.codec_source


class TestSuppressions:
    def test_entry_matches_and_silences(self):
        report = lint_bad("lifecycle_leak")
        assert "CAVA202" in codes(report)
        supp = parse_suppressions(
            "CAVA202 widget: widgets are process-lifetime by design\n")
        apply_suppressions(report, supp)
        assert "CAVA202" not in codes(report)
        assert len(report.suppressed) == 1
        _diag, why = report.suppressed[0]
        assert "process-lifetime" in why

    def test_wildcard_subject(self):
        report = lint_bad("dataflow_alias")
        supp = parse_suppressions(
            "CAVA105 *: callers never alias in this workload corpus\n")
        apply_suppressions(report, supp)
        assert "CAVA105" not in codes(report)

    def test_missing_justification_is_error(self):
        supp = parse_suppressions("CAVA202 widget: nope\n")
        assert not supp.entries
        assert any(d.code == "CAVA001" for d in supp.problems)

    def test_malformed_line_is_error(self):
        supp = parse_suppressions("CAVA202 no colon here\n")
        assert any(d.code == "CAVA001" for d in supp.problems)

    def test_unknown_code_is_error(self):
        # a typo'd code (CAVA4O1 for CAVA401...) could never match a
        # finding; it is reported as a stale entry (CAVA002), not as a
        # malformed line — the line itself parses fine
        supp = parse_suppressions(
            "CAVA999 thing: this code does not exist in the table\n")
        assert any(d.code == "CAVA002" for d in supp.problems)
        assert not any(d.code == "CAVA001" for d in supp.problems)

    def test_typoed_code_is_error(self):
        supp = parse_suppressions(
            "CAVA4O1 thing: letter O typo for CAVA401\n")
        assert any(d.code == "CAVA002" for d in supp.problems)

    def test_unused_entry_reported(self):
        report = lint_bad("lifecycle_leak")
        supp = parse_suppressions(
            "CAVA203 widget: suppresses a diagnostic that never fires\n")
        apply_suppressions(report, supp)
        assert any(d.code == "CAVA002" for d in report.diagnostics)
        assert "CAVA202" in codes(report)  # the real finding survives

    def test_comments_and_blanks_ignored(self):
        supp = parse_suppressions("# header\n\n   \n# more\n")
        assert not supp.entries and not supp.problems


class TestShippedSpecs:
    """Acceptance: all three shipped specs pass at --fail-on error."""

    @pytest.mark.parametrize("api", SHIPPED)
    def test_fail_on_error_passes(self, api):
        path = os.path.join(default_specs_dir(), f"{api}.cava")
        report = lint_path(path)
        assert report.gate("error"), report.format()
        # with the shipped suppression files, warnings are clean too
        assert report.gate("warning"), report.format()

    def test_opencl_true_positives_are_suppressed_with_justification(self):
        path = os.path.join(default_specs_dir(), "opencl.cava")
        report = lint_path(path)
        suppressed_codes = {d.code for d, _ in report.suppressed}
        assert {"CAVA202", "CAVA204", "CAVA205"} <= suppressed_codes
        assert all(why.strip() for _, why in report.suppressed)

    def test_global_work_offset_regression(self):
        """The CAVA106 true positive lint found: inference sized
        global_work_offset with global_work_size (a pointer)."""
        path = os.path.join(default_specs_dir(), "opencl.cava")
        spec = parse_spec_file(path)
        param = spec.function("clEnqueueNDRangeKernel").param(
            "global_work_offset")
        assert param.is_scalar_array and param.nullable

    def test_every_code_in_table_is_documented_severity(self):
        for code, (severity, title) in CODE_TABLE.items():
            assert isinstance(severity, Severity)
            assert len(title) > 10


class TestLintCLI:
    def _spec(self, name):
        return os.path.join(BAD_DIR, name + ".cava")

    def test_shipped_specs_exit_zero(self, capsys):
        specs = [os.path.join(default_specs_dir(), f"{api}.cava")
                 for api in SHIPPED]
        assert cava_main(["lint", *specs, "--fail-on", "error"]) == 0
        out = capsys.readouterr().out
        assert out.count("lint '") == len(specs)

    def test_error_spec_exits_one(self, capsys):
        assert cava_main(
            ["lint", self._spec("dataflow_out_scalar_size")]) == 1
        assert "CAVA101" in capsys.readouterr().out

    def test_fail_on_threshold(self, capsys):
        warn_only = self._spec("dataflow_alias")
        assert cava_main(["lint", warn_only, "--fail-on", "error"]) == 0
        assert cava_main(["lint", warn_only, "--fail-on", "warning"]) == 1

    def test_json_output(self, capsys):
        assert cava_main([
            "lint", self._spec("lifecycle_leak"), "--json",
            "--fail-on", "warning",
        ]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["api"] == "leaky"
        assert any(d["code"] == "CAVA202"
                   for d in document["diagnostics"])

    def test_json_multi_spec_is_a_list(self, capsys):
        assert cava_main([
            "lint", self._spec("lifecycle_leak"),
            self._spec("dataflow_alias"), "--json",
            "--fail-on", "warning",
        ]) == 1
        document = json.loads(capsys.readouterr().out)
        assert [entry["api"] for entry in document] == ["leaky", "aliasy"]

    def test_explicit_suppress_file(self, tmp_path, capsys):
        supp = tmp_path / "mute.lint"
        supp.write_text(
            "CAVA202 widget: widgets are process-lifetime in this corpus\n")
        assert cava_main([
            "lint", self._spec("lifecycle_leak"),
            "--suppress", str(supp), "--fail-on", "warning",
        ]) == 0

    def test_missing_suppress_file_is_cli_error(self, capsys):
        assert cava_main([
            "lint", self._spec("lifecycle_leak"),
            "--suppress", "/nonexistent.lint",
        ]) == 2
        assert "suppression" in capsys.readouterr().err

    def test_bad_suppression_entry_gates_the_run(self, tmp_path, capsys):
        supp = tmp_path / "bad.lint"
        supp.write_text("CAVA105 thing\n")  # malformed: no justification
        assert cava_main([
            "lint", self._spec("dataflow_alias"),
            "--suppress", str(supp),
        ]) == 1
        assert "CAVA001" in capsys.readouterr().out


class TestVerifyStrict:
    """``cava lint --fail-on warning`` is the strict gate: warnings
    alone fail it."""

    def test_strict_gates_warnings(self, tmp_path, capsys):
        spec = tmp_path / "warny.cava"
        # an opaque parameter lints clean of errors but with a warning
        spec.write_text("api(w);\nint f(void *pfn_notify);\n")
        assert cava_main(["lint", str(spec)]) == 0
        assert cava_main(["lint", str(spec), "--fail-on", "warning"]) == 1
        out = capsys.readouterr().out
        assert "WARNING CAVA108" in out

    def test_strict_clean_spec_still_passes(self, tmp_path):
        spec = tmp_path / "clean.cava"
        spec.write_text(
            "api(c);\n"
            "int f(const void *data, unsigned int data_size) {\n"
            "  parameter(data) { buffer(data_size); }\n"
            "}\n"
        )
        assert cava_main(["lint", str(spec), "--fail-on", "warning"]) == 0


class TestVerifyDeterminism:
    def test_multi_param_warning_is_sorted(self):
        spec = parse_spec(
            "api(x);\nint f(void *zeta, void *alpha, void *mid);\n")
        diag = next(d for d in lint_spec(spec).diagnostics
                    if d.code == "CAVA108")
        assert "['alpha', 'mid', 'zeta']" in diag.message


def findings(report, code):
    return [d for d in report.diagnostics if d.code == code]


class TestSpecPropertyFindings:
    """The per-function spec properties lint reports alongside its
    dataflow and lifecycle analyses: opaque and unsized parameters,
    orphan and mis-annotated handles, and migration records that
    cannot do what their category says."""

    def test_opaque_parameters_warned_per_function(self):
        spec = parse_spec("api(x);\nint f(void *pfn_notify, float scale);\n")
        [diag] = findings(lint_spec(spec), "CAVA108")
        assert diag.subject == "f" and diag.severity is Severity.WARNING
        assert "pfn_notify" in diag.message and "NULL" in diag.message

    def test_anyvalue_without_size_warned(self):
        spec = parse_spec(
            "api(x);\nint setArg(int index, const void *value) {\n"
            "  parameter(value) { anyvalue; }\n}\n")
        [diag] = findings(lint_spec(spec), "CAVA109")
        assert diag.subject == "setArg.value"
        assert diag.severity is Severity.WARNING

    def test_sized_anyvalue_not_warned(self):
        spec = parse_spec(
            "api(x);\n"
            "int setArg(int index, const void *value, unsigned int n) {\n"
            "  parameter(value) { anyvalue; buffer(n); }\n}\n")
        assert not findings(lint_spec(spec), "CAVA109")

    def test_used_but_never_produced_warned(self):
        spec = parse_spec(
            "api(x);\ntype(hdl) { handle; }\nint useIt(hdl h);")
        [diag] = findings(lint_spec(spec), "CAVA206")
        assert diag.subject == "hdl" and diag.severity is Severity.WARNING
        assert "never produced" in diag.message

    def test_release_without_producer_is_only_cava201(self):
        report = lint_bad("lifecycle_release_no_producer")
        assert findings(report, "CAVA201")
        assert not findings(report, "CAVA206")

    def test_deallocates_on_non_handle_is_error(self):
        spec = parse_spec(
            "api(x);\nint f(int plain) "
            "{ parameter(plain) { deallocates; } }")
        report = lint_spec(spec)
        [diag] = findings(report, "CAVA207")
        assert diag.subject == "f.plain"
        assert diag.severity is Severity.ERROR
        assert not report.gate("error")

    def test_record_create_without_handle_output_warned(self):
        spec = parse_spec(
            "api(x);\nint makeNothing(int n) { record(create); }\n")
        [diag] = findings(lint_spec(spec), "CAVA208")
        assert diag.subject == "makeNothing"
        assert diag.severity is Severity.WARNING

    def test_record_destroy_without_deallocates_warned(self):
        spec = parse_spec(
            "api(x);\ntype(hdl) { handle; }\nhdl makeIt(int n);\n"
            "int dropIt(hdl h) { record(destroy); }\n"
            "int freeIt(hdl h) { parameter(h) { deallocates; } }\n")
        assert [d.subject for d in findings(lint_spec(spec), "CAVA208")] \
            == ["dropIt"]

    def test_opencl_opaque_parameters_are_justified(self):
        report = lint_path(
            os.path.join(default_specs_dir(), "opencl.cava"))
        suppressed = sorted(d.subject for d, _ in report.suppressed
                            if d.code == "CAVA108")
        assert suppressed == [
            "clBuildProgram", "clCompileProgram", "clCreateContext",
            "clCreateImage", "clCreateProgramWithSource",
        ]
        assert report.gate("warning")
        assert "suppressed CAVA108 clCreateContext" in \
            report.format(verbose=True)
