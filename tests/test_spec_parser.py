"""Unit tests for the CAvA spec-language parser (Figure 4 syntax)."""

import os
import textwrap

import pytest

from repro.analysis import lint_spec
from repro.codegen.guest_gen import _mode_expr
from repro.spec import parse_spec, parse_spec_file
from repro.spec.errors import SpecSemanticError, SpecSyntaxError
from repro.spec.model import Direction, RecordKind, SyncMode

FIGURE4 = """
api(opencl);
type(cl_int) { success(CL_SUCCESS); }
type(cl_command_queue) { handle; }
type(cl_mem) { handle; }
type(cl_event) { handle; }

cl_int clEnqueueReadBuffer(
    cl_command_queue command_queue,
    cl_mem buf, cl_bool blocking_read,
    size_t offset, size_t size, void *ptr,
    cl_uint num_events_in_wait_list,
    const cl_event *event_wait_list, cl_event *event) {
  if (blocking_read == CL_TRUE) sync; else async;
  parameter(ptr) { out; buffer(size); }
  parameter(event_wait_list) {
    buffer(num_events_in_wait_list); }
  parameter(event) { out; element { allocates; } }
}
"""


@pytest.fixture()
def figure4_spec():
    spec = parse_spec(FIGURE4)
    spec.constants.setdefault("CL_TRUE", 1.0)
    spec.constants.setdefault("CL_SUCCESS", 0.0)
    return spec


class TestFigure4:
    def test_api_name(self, figure4_spec):
        assert figure4_spec.name == "opencl"

    def test_type_success_annotation(self, figure4_spec):
        assert figure4_spec.types["cl_int"].success_value == "CL_SUCCESS"

    def test_handle_types(self, figure4_spec):
        assert figure4_spec.types["cl_mem"].is_handle
        assert "cl_mem" in figure4_spec.handle_types()

    def test_conditional_sync(self, figure4_spec):
        func = figure4_spec.function("clEnqueueReadBuffer")
        # the mode expression the generated guest stub runs
        mode = _mode_expr(figure4_spec, func)
        assert eval(mode, {"blocking_read": 1}) == SyncMode.SYNC.value
        assert eval(mode, {"blocking_read": 0}) == SyncMode.ASYNC.value

    def test_out_buffer_with_size_expr(self, figure4_spec):
        param = figure4_spec.function("clEnqueueReadBuffer").param("ptr")
        assert param.direction is Direction.OUT
        assert param.buffer_size.names() == {"size"}
        assert not param.buffer_is_elements  # void* sizes are bytes

    def test_const_pointer_inferred_input(self, figure4_spec):
        param = figure4_spec.function("clEnqueueReadBuffer").param(
            "event_wait_list"
        )
        assert param.direction is Direction.IN
        assert param.buffer_is_elements

    def test_element_allocates(self, figure4_spec):
        param = figure4_spec.function("clEnqueueReadBuffer").param("event")
        assert param.element_allocates
        assert param.direction is Direction.OUT
        assert param.buffer_size is not None  # implied single element

    def test_handle_param_inferred_from_type_decl(self, figure4_spec):
        param = figure4_spec.function("clEnqueueReadBuffer").param("buf")
        assert param.is_handle

    def test_success_value_resolution(self, figure4_spec):
        func = figure4_spec.function("clEnqueueReadBuffer")
        assert figure4_spec.success_value_of(func) == 0.0

    def test_spec_validates(self, figure4_spec):
        assert figure4_spec.validate() == []


class TestAnnotations:
    def test_unconditional_async(self):
        spec = parse_spec("int setThing(int kernel, int value) { async; }")
        func = spec.function("setThing")
        assert func.sync_policy.classification() == "async"

    def test_consumes_resource(self):
        spec = parse_spec(
            "int copyData(int dst, size_t nbytes) "
            "{ consumes(bus_bytes, nbytes); }"
        )
        func = spec.function("copyData")
        assert "bus_bytes" in func.resources
        assert func.resources["bus_bytes"].names() == {"nbytes"}

    def test_record_annotation(self):
        spec = parse_spec("int makeIt(int ctx) { record(create); }")
        assert spec.function("makeIt").record_kind is RecordKind.CREATE

    def test_norecord_overrides_inference(self):
        spec = parse_spec("int clCreateThing(int ctx) { norecord; }")
        assert spec.function("clCreateThing").record_kind is None

    def test_record_inferred_from_name_without_annotation(self):
        spec = parse_spec("int clCreateThing(int ctx);")
        assert spec.function("clCreateThing").record_kind is RecordKind.CREATE

    def test_unsupported(self):
        spec = parse_spec("int weird(void) { unsupported; }")
        assert spec.function("weird").unsupported

    def test_string_annotation(self):
        spec = parse_spec(
            "int build(int prog, char *opts) { parameter(opts) { string; } }"
        )
        param = spec.function("build").param("opts")
        assert param.is_string

    def test_nullable(self):
        spec = parse_spec(
            "int f(const float *maybe, int maybe_count) "
            "{ parameter(maybe) { nullable; } }"
        )
        assert spec.function("f").param("maybe").nullable

    def test_bytes_override(self):
        spec = parse_spec(
            "int f(const float *data, int n) "
            "{ parameter(data) { buffer(n); bytes; } }"
        )
        assert not spec.function("f").param("data").buffer_is_elements

    def test_inout_direction(self):
        spec = parse_spec(
            "int f(float *data, int data_size) "
            "{ parameter(data) { inout; buffer(data_size); } }"
        )
        assert spec.function("f").param("data").direction is Direction.INOUT

    def test_deallocates(self):
        spec = parse_spec(
            "int release(int obj) { parameter(obj) { handle; deallocates; } }"
        )
        param = spec.function("release").param("obj")
        assert param.element_deallocates


class TestErrors:
    def test_unknown_annotation(self):
        with pytest.raises(SpecSyntaxError):
            parse_spec("int f(int x) { frobnicate; }")

    def test_unknown_parameter(self):
        with pytest.raises(SpecSyntaxError):
            parse_spec("int f(int x) { parameter(nope) { in; } }")

    def test_unknown_record_kind(self):
        with pytest.raises(SpecSyntaxError):
            parse_spec("int f(int x) { record(sideways); }")

    def test_missing_semicolon(self):
        with pytest.raises(SpecSyntaxError):
            parse_spec("int f(int x) { sync }")

    def test_unknown_type_annotation(self):
        with pytest.raises(SpecSyntaxError):
            parse_spec("type(cl_int) { wat; }")


class TestIncludes:
    def test_include_resolves_relative_to_spec(self, tmp_path):
        header = tmp_path / "mini.h"
        header.write_text(
            "#define OK 0\n"
            "typedef struct _thing *thing;\n"
        )
        spec_path = tmp_path / "mini.cava"
        spec_path.write_text(
            '#include "mini.h"\n'
            "api(mini);\n"
            "int doIt(thing t);\n"
        )
        spec = parse_spec_file(str(spec_path))
        assert spec.constants["OK"] == 0
        assert spec.types["thing"].is_handle
        assert spec.function("doIt").param("t").is_handle

    def test_missing_include_adds_guidance(self):
        spec = parse_spec('#include "nowhere.h"\napi(x);\n')
        assert any("nowhere.h" in line for line in spec.guidance)

    def test_angle_include(self, tmp_path):
        header = tmp_path / "cl.h"
        header.write_text("#define CL_SUCCESS 0\n")
        spec = parse_spec(
            "#include <CL/cl.h>\napi(opencl);\n",
            include_dirs=[str(tmp_path)],
        )
        assert spec.constants["CL_SUCCESS"] == 0


class TestShrinks:
    def test_shrinks_annotation(self):
        spec = parse_spec(
            "int f(float *out_data, int out_data_size, int *produced) "
            "{ parameter(out_data) { out; buffer(out_data_size); "
            "shrinks(produced); } }"
        )
        assert spec.function("f").param("out_data").shrinks_to == "produced"
        assert spec.validate() == []

    def test_shrinks_unknown_target_invalid(self):
        spec = parse_spec(
            "int f(float *out_data, int out_data_size) "
            "{ parameter(out_data) { out; buffer(out_data_size); "
            "shrinks(ghost); } }"
        )
        assert any("ghost" in p for p in spec.validate())

    def test_shrinks_on_input_invalid(self):
        spec = parse_spec(
            "int f(const float *data, int data_size, int *produced) "
            "{ parameter(data) { buffer(data_size); shrinks(produced); } }"
        )
        assert any("not an output" in p for p in spec.validate())


BAD_DIR = os.path.join(os.path.dirname(__file__), "specs_bad")


class TestReferenceValidation:
    """Only ``record(destroy)`` frees a handle, and ``record(retain)``
    needs a handle to reference."""

    SPEC = "type(widget) {{ handle; }}\nint {fn}({params}) {{ {body} }}\n"

    def _problems(self, fn, body, params="widget w"):
        return parse_spec(self.SPEC.format(
            fn=fn, params=params, body=body)).validate()

    def test_deallocates_needs_record_destroy(self):
        problems = self._problems("removeWidget",
                                  "parameter(w) { deallocates; }")
        assert any("not record(destroy)" in p for p in problems)
        assert self._problems("removeWidget", "parameter(w) "
                              "{ deallocates; } record(destroy);") == []
        # a destroy verb infers the category
        assert self._problems("releaseWidget",
                              "parameter(w) { deallocates; }") == []

    def test_seed_spec_rejected(self):
        spec = parse_spec_file(os.path.join(
            BAD_DIR, "validate_deallocates_without_destroy.cava"))
        assert any(p.startswith("removeWidget:") and "record(destroy)" in p
                   for p in spec.validate())
        with pytest.raises(SpecSemanticError):
            spec.require_valid()

    def test_retain_needs_a_handle_parameter(self):
        assert self._problems("retainWidget", "") == []
        assert parse_spec(self.SPEC.format(
            fn="retainWidget", params="widget w",
            body="")).function("retainWidget").record_kind \
            is RecordKind.RETAIN
        problems = self._problems("pin", "record(retain);", params="int n")
        assert any("record(retain)" in p for p in problems)
        problems = self._problems("pin", "record(retain);",
                                  params="widget *boxes, int n")
        assert any("record(retain)" in p for p in problems)


class TestSupersedes:
    """``supersedes(param, …)``: the key of a call's migration record."""

    SPEC = (
        "type(status) {{ success(0); }}\ntype(widget) {{ handle; }}\n"
        "status setGain(widget w, int channel, const float *gains, "
        "int gains_size, int *applied) {{ {body} }}\n"
    )

    def _spec(self, body):
        return parse_spec(self.SPEC.format(body=body))

    def test_supersedes_annotation(self):
        spec = self._spec("supersedes(w, channel);")
        assert spec.function("setGain").supersedes == ("w", "channel")
        assert spec.validate() == []

    def test_supersedes_needs_a_recorded_modify(self):
        problems = self._spec("norecord; supersedes(w);").validate()
        assert any("not record(modify)" in p for p in problems)
        problems = self._spec("record(create); supersedes(w);").validate()
        assert any("not record(modify)" in p for p in problems)

    def test_supersedes_unknown_parameter_invalid(self):
        problems = self._spec("supersedes(w, ghost);").validate()
        assert any("ghost" in p for p in problems)

    @pytest.mark.parametrize("name", ["gains", "applied"])
    def test_supersedes_buffer_or_out_parameter_invalid(self, name):
        spec = self._spec(f"supersedes(w, {name});")
        assert any(repr(name) in p and "passed by value" in p
                   for p in spec.validate())
        with pytest.raises(SpecSemanticError):
            spec.require_valid()
        assert not lint_spec(spec).gate("error")  # CAVA100

    def test_supersedes_needs_parentheses_and_names(self):
        with pytest.raises(SpecSyntaxError):
            self._spec("supersedes;")
        with pytest.raises(SpecSyntaxError):
            self._spec("supersedes();")
