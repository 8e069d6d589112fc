"""Tests for CAvA code generation: sources, compilation, classification."""

import os

import pytest

from repro.codegen.classify import (
    ParamClass,
    classify_param,
    classify_return,
    scalar_coercion,
)
from repro.codegen.generator import generate_api, generate_sources
from repro.codegen.pyexpr import expr_to_python
from repro.codegen.specwriter import render_spec
from repro.spec import parse_spec, infer_preliminary_spec, parse_header
from repro.spec.errors import SpecSemanticError
from repro.spec.expr import parse_expr

SPEC_TEXT = """
api(miniapi);
type(st) { success(OK); }
type(hdl) { handle; }

st makeThing(int size, hdl *out_thing) {
    parameter(out_thing) { out; element { allocates; } }
    record(create);
}

st copyIn(hdl thing, const float *data, int data_size) {
    async;
    consumes(bus_bytes, data_size);
}

st copyOut(hdl thing, float *data, int data_size) {
    parameter(data) { out; buffer(data_size); }
}

st freeThing(hdl thing) {
    parameter(thing) { deallocates; }
    record(destroy);
}
"""


@pytest.fixture()
def spec():
    parsed = parse_spec(SPEC_TEXT)
    parsed.constants["OK"] = 0.0
    return parsed


class TestClassification:
    def test_scalar(self, spec):
        param = spec.function("makeThing").param("size")
        assert classify_param(spec, param) is ParamClass.SCALAR

    def test_handle(self, spec):
        param = spec.function("copyIn").param("thing")
        assert classify_param(spec, param) is ParamClass.HANDLE

    def test_handle_box_out(self, spec):
        param = spec.function("makeThing").param("out_thing")
        assert classify_param(spec, param) is ParamClass.HANDLE_BOX_OUT

    def test_buffer_in(self, spec):
        param = spec.function("copyIn").param("data")
        assert classify_param(spec, param) is ParamClass.BUFFER_IN

    def test_buffer_out(self, spec):
        param = spec.function("copyOut").param("data")
        assert classify_param(spec, param) is ParamClass.BUFFER_OUT

    def test_return_scalar(self, spec):
        assert classify_return(spec, spec.function("copyIn")) == "scalar"

    def test_return_handle(self):
        local = parse_spec("api(x);\ntype(hdl) { handle; }\nhdl make(int n);")
        assert classify_return(local, local.function("make")) == "handle"

    def test_void_return(self):
        local = parse_spec("api(x);\nvoid poke(int n);")
        assert classify_return(local, local.function("poke")) == "none"

    def test_scalar_coercion(self, spec):
        assert scalar_coercion(spec.function("makeThing").param("size")) \
            == "int"
        local = parse_spec("api(x);\nint f(float v);")
        assert scalar_coercion(local.function("f").param("v")) == "float"


class TestPyExpr:
    def test_param_reference(self):
        expr = parse_expr("n * 4")
        assert expr_to_python(expr, {"n"}, {}, {}, coerce="int") \
            == "(int(n) * 4)"

    def test_constant_inlined(self):
        expr = parse_expr("CL_TRUE + n")
        code = expr_to_python(expr, {"n"}, {"CL_TRUE": 1.0}, {})
        assert code == "(1 + n)"

    def test_sizeof_resolved(self):
        expr = parse_expr("n * sizeof(cl_event)")
        code = expr_to_python(expr, {"n"}, {}, {"cl_event": 8})
        assert code == "(n * 8)"

    def test_unknown_name_fails_at_generation(self):
        with pytest.raises(SpecSemanticError):
            expr_to_python(parse_expr("mystery"), set(), {}, {})

    def test_ternary(self):
        expr = parse_expr("c ? 1 : 2")
        code = expr_to_python(expr, {"c"}, {}, {})
        assert eval(code, {"c": 1}) == 1
        assert eval(code, {"c": 0}) == 2

    def test_logical_ops_become_python(self):
        expr = parse_expr("a && !b || c")
        code = expr_to_python(expr, {"a", "b", "c"}, {}, {})
        assert eval(code, {"a": 1, "b": 0, "c": 0})
        assert not eval(code, {"a": 0, "b": 0, "c": 0})

    @pytest.mark.parametrize("source,expected", [
        ("(a && b) * 4", 4),
        ("a || b", 1),
        ("a && b", 1),
        ("a && 0", 0),
        ("0 || 0", 0),
        ("!a", 0),
        ("!0 + !0", 2),
        ("(a || b) + (a && b)", 2),
    ])
    def test_logical_ops_yield_c_truth_values(self, source, expected):
        """C's ``&&``, ``||`` and ``!`` yield 0 or 1, never an operand."""
        code = expr_to_python(parse_expr(source), {"a", "b"}, {}, {})
        value = eval(code, {"a": 2, "b": 3})
        assert value == expected and type(value) is int


class TestGeneratedSources:
    def test_three_modules_generated(self, spec):
        sources = generate_sources(spec, "nonexistent.native")
        assert "class GuestLibrary" in sources.guest_source
        assert "DISPATCH" in sources.server_source
        assert "def build_table" in sources.routing_source
        assert sources.total_lines() > 100

    def test_guest_contains_all_functions(self, spec):
        sources = generate_sources(spec, "x")
        for name in ("makeThing", "copyIn", "copyOut", "freeThing"):
            assert f"def {name}(self" in sources.guest_source

    def test_sources_are_valid_python(self, spec):
        sources = generate_sources(spec, "x")
        compile(sources.guest_source, "<guest>", "exec")
        compile(sources.server_source, "<server>", "exec")
        compile(sources.routing_source, "<routing>", "exec")

    def test_async_mode_inlined(self, spec):
        sources = generate_sources(spec, "x")
        assert "'async'" in sources.guest_source

    def test_invalid_spec_rejected(self):
        bad = parse_spec(
            "api(x);\nint f(float *out_data) "
            "{ parameter(out_data) { out; buffer(ghost_param); } }"
        )
        with pytest.raises(SpecSemanticError):
            generate_sources(bad, "x")

    def test_generate_api_writes_and_loads(self, spec, tmp_path):
        stack = generate_api(spec, str(tmp_path), "repro.opencl.api")
        assert os.path.exists(stack.paths["guest"])
        assert os.path.exists(stack.paths["server"])
        assert stack.guest_module.API_NAME == "miniapi"
        assert "makeThing" in stack.server_module.DISPATCH
        table = stack.routing_table()
        assert "copyIn" in table.functions
        assert table.functions["copyIn"].resources

    def test_record_kinds_exported(self, spec, tmp_path):
        """Record categories travel in the routing table, the one place
        the router reads them from; the server module has no copy."""
        stack = generate_api(spec, str(tmp_path), "repro.opencl.api")
        functions = stack.routing_table().functions
        assert functions["makeThing"].record_kind.value == "create"
        assert functions["freeThing"].record_kind.value == "destroy"
        assert not hasattr(stack.server_module, "RECORD_KINDS")

    def test_supersedes_table_exported(self, tmp_path):
        """Key parameters and each function's success constant travel
        in the generated routing module, beside the record categories."""
        keyed = parse_spec(
            SPEC_TEXT
            + "st setThing(hdl thing, int slot, float value) "
            "{ supersedes(thing, slot); }\n"
            + "void writeThing(hdl thing, int slot) "
            "{ supersedes(thing); }\n"
        )
        keyed.constants["OK"] = 0.0
        stack = generate_api(keyed, str(tmp_path), "repro.opencl.api")
        assert not hasattr(stack.server_module, "SUPERSEDES")
        functions = stack.routing_table().functions
        assert functions["setThing"].supersedes == ("thing", "slot")
        assert functions["setThing"].success == 0
        assert functions["writeThing"].supersedes == ("thing",)
        # no success() on the return type: every call counts
        assert functions["writeThing"].success is None

    def test_supersedes_round_trips_through_specwriter(self):
        spec = parse_spec(
            "api(k);\ntype(hdl) { handle; }\n"
            "int setThing(hdl thing, int slot) { supersedes(thing, slot); }\n"
        )
        again = parse_spec(render_spec(spec))
        assert again.function("setThing").supersedes == ("thing", "slot")


class TestSpecWriter:
    def test_render_parses_back(self):
        header = parse_header(
            "#define OK 0\n"
            "typedef struct _thing *thing;\n"
            "int makeIt(int size, thing *out);\n"
            "int useIt(thing t, const float *data, int data_size);\n"
        )
        preliminary = infer_preliminary_spec(header, "mini")
        text = render_spec(preliminary)
        again = parse_spec(text)
        again.constants.update(preliminary.constants)
        assert set(again.functions) == {"makeIt", "useIt"}
        assert again.function("useIt").param("data").buffer_size is not None

    def test_guidance_rendered_as_comments(self):
        header = parse_header("int f(const float *mystery, int unrelated);")
        preliminary = infer_preliminary_spec(header, "m")
        text = render_spec(preliminary)
        assert "// GUIDANCE:" in text


class TestShrinksGeneration:
    def test_server_truncates_reply_to_useful_length(self):
        spec = parse_spec(
            "api(sh);\n"
            "int produce(float *out_data, int out_data_size, "
            "int *produced) {\n"
            "  parameter(out_data) { out; buffer(out_data_size); "
            "shrinks(produced); }\n"
            "}\n"
        )
        sources = generate_sources(spec, "x")
        assert "_n_useful" in sources.server_source
        compile(sources.server_source, "<server>", "exec")

    def test_shrinks_round_trips_through_specwriter(self):
        from repro.codegen.specwriter import render_spec

        spec = parse_spec(
            "api(sh);\n"
            "int produce(float *out_data, int out_data_size, "
            "int *produced) {\n"
            "  parameter(out_data) { out; buffer(out_data_size); "
            "shrinks(produced); }\n"
            "}\n"
        )
        again = parse_spec(render_spec(spec))
        assert again.function("produce").param("out_data").shrinks_to == \
            "produced"
