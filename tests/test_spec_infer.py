"""Unit tests for preliminary-spec inference from headers."""

import pytest

from repro.spec.cparser import parse_header
from repro.spec.infer import SizeConvention, infer_preliminary_spec
from repro.spec.model import Direction, RecordKind

HEADER = """
#define CL_SUCCESS 0
#define CL_TRUE 1
typedef int cl_int;
typedef unsigned int cl_uint;
typedef unsigned int cl_bool;
typedef struct _cl_context *cl_context;
typedef struct _cl_mem *cl_mem;
typedef struct _cl_event *cl_event;

cl_int clGetThings(cl_uint num_entries, cl_int *things, cl_uint *num_things);
cl_mem clCreateBuffer(cl_context context, cl_uint flags, size_t size,
                      void *host_ptr, cl_int *errcode_ret);
cl_int clReleaseMemObject(cl_mem memobj);
cl_int clSetKernelArg(cl_mem kernel, cl_uint arg_index, size_t arg_size,
                      const void *arg_value);
cl_int clBuildProgram(cl_mem program, const char *options);
"""


@pytest.fixture()
def spec():
    return infer_preliminary_spec(parse_header(HEADER), "opencl")


class TestTypeInference:
    def test_handle_types_detected(self, spec):
        assert spec.types["cl_mem"].is_handle
        assert spec.types["cl_context"].is_handle
        assert not spec.types["cl_int"].is_handle

    def test_success_constant_attached_to_status_type(self, spec):
        assert spec.types["cl_int"].success_value == "CL_SUCCESS"

    def test_constants_carried_over(self, spec):
        assert spec.constants["CL_TRUE"] == 1


class TestParameterInference:
    def test_handle_scalar_param(self, spec):
        param = spec.function("clReleaseMemObject").param("memobj")
        assert param.is_handle
        assert param.buffer_size is None and not param.is_string

    def test_const_void_pointer_is_input(self, spec):
        param = spec.function("clSetKernelArg").param("arg_value")
        assert param.direction is Direction.IN

    def test_size_convention_finds_sibling(self, spec):
        param = spec.function("clSetKernelArg").param("arg_value")
        assert param.buffer_size is not None
        assert param.buffer_size.names() == {"arg_size"}

    def test_out_scalar_single_element(self, spec):
        param = spec.function("clCreateBuffer").param("errcode_ret")
        assert param.direction is Direction.OUT
        assert param.buffer_size is not None
        assert param.buffer_is_elements

    def test_const_string_param(self, spec):
        param = spec.function("clBuildProgram").param("options")
        assert param.is_string
        assert param.direction is Direction.IN

    def test_plural_count_convention(self, spec):
        param = spec.function("clGetThings").param("things")
        assert param.direction is Direction.OUT
        # matched via num_{stem}s → num_things
        assert param.buffer_size.names() == {"num_things"}

    def test_all_params_marked_inferred(self, spec):
        func = spec.function("clCreateBuffer")
        assert all(p.inferred for p in func.params)

    def test_uninferable_size_produces_guidance(self):
        header = parse_header("int f(const float *mystery, int unrelated);")
        result = infer_preliminary_spec(header, "x")
        assert any("mystery" in line for line in result.guidance)
        assert result.function("f").param("mystery").buffer_size is None


class TestFunctionInference:
    def test_record_kind_create(self, spec):
        assert spec.function("clCreateBuffer").record_kind is RecordKind.CREATE

    def test_record_kind_destroy(self, spec):
        assert (
            spec.function("clReleaseMemObject").record_kind
            is RecordKind.DESTROY
        )

    def test_record_kind_retain(self):
        from repro.stack import load_spec

        shipped = load_spec("opencl")
        for name in ("clRetainContext", "clRetainCommandQueue",
                     "clRetainMemObject", "clRetainProgram",
                     "clRetainKernel"):
            assert shipped.function(name).record_kind is RecordKind.RETAIN

    def test_record_kind_modify(self, spec):
        assert spec.function("clSetKernelArg").record_kind is RecordKind.MODIFY
        assert spec.function("clBuildProgram").record_kind is RecordKind.MODIFY

    def test_default_sync(self, spec):
        func = spec.function("clSetKernelArg")
        assert func.sync_policy.classification() == "sync"

    def test_preliminary_spec_validates(self, spec):
        assert spec.validate() == []


class TestSizeConvention:
    def test_custom_patterns(self):
        header = parse_header("int f(const float *data, int data_elems);")
        convention = SizeConvention(patterns=("{name}_elems",))
        result = infer_preliminary_spec(header, "x", convention)
        param = result.function("f").param("data")
        assert param.buffer_size.names() == {"data_elems"}

    def test_generic_fallback_single_pointer_only(self):
        header = parse_header("int f(const float *a, const float *b, int size);")
        result = infer_preliminary_spec(parse_header(
            "int g(const float *only, int size);"), "x")
        assert result.function("g").param("only").buffer_size is not None
        two_ptr = infer_preliminary_spec(header, "x")
        assert two_ptr.function("f").param("a").buffer_size is None
