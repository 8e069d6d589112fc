"""Generation of the guest library module.

The emitted module contains one method per API function with all
API-specific logic inlined: argument classification, buffer-size
arithmetic (element sizes resolved at generation time), the sync/async
condition, and runtime assertions guarding the spec's invariants.  Only
the API-agnostic submission machinery lives in
:class:`repro.guest.library.GuestRuntime`.
"""

from __future__ import annotations

from typing import List

from repro.codegen.classify import (
    ParamClass,
    classify_param,
    classify_return,
    element_size,
    scalar_coercion,
)
from repro.codegen.pyexpr import expr_to_python
from repro.codegen.writer import CodeWriter
from repro.spec.model import ApiSpec, FunctionSpec, ParamSpec, SyncMode


def _size_expr(spec: ApiSpec, func: FunctionSpec, param: ParamSpec) -> str:
    """Python source computing the parameter's wire size in bytes
    (elements for handle arrays)."""
    assert param.buffer_size is not None
    expr = expr_to_python(
        param.buffer_size,
        set(func.param_names()),
        spec.constants,
        spec.sizeof_table(),
        coerce="int",
    )
    if param.buffer_is_elements:
        elem = element_size(spec, param)
        if elem != 1:
            return f"int({expr}) * {elem}"
    return f"int({expr})"


def _count_expr(spec: ApiSpec, func: FunctionSpec, param: ParamSpec) -> str:
    """Python source computing an element count (handle arrays)."""
    if param.buffer_size is None:
        return "None"
    return "int(%s)" % expr_to_python(
        param.buffer_size,
        set(func.param_names()),
        spec.constants,
        spec.sizeof_table(),
        coerce="int",
    )


def _mode_expr(spec: ApiSpec, func: FunctionSpec) -> str:
    policy = func.sync_policy
    if policy.condition is None:
        return repr(policy.default.value)
    condition = expr_to_python(
        policy.condition,
        set(func.param_names()),
        spec.constants,
        spec.sizeof_table(),
        coerce="int",
    )
    true_mode = repr(policy.mode_if_true.value)
    false_mode = repr(policy.default.value)
    return f"({true_mode} if {condition} else {false_mode})"


def _emit_param_marshal(
    writer: CodeWriter, spec: ApiSpec, func: FunctionSpec, param: ParamSpec
) -> None:
    name = param.name
    cls = classify_param(spec, param)
    fn = func.name
    if cls is ParamClass.SCALAR:
        coerce = scalar_coercion(param)
        writer.line(
            f"_scalars[{name!r}] = None if {name} is None else {coerce}({name})"
        )
    elif cls is ParamClass.STRING:
        writer.line(
            f"_scalars[{name!r}] = None if {name} is None else str({name})"
        )
    elif cls is ParamClass.HANDLE:
        writer.line(f"_assert_handle({name}, {name!r}, {fn!r})")
        writer.line(f"_handles[{name!r}] = {name}")
    elif cls is ParamClass.HANDLE_ARRAY_IN:
        count = _count_expr(spec, func, param)
        writer.line(
            f"_handles[{name!r}] = _rt.handle_list({name}, {count})"
        )
    elif cls is ParamClass.HANDLE_BOX_OUT:
        with writer.block(f"if {name} is not None:"):
            writer.line(f"_out_sizes[{name!r}] = 1")
            writer.line(f"_out_targets[{name!r}] = ('handle_box', {name})")
    elif cls is ParamClass.HANDLE_ARRAY_OUT:
        count = _count_expr(spec, func, param)
        with writer.block(f"if {name} is not None:"):
            writer.line(f"_n = {count}")
            writer.line(f"_assert_size(_n, {name!r}, {fn!r})")
            writer.line(f"_out_sizes[{name!r}] = _n")
            writer.line(f"_out_targets[{name!r}] = ('handle_array', {name})")
    elif cls is ParamClass.BUFFER_IN:
        size = _size_expr(spec, func, param)
        with writer.block(f"if {name} is not None:"):
            writer.line(f"_n = {size}")
            writer.line(f"_assert_size(_n, {name!r}, {fn!r})")
            writer.line(
                f"_in_buffers[{name!r}] = "
                f"GuestRuntime.read_buffer({name}, _n, {name!r})"
            )
    elif cls is ParamClass.BUFFER_OUT:
        size = _size_expr(spec, func, param)
        with writer.block(f"if {name} is not None:"):
            writer.line(f"_n = {size}")
            writer.line(f"_assert_size(_n, {name!r}, {fn!r})")
            writer.line(f"_out_sizes[{name!r}] = _n")
            writer.line(f"_out_targets[{name!r}] = ('buffer', {name})")
    elif cls is ParamClass.BUFFER_INOUT:
        size = _size_expr(spec, func, param)
        with writer.block(f"if {name} is not None:"):
            writer.line(f"_n = {size}")
            writer.line(f"_assert_size(_n, {name!r}, {fn!r})")
            writer.line(
                f"_in_buffers[{name!r}] = "
                f"GuestRuntime.read_buffer({name}, _n, {name!r})"
            )
            writer.line(f"_out_sizes[{name!r}] = _n")
            writer.line(f"_out_targets[{name!r}] = ('buffer', {name})")
    elif cls is ParamClass.SCALAR_BOX_OUT:
        with writer.block(f"if {name} is not None:"):
            writer.line(f"_out_sizes[{name!r}] = 8")
            writer.line(f"_out_targets[{name!r}] = ('scalar_box', {name})")
    elif cls is ParamClass.ANYVALUE:
        with writer.block(f"if {name} is None:"):
            writer.line(
                f"raise RemotingError({fn!r} + ': parameter ' + {name!r} + "
                "' cannot be NULL')"
            )
        with writer.block(f"elif isinstance({name}, (int, float)):"):
            writer.line(f"_scalars[{name!r}] = {name}")
        with writer.block("else:"):
            if param.buffer_size is not None:
                size = _size_expr(spec, func, param)
                writer.line(f"_n = {size}")
            else:
                writer.line(f"_n = _byte_size_of({name})")
            writer.line(
                f"_in_buffers[{name!r}] = "
                f"GuestRuntime.read_buffer({name}, _n, {name!r})"
            )
    elif cls is ParamClass.SCALAR_ARRAY_IN:
        count = _count_expr(spec, func, param)
        with writer.block(f"if {name} is not None:"):
            if count != "None":
                writer.line(f"_n = {count}")
                writer.line(
                    f"_scalars[{name!r}] = [int(_v) for _v in "
                    f"list({name})[:_n]]"
                )
            else:
                writer.line(
                    f"_scalars[{name!r}] = [int(_v) for _v in {name}]"
                )
    elif cls is ParamClass.CALLBACK:
        writer.line(
            f"_scalars[{name!r}] = _rt.register_callback({name})"
        )
    elif cls is ParamClass.OPAQUE:
        # Generated assertion: this spec cannot marshal the parameter,
        # so any non-NULL value is a guest bug that must fail loudly.
        with writer.block(f"if {name} is not None:"):
            writer.line(
                f"raise RemotingError({fn!r} + ': parameter ' + {name!r} + "
                "' is not marshalable in this specification and must be "
                "None')"
            )
    else:  # pragma: no cover - enum is exhaustive
        raise AssertionError(cls)


def _emit_function(writer: CodeWriter, spec: ApiSpec,
                   func: FunctionSpec) -> None:
    params = ", ".join(func.param_names())
    signature = f"def {func.name}(self{', ' + params if params else ''}):"
    with writer.block(signature):
        args = ", ".join(str(p.ctype) + " " + p.name for p in func.params)
        writer.line(f'"""{func.return_type} {func.name}({args})')
        writer.line("")
        policy = func.sync_policy
        if policy.condition is None:
            writer.line(f"Forwarding: always {policy.default.value}.")
        else:
            writer.line(
                f"Forwarding: {policy.mode_if_true.value} when "
                f"{policy.condition.to_source()}, else {policy.default.value}."
            )
        writer.line('"""')
        if func.unsupported:
            writer.line(
                f"raise RemotingError({func.name!r} + "
                "': marked unsupported in the API specification')"
            )
            return
        writer.line("_rt = self._rt")
        writer.line("_scalars = {}")
        writer.line("_handles = {}")
        writer.line("_in_buffers = {}")
        writer.line("_out_sizes = {}")
        writer.line("_out_targets = {}")
        for param in func.params:
            _emit_param_marshal(writer, spec, func, param)
        writer.line(f"_mode = {_mode_expr(spec, func)}")
        ret_kind = classify_return(spec, func)
        success = spec.success_value_of(func)
        success_repr = (
            str(int(success)) if float(success).is_integer()
            else repr(success)
        )
        # a call carrying a guest callback must see its reply leg; the
        # flag belongs to this call, so a stub that fails to marshal
        # cannot leave it set for the next one
        callbacks = " or ".join(
            f"{p.name} is not None" for p in func.params
            if classify_param(spec, p) is ParamClass.CALLBACK)
        armed = f", callback={callbacks}" if callbacks else ""
        writer.line(
            f"return _rt.submit({func.name!r}, _mode, _scalars, _handles, "
            f"_in_buffers, _out_sizes, _out_targets, "
            f"ret_kind={ret_kind!r}, success={success_repr}{armed})"
        )


def generate_guest_module(spec: ApiSpec) -> str:
    """Emit the guest library module source for ``spec``."""
    writer = CodeWriter()
    writer.lines(
        f'"""AUTO-GENERATED by CAvA — guest library for API {spec.name!r}.',
        "",
        "Bind to a VM with ``bind(runtime)``; the returned object exposes",
        "the API's functions as methods.  DO NOT EDIT.",
        '"""',
        "",
        "from repro.guest.library import GuestRuntime, RemotingError",
        "from repro.remoting.buffers import OutBox, byte_size_of as _byte_size_of",
        "",
        f"API_NAME = {spec.name!r}",
        f"FUNCTIONS = {sorted(n for n, f in spec.functions.items() if not f.unsupported)!r}",
        "",
    )
    with writer.block("def _assert_handle(value, param, function):"):
        with writer.block("if value is not None and not isinstance(value, int):"):
            writer.line(
                "raise RemotingError('%s: parameter %r must be an opaque "
                "handle (int) or None, got %s' % "
                "(function, param, type(value).__name__))"
            )
    writer.line("")
    with writer.block("def _assert_size(value, param, function):"):
        with writer.block("if value < 0:"):
            writer.line(
                "raise RemotingError('%s: size expression for %r "
                "evaluated to %d (< 0)' % (function, param, value))"
            )
    writer.line("")
    writer.line("")
    with writer.block("class GuestLibrary:"):
        writer.line(f'"""Guest-side {spec.name} with AvA forwarding."""')
        writer.line("")
        with writer.block("def __init__(self, runtime):"):
            writer.line("self._rt = runtime")
        writer.line("")
        for name in sorted(spec.functions):
            _emit_function(writer, spec, spec.functions[name])
            writer.line("")
    writer.line("")
    with writer.block("def bind(runtime):"):
        writer.line('"""Instantiate this guest library on a VM runtime."""')
        writer.line("return GuestLibrary(runtime)")
    return writer.source()
