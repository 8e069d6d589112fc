"""Generation of the API-server dispatch module.

One ``_srv_<name>`` function per API function: unmarshal the command,
translate guest handles through the worker's table, call the native
implementation, collect outputs and freshly created handles into the
reply.  The module exports ``DISPATCH`` (name → stub) for the worker;
what the migration log needs travels in the routing module.
"""

from __future__ import annotations

from repro.codegen.classify import ParamClass, classify_param, classify_return
from repro.codegen.writer import CodeWriter
from repro.spec.model import ApiSpec, FunctionSpec, ParamSpec


def _emit_unmarshal(writer: CodeWriter, spec: ApiSpec,
                    param: ParamSpec) -> None:
    name = param.name
    cls = classify_param(spec, param)
    if cls in (ParamClass.SCALAR, ParamClass.STRING,
               ParamClass.SCALAR_ARRAY_IN):
        writer.line(f"{name} = cmd.scalars.get({name!r})")
    elif cls is ParamClass.HANDLE:
        writer.line(f"{name} = worker.handles.lookup_optional("
                    f"cmd.handles.get({name!r}))")
    elif cls is ParamClass.HANDLE_ARRAY_IN:
        writer.line(f"{name} = worker.handles.lookup_list("
                    f"cmd.handles.get({name!r}))")
    elif cls in (ParamClass.HANDLE_BOX_OUT, ParamClass.SCALAR_BOX_OUT):
        writer.line(
            f"{name} = OutBox() if {name!r} in cmd.out_sizes else None"
        )
    elif cls is ParamClass.HANDLE_ARRAY_OUT:
        writer.line(
            f"{name} = [None] * int(cmd.out_sizes[{name!r}]) "
            f"if {name!r} in cmd.out_sizes else None"
        )
    elif cls is ParamClass.BUFFER_IN:
        writer.line(f"{name} = cmd.in_buffers.get({name!r})")
    elif cls is ParamClass.BUFFER_OUT:
        writer.line(
            f"{name} = bytearray(cmd.out_sizes[{name!r}]) "
            f"if {name!r} in cmd.out_sizes else None"
        )
    elif cls is ParamClass.BUFFER_INOUT:
        with writer.block(f"if {name!r} in cmd.out_sizes:"):
            writer.line(f"{name} = bytearray(cmd.out_sizes[{name!r}])")
            writer.line(f"_src = cmd.in_buffers.get({name!r}, b'')")
            writer.line(f"{name}[:len(_src)] = _src")
        with writer.block("else:"):
            writer.line(f"{name} = None")
    elif cls is ParamClass.ANYVALUE:
        writer.line(
            f"{name} = cmd.scalars[{name!r}] if {name!r} in cmd.scalars "
            f"else cmd.in_buffers.get({name!r})"
        )
    elif cls is ParamClass.CALLBACK:
        writer.line(
            f"{name} = worker.callback_proxy("
            f"cmd.scalars.get({name!r}), {name!r}, _reply)"
        )
    elif cls is ParamClass.OPAQUE:
        writer.line(f"{name} = None")
    else:  # pragma: no cover - enum is exhaustive
        raise AssertionError(cls)


def _emit_collect(writer: CodeWriter, spec: ApiSpec,
                  param: ParamSpec) -> None:
    name = param.name
    cls = classify_param(spec, param)
    if cls in (ParamClass.BUFFER_OUT, ParamClass.BUFFER_INOUT):
        with writer.block(f"if {name} is not None:"):
            if param.shrinks_to is not None:
                # reply carries only the useful prefix, whose length the
                # native call reported through the out-scalar
                length_box = param.shrinks_to
                writer.line(
                    f"_n_useful = int({length_box}.value) "
                    f"if {length_box} is not None "
                    f"and {length_box}.value is not None else len({name})"
                )
                # a view, not a copy: the reply donates the stub-local
                # buffer (nothing mutates it after collect)
                writer.line(
                    f"_reply.out_payloads[{name!r}] = "
                    f"memoryview({name})[:_n_useful]"
                )
            else:
                writer.line(
                    f"_reply.out_payloads[{name!r}] = {name}"
                )
    elif cls is ParamClass.SCALAR_BOX_OUT:
        with writer.block(f"if {name} is not None:"):
            writer.line(
                f"_reply.out_scalars[{name!r}] = _wire_scalar({name}.value)"
            )
    elif cls is ParamClass.HANDLE_BOX_OUT:
        with writer.block(f"if {name} is not None and {name}.value is not None:"):
            writer.line(
                f"_reply.new_handles[{name!r}] = "
                f"worker.bind({name!r}, {name}.value)"
            )
    elif cls is ParamClass.HANDLE_ARRAY_OUT:
        with writer.block(f"if {name} is not None:"):
            writer.line(
                f"_reply.new_handles[{name!r}] = "
                f"[worker.bind({name!r}, _obj) for _obj in {name} "
                "if _obj is not None]"
            )


def _emit_server_stub(writer: CodeWriter, spec: ApiSpec,
                      func: FunctionSpec) -> None:
    with writer.block(f"def _srv_{func.name}(worker, cmd):"):
        writer.line(f'"""Dispatch {func.name} against the native API."""')
        # the reply exists before the native call so callback proxies can
        # append deferred invocations to it
        writer.line("_reply = Reply(seq=cmd.seq)")
        for param in func.params:
            _emit_unmarshal(writer, spec, param)
        call_args = ", ".join(func.param_names())
        writer.line(f"_ret = _native.{func.name}({call_args})")
        ret_kind = classify_return(spec, func)
        if ret_kind == "handle":
            with writer.block("if _ret is not None:"):
                writer.line(
                    "_reply.new_handles['__ret__'] = "
                    "worker.bind('__ret__', _ret)"
                )
        elif ret_kind == "scalar":
            writer.line("_reply.return_value = _wire_scalar(_ret)")
        for param in func.params:
            _emit_collect(writer, spec, param)
        writer.line("return _reply")


def generate_server_module(spec: ApiSpec, native_module: str) -> str:
    """Emit the API-server dispatch module for ``spec``.

    ``native_module`` is the import path of the native implementation
    the stubs call (e.g. ``repro.opencl.api``).
    """
    supported = [
        name for name in sorted(spec.functions)
        if not spec.functions[name].unsupported
    ]
    writer = CodeWriter()
    writer.lines(
        f'"""AUTO-GENERATED by CAvA — API server dispatch for {spec.name!r}.',
        "",
        f"Calls into the native implementation {native_module!r}.",
        "DO NOT EDIT.",
        '"""',
        "",
        f"import {native_module} as _native",
        "",
        "from repro.remoting.buffers import OutBox",
        "from repro.remoting.codec import Reply",
        "",
        f"API_NAME = {spec.name!r}",
        "",
    )
    with writer.block("def _wire_scalar(value):"):
        writer.line('"""Coerce native scalars to wire-encodable types."""')
        with writer.block("if value is None or isinstance(value, (bool, int, float, str, bytes)):"):
            writer.line("return value")
        with writer.block("if hasattr(value, 'item'):"):
            writer.line("return value.item()  # numpy scalar")
        writer.line("return float(value)")
    writer.line("")
    writer.line("")
    for name in supported:
        _emit_server_stub(writer, spec, spec.functions[name])
        writer.line("")
    writer.line("")
    writer.line("DISPATCH = {")
    writer.indent()
    for name in supported:
        writer.line(f"{name!r}: _srv_{name},")
    writer.dedent()
    writer.line("}")
    return writer.source()
