"""Rendering an :class:`ApiSpec` back to ``.cava`` source.

Used by ``cava infer`` to materialize the *preliminary* specification
CAvA derives from a header, which the developer then refines (Figure 2).
Inferred annotations are written out explicitly so the developer sees —
and can correct — every guess; guidance lines become leading comments.
"""

from __future__ import annotations

from typing import List

from repro.spec.model import (
    ApiSpec,
    Direction,
    FunctionSpec,
    ParamSpec,
    SyncMode,
)


def _param_annotations(param: ParamSpec) -> List[str]:
    annotations: List[str] = []
    if param.direction is Direction.OUT:
        annotations.append("out;")
    elif param.direction is Direction.INOUT:
        annotations.append("inout;")
    if param.is_string and not (
        param.ctype.base == "char" and param.ctype.is_const
    ):
        annotations.append("string;")
    if param.buffer_size is not None:
        annotations.append(f"buffer({param.buffer_size.to_source()});")
        if param.ctype.is_pointer and param.ctype.base != "void":
            if not param.buffer_is_elements:
                annotations.append("bytes;")
        elif param.buffer_is_elements:
            annotations.append("elements;")
    if param.element_allocates:
        annotations.append("element { allocates; }")
    if param.element_deallocates:
        annotations.append("deallocates;")
    if param.nullable:
        annotations.append("nullable;")
    if param.is_anyvalue:
        annotations.append("anyvalue;")
    if param.is_scalar_array:
        annotations.append("intarray;")
    if param.shrinks_to is not None:
        annotations.append(f"shrinks({param.shrinks_to});")
    if param.is_callback:
        annotations.append("callback;")
    return annotations


def _render_function(func: FunctionSpec) -> str:
    params = ", ".join(f"{p.ctype} {p.name}" for p in func.params)
    header = f"{func.return_type} {func.name}({params})"
    body: List[str] = []
    policy = func.sync_policy
    if policy.condition is not None:
        first = policy.mode_if_true.value
        second = policy.default.value
        body.append(
            f"if ({policy.condition.to_source()}) {first}; else {second};"
        )
    elif policy.default is SyncMode.ASYNC:
        body.append("async;")
    if func.record_kind is not None:
        body.append(f"record({func.record_kind.value});")
    if func.supersedes:
        body.append(f"supersedes({', '.join(func.supersedes)});")
    for resource, expr in sorted(func.resources.items()):
        body.append(f"consumes({resource}, {expr.to_source()});")
    if func.unsupported:
        body.append("unsupported;")
    for param in func.params:
        annotations = _param_annotations(param)
        if annotations:
            body.append(f"parameter({param.name}) {{ " +
                        " ".join(annotations) + " }")
    if not body:
        return header + ";"
    inner = "\n".join("    " + line for line in body)
    return f"{header} {{\n{inner}\n}}"


def render_spec(spec: ApiSpec) -> str:
    """Render ``spec`` as ``.cava`` source text."""
    chunks: List[str] = []
    if spec.guidance:
        chunks.append(
            "\n".join("// GUIDANCE: " + line for line in spec.guidance)
        )
    chunks.append(f"api({spec.name});")
    for include in spec.includes:
        chunks.append(f'#include "{include}"')
    for name in sorted(spec.types):
        type_spec = spec.types[name]
        annotations = []
        if type_spec.success_value is not None:
            annotations.append(f"success({type_spec.success_value});")
        # handle/size facts come from the header; only write extras
        if type_spec.is_handle and name not in _header_like_names(spec):
            annotations.append("handle;")
        if annotations:
            chunks.append(f"type({name}) {{ " + " ".join(annotations) + " }")
    for name in sorted(spec.functions):
        chunks.append(_render_function(spec.functions[name]))
    return "\n\n".join(chunks) + "\n"


def _header_like_names(spec: ApiSpec) -> set:
    """Types whose handleness the included header already declares."""
    if spec.includes:
        return {
            name for name, t in spec.types.items()
            if t.is_handle and t.size_bytes == 8
        }
    return set()
