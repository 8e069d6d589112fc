"""Layer 1 — expression/buffer dataflow over one call (CAVA1xx).

The guest stub evaluates every buffer-size, sync-condition and resource
expression *at submission time*, before the native call runs.  The only
names defined at that point are the call's scalar arguments flowing
guest→host (IN/INOUT scalars) and the API's constants.  An expression
that reads an OUT scalar therefore reads a value that has not been
produced yet — the stub would coerce an out-box object to a number, or
worse, silently size a buffer from garbage.

The same per-call view also checks ``shrinks()`` targets (the server
reads ``target.value`` from an out-scalar box; anything else cannot
carry a length back) and flags in/out buffer pairs that a caller could
legally alias, which API remoting executes as two disjoint copies.
Two slots have no exact wire strategy at all: a pointer with no size
is OPAQUE and the stub only lets NULL through (CAVA108), and an
``anyvalue`` slot with no size expression ships a non-scalar value's
full length (CAVA109).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.codegen.classify import ParamClass, classify_param
from repro.spec.expr import Expr
from repro.spec.model import ApiSpec, Direction, FunctionSpec, ParamSpec


def _call_time_readable(spec: ApiSpec, func: FunctionSpec,
                        param: ParamSpec) -> bool:
    """Can the guest stub read this parameter's value at submit time?"""
    cls = classify_param(spec, param)
    if cls in (ParamClass.SCALAR, ParamClass.HANDLE, ParamClass.STRING,
               ParamClass.SCALAR_ARRAY_IN):
        return True
    # INOUT scalars carry a guest-supplied value in; plain OUT boxes and
    # buffers hold nothing until the reply is applied.
    return False


def _check_expr(
    spec: ApiSpec,
    func: FunctionSpec,
    expr: Expr,
    code: str,
    context: str,
    subject: str,
    skip_self: Optional[str] = None,
) -> Tuple[List[Diagnostic], int]:
    """Validate one spec expression's free names; returns (diags, checks)."""
    diags: List[Diagnostic] = []
    checks = 0
    by_name = {p.name: p for p in func.params}
    for name in sorted(expr.names()):
        if name in spec.constants:
            checks += 1
            continue
        param = by_name.get(name)
        if param is None:
            # unknown names are CAVA100 territory (spec.validate covers it)
            continue
        checks += 1
        if name == skip_self:
            diags.append(Diagnostic(
                "CAVA107", subject,
                f"{context} of {func.name!r} reads the sized buffer "
                f"{name!r} itself — a pointer cannot size its own payload",
            ))
            continue
        cls = classify_param(spec, param)
        if cls in (ParamClass.SCALAR_BOX_OUT, ParamClass.HANDLE_BOX_OUT):
            diags.append(Diagnostic(
                code, subject,
                f"{context} of {func.name!r} reads {name!r}, an "
                f"out-direction parameter whose value is produced by the "
                f"call itself — it is undefined at submission time",
            ))
        elif param.ctype.is_pointer or cls in (
            ParamClass.BUFFER_IN, ParamClass.BUFFER_OUT,
            ParamClass.BUFFER_INOUT, ParamClass.HANDLE_ARRAY_IN,
            ParamClass.HANDLE_ARRAY_OUT, ParamClass.OPAQUE,
            ParamClass.ANYVALUE, ParamClass.CALLBACK,
        ):
            diags.append(Diagnostic(
                "CAVA106", subject,
                f"{context} of {func.name!r} reads {name!r}, a "
                f"pointer-valued parameter ({param.ctype}) — pointer "
                f"identities are meaningless across the remoting boundary",
            ))
        elif not _call_time_readable(spec, func, param):
            diags.append(Diagnostic(
                code, subject,
                f"{context} of {func.name!r} reads {name!r} "
                f"({param.direction.value}), which is not available "
                f"guest-side at submission time",
            ))
    return diags, checks


def _buffers_may_alias(spec: ApiSpec, a: ParamSpec, b: ParamSpec) -> bool:
    """Could one caller pointer legally satisfy both parameters?

    Conservative on purpose: only same-base-type pairs (or two raw
    ``void*`` windows) are compatible enough to alias in practice.
    """
    if a.ctype.base != b.ctype.base:
        return False
    return a.ctype.pointer_depth == b.ctype.pointer_depth


def analyze_dataflow(spec: ApiSpec) -> Tuple[List[Diagnostic], int]:
    """Run the per-call dataflow checks; returns (diagnostics, checks)."""
    diags: List[Diagnostic] = []
    checks = 0
    for fname in sorted(spec.functions):
        func = spec.functions[fname]
        if func.unsupported:
            continue
        param_by_name = {p.name: p for p in func.params}

        checks += 1
        opaque = sorted(p.name for p in func.params
                        if classify_param(spec, p) is ParamClass.OPAQUE)
        if opaque:
            diags.append(Diagnostic(
                "CAVA108", fname,
                f"{fname!r} parameter(s) {opaque} have no wire strategy; "
                f"the generated stub asserts the guest passes NULL",
            ))

        for param in func.params:
            subject = f"{fname}.{param.name}"
            if param.is_anyvalue:
                checks += 1
                if param.buffer_size is None:
                    diags.append(Diagnostic(
                        "CAVA109", subject,
                        f"anyvalue parameter {param.name!r} of {fname!r} "
                        f"has no size expression; a non-scalar value "
                        f"marshals its full length",
                    ))
            if param.buffer_size is not None:
                found, n = _check_expr(
                    spec, func, param.buffer_size, "CAVA101",
                    "buffer-size expression", subject,
                    skip_self=param.name,
                )
                diags.extend(found)
                checks += n
            if param.shrinks_to is not None:
                target = param_by_name.get(param.shrinks_to)
                checks += 1
                if target is None:
                    continue  # spec.validate already reports the name
                if (classify_param(spec, target)
                        is not ParamClass.SCALAR_BOX_OUT
                        or target.direction is Direction.IN):
                    diags.append(Diagnostic(
                        "CAVA104", subject,
                        f"{fname!r} shrinks {param.name!r} to "
                        f"{param.shrinks_to!r}, which is not an out-scalar "
                        f"box of this call — the server cannot read a "
                        f"useful length from it",
                    ))

        if func.sync_policy.condition is not None:
            found, n = _check_expr(
                spec, func, func.sync_policy.condition, "CAVA102",
                "sync condition", fname,
            )
            diags.extend(found)
            checks += n

        for resource in sorted(func.resources):
            found, n = _check_expr(
                spec, func, func.resources[resource], "CAVA103",
                f"resource estimate {resource!r}", fname,
            )
            diags.extend(found)
            checks += n

        in_buffers = [
            p for p in func.params
            if classify_param(spec, p) in (ParamClass.BUFFER_IN,
                                           ParamClass.BUFFER_INOUT)
        ]
        out_buffers = [
            p for p in func.params
            if classify_param(spec, p) in (ParamClass.BUFFER_OUT,
                                           ParamClass.BUFFER_INOUT)
        ]
        for src in in_buffers:
            for dst in out_buffers:
                if src.name == dst.name:
                    continue
                checks += 1
                if _buffers_may_alias(spec, src, dst):
                    diags.append(Diagnostic(
                        "CAVA105", f"{fname}.{dst.name}",
                        f"{fname!r} reads {src.name!r} and writes "
                        f"{dst.name!r} through compatible pointer types; "
                        f"a caller passing overlapping memory gets "
                        f"copy-in/copy-out semantics instead of the "
                        f"native in-place behaviour",
                    ))
    return diags, checks
