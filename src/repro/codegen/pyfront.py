"""The dynamic-language front end: API specs from Python introspection.

The paper's §5 future work — virtualizing *Python* APIs — needs a
replacement for the C header as CAvA's input.  For dynamic languages the
equivalent source of truth is the module itself: function signatures
with annotations.  This front end walks a module, reads the marker
annotations below, and synthesizes the same :class:`ApiSpec` the C path
produces — after which the entire existing pipeline (validation,
verification, generation, routing) applies unchanged.

Marker annotations::

    def tpuCreateGraph(device_handle: Handle,
                       graph_handle: NewHandle) -> int: ...
    def tpuConstant(graph_handle: Handle, data: InBuffer, data_size: int,
                    rows: int, cols: int, node_id: OutScalar) -> int: ...

========== ==========================================================
marker      meaning
========== ==========================================================
Handle      opaque handle argument (guest sees an int id)
NewHandle   OutBox that receives a freshly allocated handle
OutScalar   OutBox that receives a scalar result
InBuffer    input payload; size from the ``<name>_size`` sibling
OutBuffer   output payload; capacity from ``<name>_capacity``/``_size``
            sibling; shrinks to an OutScalar named ``produced`` if one
            exists
int/float   scalars;  str  strings
========== ==========================================================

A module may declare ``AVA_ASYNC = {"fn", ...}`` (forward those calls
asynchronously), ``AVA_NORECORD = {...}`` (suppress migration-record
inference), ``AVA_RECORD = {"fn": "modify"}`` (force a migration-record
category), and ``AVA_DEALLOCATES = {"fn": "param"}``.
"""

from __future__ import annotations

import inspect
import typing
from typing import Any, Callable, List, Optional

from repro.spec.errors import SpecSemanticError
from repro.spec.expr import Name
from repro.spec.infer import _infer_record_kind
from repro.spec.model import (
    ApiSpec,
    RecordKind,
    CType,
    Direction,
    FunctionSpec,
    ParamSpec,
    SyncMode,
    SyncPolicy,
    TypeSpec,
    scalar_literal,
)


class Handle:
    """Marker: opaque handle argument."""


class NewHandle:
    """Marker: OutBox receiving a freshly allocated handle."""


class OutScalar:
    """Marker: OutBox receiving a scalar result."""


class InBuffer:
    """Marker: input payload with a ``<name>_size`` sibling."""


class OutBuffer:
    """Marker: output payload with a capacity sibling."""


_HANDLE_TYPE = "ava_pyhandle"
_STATUS_TYPE = "ava_pystatus"


def _sibling(names: List[str], base: str, suffixes) -> Optional[str]:
    for suffix in suffixes:
        candidate = base + suffix
        if candidate in names:
            return candidate
    return None


def _param_from_annotation(
    func_name: str,
    name: str,
    annotation: Any,
    all_names: List[str],
) -> ParamSpec:
    if annotation is Handle:
        return ParamSpec(name=name, ctype=CType(_HANDLE_TYPE),
                         is_handle=True)
    if annotation is NewHandle:
        return ParamSpec(
            name=name, ctype=CType(_HANDLE_TYPE, 1),
            direction=Direction.OUT, buffer_size=scalar_literal(1),
            buffer_is_elements=True, element_allocates=True,
        )
    if annotation is OutScalar:
        return ParamSpec(
            name=name, ctype=CType("long", 1), direction=Direction.OUT,
            buffer_size=scalar_literal(1), buffer_is_elements=True,
        )
    if annotation is InBuffer:
        size = _sibling(all_names, name, ("_size", "_len", "_bytes"))
        if size is None:
            raise SpecSemanticError(
                f"{func_name}: InBuffer parameter {name!r} needs a "
                f"'{name}_size' sibling"
            )
        return ParamSpec(
            name=name, ctype=CType("void", 1, is_const=True),
            direction=Direction.IN, buffer_size=Name(size),
        )
    if annotation is OutBuffer:
        size = _sibling(all_names, name, ("_capacity", "_size"))
        if size is None:
            raise SpecSemanticError(
                f"{func_name}: OutBuffer parameter {name!r} needs a "
                f"'{name}_capacity' sibling"
            )
        param = ParamSpec(
            name=name, ctype=CType("void", 1), direction=Direction.OUT,
            buffer_size=Name(size),
        )
        if "produced" in all_names:
            param.shrinks_to = "produced"
        return param
    if annotation is int or annotation is inspect.Parameter.empty:
        return ParamSpec(name=name, ctype=CType("long"))
    if annotation is float:
        return ParamSpec(name=name, ctype=CType("double"))
    if annotation is str:
        return ParamSpec(
            name=name, ctype=CType("char", 1, is_const=True),
            is_string=True,
        )
    raise SpecSemanticError(
        f"{func_name}: parameter {name!r} has unsupported annotation "
        f"{annotation!r}"
    )


def spec_from_module(
    module: Any,
    api_name: str,
    prefix: str,
    predicate: Optional[Callable[[str], bool]] = None,
) -> ApiSpec:
    """Build an :class:`ApiSpec` from a Python module's signatures."""
    spec = ApiSpec(name=api_name)
    spec.types[_STATUS_TYPE] = TypeSpec(name=_STATUS_TYPE,
                                        success_value="0")
    spec.types[_HANDLE_TYPE] = TypeSpec(name=_HANDLE_TYPE, is_handle=True,
                                        size_bytes=8)
    async_set = set(getattr(module, "AVA_ASYNC", ()))
    norecord = set(getattr(module, "AVA_NORECORD", ()))
    record_override = dict(getattr(module, "AVA_RECORD", {}))
    deallocates = dict(getattr(module, "AVA_DEALLOCATES", {}))

    for name in sorted(dir(module)):
        if not name.startswith(prefix):
            continue
        # API functions are camelCase after the prefix; a helper named
        # `tpu_...` is module plumbing, not API surface
        if not name[len(prefix):][:1].isupper():
            continue
        if predicate is not None and not predicate(name):
            continue
        fn = getattr(module, name)
        if not callable(fn):
            continue
        signature = inspect.signature(fn)
        all_names = list(signature.parameters)
        # modules using `from __future__ import annotations` carry string
        # annotations; resolve them against the module's globals
        try:
            hints = typing.get_type_hints(fn)
        except Exception:
            hints = {}
        func = FunctionSpec(
            name=name,
            return_type=CType(_STATUS_TYPE),
            sync_policy=SyncPolicy.always(
                SyncMode.ASYNC if name in async_set else SyncMode.SYNC
            ),
            record_kind=(
                None if name in norecord
                else RecordKind(record_override[name])
                if name in record_override
                else _infer_record_kind(name)
            ),
            doc=inspect.getdoc(fn),
        )
        for param_name, parameter in signature.parameters.items():
            annotation = hints.get(param_name, parameter.annotation)
            func.params.append(
                _param_from_annotation(name, param_name, annotation,
                                       all_names)
            )
        free_param = deallocates.get(name)
        if free_param is not None:
            func.param(free_param).element_deallocates = True
        spec.add_function(func)

    if not spec.functions:
        raise SpecSemanticError(
            f"module {module.__name__!r} has no functions with prefix "
            f"{prefix!r}"
        )
    spec.require_valid()
    return spec
