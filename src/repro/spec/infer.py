"""Inference of a preliminary API specification from a C header.

This is CAvA's first workflow step (paper Figure 2): from the unmodified
header, produce a best-effort spec plus *guidance* — a list of the places
where inference was not confident and the developer must refine.  The
heuristics mirror the paper's examples:

* ``const T *`` parameters are input buffers (Figure 4's rationale for
  ``event_wait_list``),
* ``typedef struct _x *name;`` types are opaque handles,
* buffer sizes come from naming conventions (§3: "the size parameter for
  every pointer argument has the same name with ``_size`` appended"),
* function-name verbs suggest record/replay categories for migration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.spec.cparser import FunctionDecl, HeaderInfo
from repro.spec.expr import Name
from repro.spec.model import (
    ApiSpec,
    CType,
    Direction,
    FunctionSpec,
    ParamSpec,
    RecordKind,
    SyncPolicy,
    SyncMode,
    TypeSpec,
)

#: scalar C types that, behind a single pointer with no size sibling,
#: are treated as single-element out-parameters (e.g. ``cl_int *errcode``)
_SCALARISH = {
    "char",
    "int",
    "unsigned int",
    "unsigned",
    "long",
    "unsigned long",
    "float",
    "double",
    "size_t",
}


@dataclass
class SizeConvention:
    """Naming conventions used to locate a buffer's size parameter.

    Patterns may reference ``{name}`` (the pointer parameter's name) and
    ``{stem}`` (the name with a trailing plural ``s`` removed).  Matching
    is attempted in order; the first pattern naming an actual sibling
    parameter wins.
    """

    patterns: Sequence[str] = field(
        default_factory=lambda: (
            "{name}_size",
            "{name}_len",
            "{name}_count",
            "num_{name}",
            "num_{stem}s",
            "n{name}",
            "{stem}_count",
        )
    )
    #: generic fallbacks tried only if exactly one pointer param exists
    generic: Sequence[str] = field(
        default_factory=lambda: ("size", "length", "count", "cb", "n")
    )

    def candidates(self, param_name: str) -> List[str]:
        stem = param_name[:-1] if param_name.endswith("s") else param_name
        result = [
            pattern.format(name=param_name, stem=stem)
            for pattern in self.patterns
        ]
        if "_" in param_name:
            # arg_value → arg_size: replace the last underscore component.
            prefix = param_name.rsplit("_", 1)[0]
            result.extend((f"{prefix}_size", f"{prefix}_len", f"{prefix}_count"))
        return result


#: destroy verbs are matched before create verbs: "Deallocate" contains
#: the substring "alloc" and must not be classified as a creation
_RECORD_VERBS: Tuple[Tuple[Tuple[str, ...], RecordKind], ...] = (
    (("Init",), RecordKind.CONFIG),
    (("Release", "Destroy", "Free", "Close", "Deallocate"), RecordKind.DESTROY),
    (("Retain",), RecordKind.RETAIN),
    (("Create", "Alloc", "Open"), RecordKind.CREATE),
    (("Set", "Build", "Compile", "Load", "Write"), RecordKind.MODIFY),
)


def _infer_record_kind(func_name: str) -> Optional[RecordKind]:
    for verbs, kind in _RECORD_VERBS:
        for verb in verbs:
            if verb.lower() in func_name.lower():
                return kind
    return None


def _find_success_constant(header: HeaderInfo, api_name: str) -> Optional[str]:
    """Pick the API's success status constant, if one is obvious."""
    exact = f"{api_name.upper()}_SUCCESS"
    if exact in header.constants:
        return exact
    suffix_matches = [
        name for name in header.constants if name.endswith("_SUCCESS")
    ]
    if len(suffix_matches) == 1:
        return suffix_matches[0]
    zero_valued = [n for n in suffix_matches if header.constants[n] == 0]
    if len(zero_valued) == 1:
        return zero_valued[0]
    return None


class _FunctionInferrer:
    def __init__(
        self,
        header: HeaderInfo,
        decl: FunctionDecl,
        convention: SizeConvention,
        guidance: List[str],
    ) -> None:
        self.header = header
        self.decl = decl
        self.convention = convention
        self.guidance = guidance
        self.param_names = {name for name, _ in decl.params}

    def infer(self) -> FunctionSpec:
        func = FunctionSpec(
            name=self.decl.name,
            return_type=self.decl.return_type,
            sync_policy=SyncPolicy.always(SyncMode.SYNC),
            record_kind=_infer_record_kind(self.decl.name),
        )
        for name, ctype in self.decl.params:
            func.params.append(self._infer_param(name, ctype))
        return func

    def _size_sibling(self, param_name: str) -> Optional[str]:
        for candidate in self.convention.candidates(param_name):
            if candidate in self.param_names and candidate != param_name:
                return candidate
        pointer_params = [
            name
            for name, ctype in self.decl.params
            if ctype.is_pointer and ctype.base != "char"
        ]
        if len(pointer_params) == 1:
            for candidate in self.convention.generic:
                if candidate in self.param_names:
                    return candidate
        return None

    def _infer_param(self, name: str, ctype: CType) -> ParamSpec:
        param = ParamSpec(name=name, ctype=ctype, inferred=True)
        if not ctype.is_pointer:
            param.is_handle = self.header.is_handle_type(ctype.base)
            return param
        if ctype.base == "char" and ctype.is_const and ctype.pointer_depth == 1:
            param.is_string = True
            param.direction = Direction.IN
            return param
        param.direction = Direction.IN if ctype.is_const else Direction.OUT
        size_name = self._size_sibling(name)
        if size_name is not None:
            param.buffer_size = Name(size_name)
            param.buffer_is_elements = ctype.base != "void"
            return param
        pointee_is_scalarish = (
            ctype.pointer_depth == 1
            and not ctype.is_const
            and (
                ctype.base in _SCALARISH
                or ctype.base in self.header.typedefs
            )
        )
        if pointee_is_scalarish:
            # Single-element pointer: out-scalar or out-handle.
            from repro.spec.model import scalar_literal

            param.buffer_size = scalar_literal(1)
            param.buffer_is_elements = True
            if self.header.is_handle_type(ctype.base) and not ctype.is_const:
                param.element_allocates = True
            return param
        self.guidance.append(
            f"{self.decl.name}: cannot infer the size of pointer parameter "
            f"{name!r}; annotate it with buffer(<expr>) or string"
        )
        return param


def infer_preliminary_spec(
    header: HeaderInfo,
    api_name: str,
    convention: Optional[SizeConvention] = None,
) -> ApiSpec:
    """Build a preliminary :class:`ApiSpec` from a parsed header.

    The returned spec's ``guidance`` lists everything the developer must
    review: un-inferable buffer sizes, guessed record categories, and the
    success-constant choice.  This mirrors the paper's workflow in which
    CAvA "creates a preliminary API specification from the unmodified
    header file" and the programmer refines it.
    """
    convention = convention or SizeConvention()
    spec = ApiSpec(name=api_name)
    spec.constants.update(header.constants)
    if header.filename:
        spec.includes.append(header.filename)

    for typedef in header.typedefs.values():
        spec.types[typedef.name] = TypeSpec(
            name=typedef.name,
            is_handle=typedef.is_struct_pointer,
            size_bytes=typedef.size_bytes,
        )

    success = _find_success_constant(header, api_name)
    status_types = {
        decl.return_type.base
        for decl in header.functions
        if not decl.return_type.is_pointer
        and decl.return_type.base in header.typedefs
        and not header.is_handle_type(decl.return_type.base)
    }
    if success is not None:
        for type_name in status_types:
            spec.types[type_name].success_value = success
        spec.guidance.append(
            f"assumed {success!r} is the success value for status "
            f"type(s) {sorted(status_types)}; adjust with type(...) "
            "{ success(...); } if wrong"
        )

    for decl in header.functions:
        inferrer = _FunctionInferrer(header, decl, convention, spec.guidance)
        func = inferrer.infer()
        if func.record_kind is not None:
            spec.guidance.append(
                f"{func.name}: inferred migration record category "
                f"{func.record_kind.value!r} from the function name"
            )
        spec.add_function(func)
    return spec
