"""Data model for parsed CAvA API specifications.

An :class:`ApiSpec` is the contract between every other part of AvA: the
inference pass produces a preliminary one from a C header, the spec parser
produces a refined one from a ``.cava`` file, and the code generator
consumes one to emit the guest library and API-server dispatch code.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.spec.errors import SpecSemanticError
from repro.spec.expr import Evaluator, Expr, Literal


class Direction(enum.Enum):
    """Data-flow direction of a pointer parameter."""

    IN = "in"
    OUT = "out"
    INOUT = "inout"


class SyncMode(enum.Enum):
    """Whether a forwarded call blocks the guest until the reply."""

    SYNC = "sync"
    ASYNC = "async"


class RecordKind(enum.Enum):
    """Migration record/replay category (§4.3 of the paper).

    Functions annotated with any of these are logged during normal
    execution so a VM can be migrated by replaying them.
    """

    CONFIG = "config"      # global configuration, e.g. cuInit
    CREATE = "create"      # object allocation, e.g. clCreateBuffer
    DESTROY = "destroy"    # object deallocation, e.g. clReleaseMemObject
    MODIFY = "modify"      # object modification, e.g. clSetKernelArg


@dataclass(frozen=True)
class CType:
    """A (simplified) C type: base name, pointer depth, constness."""

    base: str
    pointer_depth: int = 0
    is_const: bool = False

    @property
    def is_pointer(self) -> bool:
        return self.pointer_depth > 0

    def to_source(self) -> str:
        const = "const " if self.is_const else ""
        return f"{const}{self.base}{' ' + '*' * self.pointer_depth if self.pointer_depth else ''}"

    def __str__(self) -> str:
        return self.to_source()


@dataclass
class TypeSpec:
    """Type-level annotations (Figure 4 line 1).

    ``success_value`` names the constant returned immediately for
    asynchronously-forwarded calls of this return type.  ``is_handle``
    marks opaque handle types whose values must be translated between
    guest and host.
    """

    name: str
    success_value: Optional[str] = None
    is_handle: bool = False
    size_bytes: Optional[int] = None


@dataclass
class ParamSpec:
    """Per-parameter annotations for one API function."""

    name: str
    ctype: CType
    direction: Direction = Direction.IN
    #: byte-count expression for buffer parameters (None = scalar/handle)
    buffer_size: Optional[Expr] = None
    #: buffer() was declared in element counts; multiply by element size
    buffer_is_elements: bool = False
    #: out-parameter whose single element is a freshly allocated handle
    element_allocates: bool = False
    #: the handle(s) passed here are released by this call
    element_deallocates: bool = False
    is_handle: bool = False
    nullable: bool = False
    is_string: bool = False
    #: runtime-typed argument (scalar OR buffer OR handle), the
    #: clSetKernelArg case; resolved by the server's handle resolver
    is_anyvalue: bool = False
    #: small integer array marshaled by value (size_t work sizes)
    is_scalar_array: bool = False
    #: guest function pointer: marshaled as a callback-registry id, and
    #: host invocations are forwarded back with the reply (§4.2)
    is_callback: bool = False
    #: out-buffer whose *useful* length is another out-parameter's value:
    #: the server truncates the reply payload to it (compression results,
    #: variable-length reads) instead of shipping the full capacity back
    shrinks_to: Optional[str] = None
    #: explicitly inferred (not developer-written) — surfaced as guidance
    inferred: bool = False

    def element_size(self, sizeof_table: Mapping[str, int]) -> int:
        """Size of one pointee element, for element-count buffers."""
        if not self.ctype.is_pointer:
            return 1
        base = self.ctype.base
        if base == "void":
            return 1
        return int(sizeof_table.get(base, 1))


@dataclass
class SyncPolicy:
    """When a call blocks: unconditional or argument-dependent.

    Figure 4 line 9: ``if (blocking_read == CL_TRUE) sync; else async;``.
    """

    default: SyncMode = SyncMode.SYNC
    condition: Optional[Expr] = None
    #: mode when ``condition`` evaluates true (default applies otherwise)
    mode_if_true: SyncMode = SyncMode.SYNC

    def resolve(self, env: Mapping[str, float],
                sizeof_table: Optional[Mapping[str, int]] = None) -> SyncMode:
        """The effective mode for a concrete invocation."""
        if self.condition is None:
            return self.default
        value = Evaluator(env, sizeof_table).evaluate(self.condition)
        return self.mode_if_true if value else self.default

    def modes(self) -> "tuple":
        """(can_sync, can_async) — the modes a call can take at runtime."""
        if self.condition is None:
            return (self.default is SyncMode.SYNC,
                    self.default is SyncMode.ASYNC)
        possible = {self.default, self.mode_if_true}
        return (SyncMode.SYNC in possible, SyncMode.ASYNC in possible)

    def classification(self) -> str:
        """Stable ordering class: ``sync`` | ``async`` | ``conditional``.

        This is the happens-before contract the generated stack must
        honour (``_mode`` in guest stubs, ``ORDERING`` in routing
        modules) and the key the CAVA40x analyzers and the runtime
        sanitizer agree on.
        """
        can_sync, can_async = self.modes()
        if can_sync and can_async:
            return "conditional"
        return "async" if can_async else "sync"

    @classmethod
    def always(cls, mode: SyncMode) -> "SyncPolicy":
        return cls(default=mode)


@dataclass
class FunctionSpec:
    """Everything CAvA knows about one API function."""

    name: str
    return_type: CType
    params: List[ParamSpec] = field(default_factory=list)
    sync_policy: SyncPolicy = field(default_factory=SyncPolicy)
    record_kind: Optional[RecordKind] = None
    #: parameters whose values key this call's migration record: a later
    #: successful call with equal values makes the earlier record dead
    #: (``supersedes(kernel, arg_index);``, see docs/migration.md)
    supersedes: Tuple[str, ...] = ()
    #: resource-name → cost expression (§4.3 scheduling approximations)
    resources: Dict[str, Expr] = field(default_factory=dict)
    unsupported: bool = False
    #: developer note emitted into generated code
    doc: Optional[str] = None

    def param(self, name: str) -> ParamSpec:
        for param in self.params:
            if param.name == name:
                return param
        raise SpecSemanticError(
            f"function {self.name!r} has no parameter {name!r}"
        )

    def param_names(self) -> List[str]:
        return [p.name for p in self.params]

    @property
    def has_required_outputs(self) -> bool:
        """Outputs the caller cannot opt out of (non-nullable).

        Optional out-parameters (e.g. event boxes the caller may pass as
        NULL) do not block async forwarding: a caller that wants them
        falls back to observable-at-synchronization semantics.
        """
        return any(
            p.direction in (Direction.OUT, Direction.INOUT)
            and not p.nullable
            for p in self.params
        )


@dataclass
class ApiSpec:
    """A complete parsed specification for one accelerator API."""

    name: str
    functions: Dict[str, FunctionSpec] = field(default_factory=dict)
    types: Dict[str, TypeSpec] = field(default_factory=dict)
    constants: Dict[str, float] = field(default_factory=dict)
    includes: List[str] = field(default_factory=list)
    #: guidance lines for the developer (preliminary-spec output)
    guidance: List[str] = field(default_factory=list)

    def function(self, name: str) -> FunctionSpec:
        if name not in self.functions:
            raise SpecSemanticError(f"API {self.name!r} has no function {name!r}")
        return self.functions[name]

    def add_function(self, func: FunctionSpec) -> None:
        if func.name in self.functions:
            raise SpecSemanticError(f"duplicate function {func.name!r}")
        self.functions[func.name] = func

    def handle_types(self) -> Set[str]:
        return {t.name for t in self.types.values() if t.is_handle}

    def success_value_of(self, func: FunctionSpec) -> float:
        """Numeric success value for ``func``'s return type (async path)."""
        declared = self.declared_success_of(func)
        return 0.0 if declared is None else declared

    def declared_success_of(self, func: FunctionSpec) -> Optional[float]:
        """The ``success(...)`` constant of ``func``'s return type, if any."""
        type_spec = self.types.get(func.return_type.base)
        if type_spec is None or type_spec.success_value is None:
            return None
        name = type_spec.success_value
        if name in self.constants:
            return self.constants[name]
        try:
            return float(name)
        except ValueError:
            raise SpecSemanticError(
                f"success value {name!r} for type "
                f"{func.return_type.base!r} is not a known constant"
            )

    def sizeof_table(self) -> Dict[str, int]:
        """Per-API type sizes merged over the builtin defaults."""
        from repro.spec.expr import DEFAULT_SIZEOF

        table = dict(DEFAULT_SIZEOF)
        for type_spec in self.types.values():
            if type_spec.size_bytes is not None:
                table[type_spec.name] = type_spec.size_bytes
        return table

    def validate(self) -> List[str]:
        """Semantic checks; returns a list of problems (empty = valid)."""
        problems: List[str] = []
        for func in self.functions.values():
            param_names = set(func.param_names())
            for param in func.params:
                if param.buffer_size is not None:
                    for name in param.buffer_size.names():
                        if name not in param_names and name not in self.constants:
                            problems.append(
                                f"{func.name}: buffer size of {param.name!r} "
                                f"references unknown name {name!r}"
                            )
                if param.element_allocates and param.direction is Direction.IN:
                    problems.append(
                        f"{func.name}: parameter {param.name!r} allocates "
                        "but is not an output"
                    )
                if param.shrinks_to is not None:
                    if param.direction is Direction.IN:
                        problems.append(
                            f"{func.name}: parameter {param.name!r} shrinks "
                            "but is not an output"
                        )
                    elif param.shrinks_to not in param_names:
                        problems.append(
                            f"{func.name}: {param.name!r} shrinks to unknown "
                            f"parameter {param.shrinks_to!r}"
                        )
            policy = func.sync_policy
            if policy.condition is not None:
                for name in policy.condition.names():
                    if name not in param_names and name not in self.constants:
                        problems.append(
                            f"{func.name}: sync condition references "
                            f"unknown name {name!r}"
                        )
            if (
                policy.condition is None
                and policy.default is SyncMode.ASYNC
                and func.has_required_outputs
            ):
                problems.append(
                    f"{func.name}: unconditionally async but has output "
                    "parameters; results cannot be returned faithfully"
                )
            for resource, expr in func.resources.items():
                for name in expr.names():
                    if name not in param_names and name not in self.constants:
                        problems.append(
                            f"{func.name}: resource {resource!r} estimate "
                            f"references unknown name {name!r}"
                        )
            if func.supersedes and func.record_kind is not RecordKind.MODIFY:
                problems.append(
                    f"{func.name}: supersedes() keys migration records, "
                    "but the function is not record(modify)"
                )
            for name in func.supersedes:
                if name not in param_names:
                    problems.append(
                        f"{func.name}: supersedes() names unknown "
                        f"parameter {name!r}"
                    )
                    continue
                param = func.param(name)
                # a key is compared by value when the call is recorded:
                # only handles and scalars passed by value qualify
                if (param.ctype.is_pointer
                        or param.direction is not Direction.IN
                        or param.is_anyvalue or param.is_callback):
                    problems.append(
                        f"{func.name}: supersedes() parameter {name!r} is "
                        "an out-parameter or a buffer; a key must be a "
                        "handle or scalar passed by value"
                    )
        return problems

    def require_valid(self) -> None:
        problems = self.validate()
        if problems:
            raise SpecSemanticError(
                "invalid API spec:\n  " + "\n  ".join(problems)
            )


def scalar_literal(value: float) -> Expr:
    """Helper used by inference to produce constant size expressions."""
    return Literal(value)
