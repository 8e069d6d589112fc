"""Layer 2 — handle-lifecycle abstract interpretation (CAVA2xx).

Arax-style decoupled runtimes live or die on handle lifetime: every
guest-visible handle is a row in the worker's translation table, and a
spec that can release what was never produced (or never release what it
produces) corrupts or leaks that table no matter how correct the
generated marshaling is.

For every handle type the analyzer extracts the *operations* the API
can perform on an instance — produce, use, release — from ``allocates``
/ ``deallocates`` / return-handle facts across the whole spec, then
interprets them over the three-state abstraction

    unborn ──produce──▶ live ──release──▶ released

with a reachability fixpoint (guests may call API functions in any
order, so every operation is always invocable; what varies per spec is
which operations exist at all and what states they can fire from).
Diagnostics fall out of the reachable transitions:

* a release firing with only ``unborn`` reachable is
  release-before-any-producer (CAVA201); uses with neither a producer
  nor a release mean guests can never obtain the handle (CAVA206),
* ``live`` reachable with no release operation is a leak (CAVA202),
* two release steps inside one invocation reach ``released──release``
  — double-release — because both slots may bind the same value
  (CAVA203),
* an ``async`` release racing a later synchronous use is the ordering
  hazard the transport must otherwise guarantee away (CAVA204).

Per function, a ``deallocates`` annotation must sit on a handle slot
(CAVA207).  Two findings are about the migration log rather than a
handle: a ``record(modify)`` function without a ``supersedes(...)`` key
leaves one record per call until the object it touches is destroyed
(CAVA205), and a ``record(create)`` with no handle output or a
``record(destroy)`` that frees nothing is replayed for side effects only
(CAVA208).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.codegen.classify import ParamClass, classify_param, classify_return
from repro.spec.model import ApiSpec, FunctionSpec, RecordKind


_HANDLE_IN = (ParamClass.HANDLE, ParamClass.HANDLE_ARRAY_IN)
_HANDLE_OUT = (ParamClass.HANDLE_BOX_OUT, ParamClass.HANDLE_ARRAY_OUT)


class HandleState(enum.Enum):
    UNBORN = "unborn"
    LIVE = "live"
    RELEASED = "released"


@dataclass
class HandleOp:
    """One operation a function performs on a handle type."""

    function: str
    slot: str            # parameter name, or "__ret__" for return values
    kind: str            # "produce" | "use" | "release"
    many: bool = False   # array slot: may touch several (or duplicate) ids
    can_async: bool = False
    can_sync: bool = True


@dataclass
class HandleTypeFacts:
    """All operations the API performs on one handle type."""

    type_name: str
    ops: List[HandleOp] = field(default_factory=list)

    def of_kind(self, kind: str) -> List[HandleOp]:
        return [op for op in self.ops if op.kind == kind]


def _policy_modes(func: FunctionSpec) -> Tuple[bool, bool]:
    """(can_sync, can_async) for a function's forwarding policy."""
    return func.sync_policy.modes()


def collect_handle_facts(spec: ApiSpec) -> Dict[str, HandleTypeFacts]:
    """Extract per-handle-type operations from the whole API."""
    facts: Dict[str, HandleTypeFacts] = {
        name: HandleTypeFacts(name) for name in sorted(spec.handle_types())
    }

    def add(type_name: str, op: HandleOp) -> None:
        if type_name in facts:
            facts[type_name].ops.append(op)

    for fname in sorted(spec.functions):
        func = spec.functions[fname]
        if func.unsupported:
            continue
        can_sync, can_async = _policy_modes(func)
        if classify_return(spec, func) == "handle":
            add(func.return_type.base, HandleOp(
                fname, "__ret__", "produce",
                can_async=can_async, can_sync=can_sync))
        for param in func.params:
            cls = classify_param(spec, param)
            base = param.ctype.base
            if cls is ParamClass.HANDLE_BOX_OUT:
                add(base, HandleOp(fname, param.name, "produce",
                                   can_async=can_async, can_sync=can_sync))
            elif cls is ParamClass.HANDLE_ARRAY_OUT:
                add(base, HandleOp(fname, param.name, "produce", many=True,
                                   can_async=can_async, can_sync=can_sync))
            elif cls in _HANDLE_IN:
                kind = "release" if param.element_deallocates else "use"
                add(base, HandleOp(
                    fname, param.name, kind,
                    many=cls is ParamClass.HANDLE_ARRAY_IN,
                    can_async=can_async, can_sync=can_sync))
    return facts


def reachable_states(facts: HandleTypeFacts) -> Set[HandleState]:
    """Fixpoint of the three-state abstraction under the type's ops."""
    reached = {HandleState.UNBORN}
    has_produce = bool(facts.of_kind("produce"))
    has_release = bool(facts.of_kind("release"))
    changed = True
    while changed:
        changed = False
        if has_produce and HandleState.LIVE not in reached:
            reached.add(HandleState.LIVE)
            changed = True
        if (has_release and HandleState.LIVE in reached
                and HandleState.RELEASED not in reached):
            reached.add(HandleState.RELEASED)
            changed = True
    return reached


def analyze_lifecycle(spec: ApiSpec) -> Tuple[List[Diagnostic], int]:
    """Interpret every handle type's automaton; returns (diags, checks)."""
    diags: List[Diagnostic] = []
    checks = 0
    facts = collect_handle_facts(spec)
    for type_name in sorted(facts):
        type_facts = facts[type_name]
        if not type_facts.ops:
            continue  # declared but unused handle type: nothing to interpret
        produces = type_facts.of_kind("produce")
        uses = type_facts.of_kind("use")
        releases = type_facts.of_kind("release")
        reached = reachable_states(type_facts)
        checks += 1  # the automaton itself was constructed and explored

        if releases and HandleState.LIVE not in reached:
            funcs = sorted({op.function for op in releases})
            diags.append(Diagnostic(
                "CAVA201", type_name,
                f"handle type {type_name!r} is released by "
                f"{', '.join(funcs)} but no function in this spec "
                f"produces one — the only reachable release fires in the "
                f"'unborn' state",
            ))
        elif uses and not produces:
            funcs = sorted({op.function for op in uses})
            diags.append(Diagnostic(
                "CAVA206", type_name,
                f"handle type {type_name!r} is used by "
                f"{', '.join(funcs)} but never produced by any function "
                f"in this spec — guests cannot obtain one",
            ))
        if produces and not releases:
            funcs = sorted({op.function for op in produces})
            diags.append(Diagnostic(
                "CAVA202", type_name,
                f"handle type {type_name!r} is produced by "
                f"{', '.join(funcs)} but no function releases it — every "
                f"instance stays 'live' in the worker's translation table "
                f"for the VM's lifetime",
            ))

        # double-release inside one invocation: two release slots of the
        # same type (or one array release) can bind the same handle id,
        # so the second step fires from 'released'.
        by_function: Dict[str, List[HandleOp]] = {}
        for op in releases:
            by_function.setdefault(op.function, []).append(op)
        for fname in sorted(by_function):
            ops = by_function[fname]
            checks += 1
            slots = sorted(op.slot for op in ops)
            if len(ops) >= 2:
                diags.append(Diagnostic(
                    "CAVA203", fname,
                    f"{fname!r} releases {type_name!r} through "
                    f"{len(ops)} slots ({', '.join(slots)}); a caller "
                    f"binding the same handle to both reaches "
                    f"released→release",
                ))
            elif ops[0].many:
                diags.append(Diagnostic(
                    "CAVA203", f"{fname}.{ops[0].slot}",
                    f"{fname!r} releases an array of {type_name!r} "
                    f"handles; a duplicated element reaches "
                    f"released→release within one call",
                ))

        # async release vs later sync use: the release's effect on the
        # translation table is deferred, the use is not.
        async_releases = [op for op in releases if op.can_async]
        sync_uses = [op for op in uses if op.can_sync]
        if async_releases:
            checks += 1
        for rel in async_releases:
            if sync_uses:
                use_funcs = sorted({op.function for op in sync_uses})
                shown = ", ".join(use_funcs[:4])
                if len(use_funcs) > 4:
                    shown += f", … ({len(use_funcs)} total)"
                diags.append(Diagnostic(
                    "CAVA204", f"{rel.function}.{rel.slot}",
                    f"{rel.function!r} releases {type_name!r} "
                    f"asynchronously while synchronous users exist "
                    f"({shown}); unless the transport preserves per-VM "
                    f"FIFO order, the release can overtake a later use",
                ))

    for fname in sorted(spec.functions):
        func = spec.functions[fname]
        if func.unsupported:
            continue
        classes = {p.name: classify_param(spec, p) for p in func.params}
        for param in func.params:
            if not param.element_deallocates:
                continue
            checks += 1
            if classes[param.name] not in _HANDLE_IN:
                diags.append(Diagnostic(
                    "CAVA207", f"{fname}.{param.name}",
                    f"{fname!r} deallocates {param.name!r}, which is not "
                    f"a handle ({classes[param.name].value}) — there is "
                    f"no translation-table row to release",
                ))
        if func.record_kind is RecordKind.CREATE:
            checks += 1
            if classify_return(spec, func) != "handle" and not any(
                    cls in _HANDLE_OUT for cls in classes.values()):
                diags.append(Diagnostic(
                    "CAVA208", fname,
                    f"{fname!r} is record(create) but has no handle "
                    f"output — the migration log replays it for side "
                    f"effects only",
                ))
        elif func.record_kind is RecordKind.DESTROY:
            checks += 1
            if not any(p.element_deallocates for p in func.params):
                diags.append(Diagnostic(
                    "CAVA208", fname,
                    f"{fname!r} is record(destroy) but no parameter "
                    f"deallocates — its record frees nothing on replay",
                ))
        elif func.record_kind is RecordKind.MODIFY:
            checks += 1
            if not func.supersedes:
                diags.append(Diagnostic(
                    "CAVA205", fname,
                    f"{fname!r} is record(modify) without supersedes(...): "
                    f"the migration log keeps every call until the object "
                    f"it modifies is destroyed; name the parameters that "
                    f"key the state it sets, or justify why each record "
                    f"is needed",
                ))
    return diags, checks
