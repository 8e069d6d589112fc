"""Layer 3 — AST verification of the generated stack (CAVA3xx).

The other layers judge the *specification*; this one judges CAvA's own
output.  It generates the guest library, server dispatch, and routing
table in memory, parses them with :mod:`ast`, and mechanically checks
invariants the generated code must satisfy regardless of which spec
produced it:

* the order in which the guest stub encodes marshaled parameters equals
  the order the server stub decodes them (protocol agreement, CAVA301),
* every handle parameter flows through the worker's handle translation
  (``handles.lookup_optional`` / ``handles.lookup_list`` in, ``bind``
  out, CAVA302),
* an unconditionally-async stub never registers a reply-dependent
  output outside a caller-opt-in guard (CAVA303),
* every generated ``raise`` is a typed remoting error and every
  generated ``except`` re-raises (CAVA304),
* every wire-bound buffer size passes through a generated size
  assertion (CAVA305),
* guest ``FUNCTIONS``, server ``DISPATCH`` and the routing table agree
  on the function set (CAVA306),
* a reply shrink reads ``.value`` only from a local constructed as an
  out-scalar box (CAVA307),
* every guest stub routes through ``GuestRuntime.submit`` with a
  ``_mode`` that matches the spec's sync classification, so the
  runtime's flush-before-sync discipline fires for every sync-capable
  call (CAVA308),
* the routing module carries ordering metadata (``ORDERING`` /
  ``SYNC_POINTS``) agreeing with the spec's happens-before model and
  attaches it to the built table, so the router and sanitizer can
  verify per-VM program order across ``CommandBatch`` unbundling
  (CAVA309),
* the generated codec module covers exactly the supported function set
  (CAVA310),
* its ``LAYOUT`` literal — the marshaling tables' source of truth —
  matches the wire layout re-derived from the spec's parameter
  classification, so the fast path can never disagree with the guest
  and server stubs about what crosses in which section (CAVA311),
* and the generated codec module holds tables only — no function
  definitions, no import but :mod:`repro.remoting.speccodec` — so all
  unpacking and slicing is the shared bounds-checked walkers' and
  hostile frames always meet their CodecError (CAVA312).

Because the checks run on source text, tests can also feed tampered
sources to prove each invariant actually bites — the checker is the
regression net under every future codegen change.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.codegen.classify import ParamClass, classify_param, classify_return
from repro.codegen.generator import GeneratedSources, generate_sources
from repro.spec.model import ApiSpec

#: guest-side marshaling dicts whose stores define the encode order
_ENCODE_DICTS = {"_scalars", "_handles", "_in_buffers", "_out_sizes"}

#: exception types generated code may raise
_TYPED_ERRORS = {"RemotingError"}


@dataclass
class _GuestStub:
    name: str
    encode_order: List[str] = field(default_factory=list)
    const_mode: Optional[str] = None
    #: a ``_mode = …`` assignment exists (constant or conditional)
    mode_assigned: bool = False
    #: the stub returns through ``_rt.submit(...)`` — the only path on
    #: which the runtime's flush-before-sync discipline can fire
    submits_via_runtime: bool = False
    #: (dict_name, param, inside_none_guard) for reply-output registration
    out_stores: List[Tuple[str, str, bool]] = field(default_factory=list)
    size_asserted: Set[str] = field(default_factory=set)


@dataclass
class _ServerStub:
    name: str
    decode_order: List[str] = field(default_factory=list)
    #: param → source text of its (first) decode assignment
    decode_sources: Dict[str, str] = field(default_factory=dict)
    collect_source: str = ""
    bind_slots: Set[str] = field(default_factory=set)


def _const_str(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _is_none_guard(test: ast.AST) -> bool:
    """``<name> is not None`` (the caller-opt-in guard codegen emits)."""
    return (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.IsNot)
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    )


def _calls_in(node: ast.AST) -> List[ast.Call]:
    return [n for n in ast.walk(node) if isinstance(n, ast.Call)]


def _scan_guest_function(fn: ast.FunctionDef) -> _GuestStub:
    stub = _GuestStub(name=fn.name)
    seen: Set[str] = set()

    def visit(node: ast.AST, guarded: bool) -> None:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if (isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)):
                dict_name = target.value.id
                key = _const_str(target.slice)
                if key is not None:
                    if dict_name in _ENCODE_DICTS and key not in seen:
                        seen.add(key)
                        stub.encode_order.append(key)
                    if dict_name in ("_out_sizes", "_out_targets"):
                        stub.out_stores.append((dict_name, key, guarded))
            elif isinstance(target, ast.Name) and target.id == "_mode":
                stub.mode_assigned = True
                stub.const_mode = _const_str(node.value)
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "submit"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "_rt"):
            stub.submits_via_runtime = True
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            call = node.value
            if (isinstance(call.func, ast.Name)
                    and call.func.id == "_assert_size"
                    and len(call.args) >= 2):
                param = _const_str(call.args[1])
                if param is not None:
                    stub.size_asserted.add(param)
        if isinstance(node, ast.If):
            inner = guarded or _is_none_guard(node.test)
            for child in node.body:
                visit(child, inner)
            for child in node.orelse:
                visit(child, guarded)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, guarded)

    for statement in fn.body:
        visit(statement, False)
    return stub


def _scan_server_function(fn: ast.FunctionDef, api_func: str) -> _ServerStub:
    stub = _ServerStub(name=api_func)
    seen: Set[str] = set()
    before_native = True
    collect_nodes: List[ast.AST] = []

    def is_native_call(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and isinstance(node.value.func.value, ast.Name)
            and node.value.func.value.id == "_native"
        )

    def record_decode(node: ast.AST) -> None:
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Assign) and len(sub.targets) == 1
                    and isinstance(sub.targets[0], ast.Name)):
                name = sub.targets[0].id
                if not name.startswith("_") and name not in seen:
                    seen.add(name)
                    stub.decode_order.append(name)
                    stub.decode_sources[name] = ast.unparse(sub.value)

    for statement in fn.body:
        if is_native_call(statement):
            before_native = False
        elif before_native:
            record_decode(statement)
        else:
            collect_nodes.append(statement)
    for node in collect_nodes:
        stub.collect_source += ast.unparse(node) + "\n"
        for call in _calls_in(node):
            if (isinstance(call.func, ast.Attribute)
                    and call.func.attr == "bind" and call.args):
                slot = _const_str(call.args[0])
                if slot is not None:
                    stub.bind_slots.add(slot)
    return stub


def _module_function_sets(
    guest_tree: ast.Module, server_tree: ast.Module, routing_tree: ast.Module
) -> Tuple[Set[str], Set[str], Set[str]]:
    guest_set: Set[str] = set()
    for node in guest_tree.body:
        if (isinstance(node, ast.Assign)
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "FUNCTIONS"
                and isinstance(node.value, ast.List)):
            guest_set = {
                element.value for element in node.value.elts
                if isinstance(element, ast.Constant)
            }
    server_set: Set[str] = set()
    for node in server_tree.body:
        if (isinstance(node, ast.Assign)
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "DISPATCH"
                and isinstance(node.value, ast.Dict)):
            server_set = {
                _const_str(key) for key in node.value.keys
            } - {None}
    routing_set: Set[str] = set()
    for node in ast.walk(routing_tree):
        if (isinstance(node, ast.Assign)
                and isinstance(node.targets[0], ast.Subscript)
                and isinstance(node.targets[0].value, ast.Attribute)
                and node.targets[0].value.attr == "functions"):
            name = _const_str(node.targets[0].slice)
            if name is not None:
                routing_set.add(name)
    return guest_set, server_set, routing_set


def _check_raises(tree: ast.Module, which: str) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            if node.exc is None:
                continue  # bare re-raise inside a handler is the good case
            call = node.exc
            fname = None
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name):
                fname = call.func.id
            elif isinstance(call, ast.Name):
                fname = call.id
            if fname not in _TYPED_ERRORS:
                diags.append(Diagnostic(
                    "CAVA304", which,
                    f"generated {which} module raises {fname or 'a computed'}"
                    f" exception; remoting failures must surface as one of "
                    f"{sorted(_TYPED_ERRORS)}",
                ))
        if isinstance(node, ast.ExceptHandler):
            if not any(isinstance(sub, ast.Raise)
                       for sub in ast.walk(node)):
                diags.append(Diagnostic(
                    "CAVA304", which,
                    f"generated {which} module contains an except handler "
                    f"that swallows the error without re-raising",
                ))
    return diags


#: wire classes whose guest stub must assert the computed size
_SIZE_ASSERTED = {
    ParamClass.BUFFER_IN, ParamClass.BUFFER_OUT, ParamClass.BUFFER_INOUT,
    ParamClass.HANDLE_ARRAY_OUT,
}


def analyze_generated(
    spec: ApiSpec,
    native_module: str = "repro.analysis.native_placeholder",
    sources: Optional[GeneratedSources] = None,
) -> Tuple[List[Diagnostic], int]:
    """Generate (or accept) the stack sources and verify their ASTs."""
    if sources is None:
        sources = generate_sources(spec, native_module)
    diags: List[Diagnostic] = []
    checks = 0

    guest_tree = ast.parse(sources.guest_source)
    server_tree = ast.parse(sources.server_source)
    routing_tree = ast.parse(sources.routing_source)

    guest_stubs: Dict[str, _GuestStub] = {}
    for node in ast.walk(guest_tree):
        if isinstance(node, ast.ClassDef) and node.name == "GuestLibrary":
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    guest_stubs[item.name] = _scan_guest_function(item)

    server_stubs: Dict[str, _ServerStub] = {}
    for node in server_tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_srv_"):
            api_func = node.name[len("_srv_"):]
            server_stubs[api_func] = _scan_server_function(node, api_func)

    supported = [
        name for name in sorted(spec.functions)
        if not spec.functions[name].unsupported
    ]

    # -- CAVA306: the three modules must agree on the function set -------
    guest_set, server_set, routing_set = _module_function_sets(
        guest_tree, server_tree, routing_tree)
    expected = set(supported)
    for which, got in (("guest FUNCTIONS", guest_set),
                       ("server DISPATCH", server_set),
                       ("routing table", routing_set)):
        checks += 1
        if got != expected:
            missing = sorted(expected - got)
            extra = sorted(got - expected)
            detail = []
            if missing:
                detail.append(f"missing {missing}")
            if extra:
                detail.append(f"unexpected {extra}")
            diags.append(Diagnostic(
                "CAVA306", spec.name,
                f"{which} drifts from the specification: "
                + "; ".join(detail),
            ))

    for fname in supported:
        func = spec.functions[fname]
        guest = guest_stubs.get(fname)
        server = server_stubs.get(fname)
        if guest is None or server is None:
            continue  # CAVA306 already reported the drift

        # -- CAVA301: encode order must embed into decode order ----------
        checks += 1
        decode_index = {name: i for i, name in
                        enumerate(server.decode_order)}
        missing = [p for p in guest.encode_order if p not in decode_index]
        if missing:
            diags.append(Diagnostic(
                "CAVA301", fname,
                f"guest encodes {missing} but the server stub never "
                f"decodes them",
            ))
        else:
            projected = [name for name in server.decode_order
                         if name in set(guest.encode_order)]
            if projected != guest.encode_order:
                diags.append(Diagnostic(
                    "CAVA301", fname,
                    f"guest encode order {guest.encode_order} != server "
                    f"decode order {projected}",
                ))

        # -- CAVA302: handle translation on every handle slot ------------
        for param in func.params:
            cls = classify_param(spec, param)
            source = server.decode_sources.get(param.name, "")
            if cls is ParamClass.HANDLE:
                checks += 1
                if "worker.handles.lookup_optional" not in source:
                    diags.append(Diagnostic(
                        "CAVA302", f"{fname}.{param.name}",
                        f"handle parameter {param.name!r} is not "
                        f"translated through worker.handles.lookup_optional "
                        f"(decoded as: {source or '<missing>'})",
                    ))
            elif cls is ParamClass.HANDLE_ARRAY_IN:
                checks += 1
                if "worker.handles.lookup_list" not in source:
                    diags.append(Diagnostic(
                        "CAVA302", f"{fname}.{param.name}",
                        f"handle array {param.name!r} is not translated "
                        f"through worker.handles.lookup_list "
                        f"(decoded as: {source or '<missing>'})",
                    ))
            elif cls in (ParamClass.HANDLE_BOX_OUT,
                         ParamClass.HANDLE_ARRAY_OUT):
                checks += 1
                if param.name not in server.bind_slots:
                    diags.append(Diagnostic(
                        "CAVA302", f"{fname}.{param.name}",
                        f"freshly produced handle(s) in {param.name!r} "
                        f"are never bound into the worker's translation "
                        f"table",
                    ))
        if classify_return(spec, func) == "handle":
            checks += 1
            if "__ret__" not in server.bind_slots:
                diags.append(Diagnostic(
                    "CAVA302", fname,
                    "returned handle is never bound into the worker's "
                    "translation table",
                ))

        # -- CAVA303: async stubs and reply-dependent outputs ------------
        if guest.const_mode == "async":
            checks += 1
            for dict_name, param, guarded in guest.out_stores:
                if not guarded:
                    diags.append(Diagnostic(
                        "CAVA303", f"{fname}.{param}",
                        f"unconditionally-async stub registers "
                        f"{dict_name}[{param!r}] outside a caller-opt-in "
                        f"None-guard; the reply payload it requests is "
                        f"never applied synchronously",
                    ))

        # -- CAVA305: generated size assertions --------------------------
        for param in func.params:
            if classify_param(spec, param) in _SIZE_ASSERTED:
                checks += 1
                if param.name not in guest.size_asserted:
                    diags.append(Diagnostic(
                        "CAVA305", f"{fname}.{param.name}",
                        f"buffer {param.name!r} reaches the wire without "
                        f"a generated _assert_size guard",
                    ))

        # -- CAVA307: shrink targets must be out-scalar boxes ------------
        for param in func.params:
            if param.shrinks_to is None:
                continue
            checks += 1
            target_source = server.decode_sources.get(param.shrinks_to, "")
            if "OutBox()" not in target_source:
                diags.append(Diagnostic(
                    "CAVA307", f"{fname}.{param.name}",
                    f"reply shrink of {param.name!r} reads "
                    f"{param.shrinks_to!r}.value, but the server stub "
                    f"materializes {param.shrinks_to!r} as "
                    f"`{target_source or '<missing>'}`, not an OutBox",
                ))

    # -- CAVA304: typed error discipline everywhere ----------------------
    checks += 3
    diags.extend(_check_raises(guest_tree, "guest"))
    diags.extend(_check_raises(server_tree, "server"))
    diags.extend(_check_raises(routing_tree, "routing"))

    # -- CAVA308/309: the generated stack honours the HB model -----------
    ordering_diags, ordering_checks = analyze_generated_ordering(
        spec, native_module, sources=sources)
    diags.extend(ordering_diags)
    checks += ordering_checks

    # -- CAVA310/311/312: the marshaling fast path stays honest ----------
    codec_diags, codec_checks = analyze_generated_codec(
        spec, native_module, sources=sources)
    diags.extend(codec_diags)
    checks += codec_checks
    return diags, checks


def _codec_layout_literal(codec_tree: ast.Module):
    """The ``LAYOUT`` dict literal of a generated codec module, or None."""
    for node in codec_tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "LAYOUT"):
            try:
                return ast.literal_eval(node.value)
            except (ValueError, SyntaxError):
                return None
    return None


def analyze_generated_codec(
    spec: ApiSpec,
    native_module: str = "repro.analysis.native_placeholder",
    sources: Optional[GeneratedSources] = None,
) -> Tuple[List[Diagnostic], int]:
    """CAVA310/311/312 — the generated wire codec must stay honest.

    The specialized codec's byte-identity guarantee rests on two legs:
    the ``LAYOUT`` tables must describe exactly what the guest stub
    marshals and the server stub collects (CAVA310/311), and every
    frame must be produced and consumed by the shared, bounds-checked
    walkers, which refuse what the tables do not describe, so the
    module may hold nothing but tables (CAVA312).  All three are
    decidable from the module source alone — ``LAYOUT`` is required to
    be a pure literal for this reason.
    """
    if sources is None:
        sources = generate_sources(spec, native_module)
    diags: List[Diagnostic] = []
    checks = 0

    supported = [
        name for name in sorted(spec.functions)
        if not spec.functions[name].unsupported
    ]

    checks += 1
    if not sources.codec_source:
        diags.append(Diagnostic(
            "CAVA310", spec.name,
            "no codec module was generated; the marshaling fast path "
            "has no tables for this API",
        ))
        return diags, checks
    codec_tree = ast.parse(sources.codec_source)
    layout = _codec_layout_literal(codec_tree)
    if not isinstance(layout, dict):
        diags.append(Diagnostic(
            "CAVA310", spec.name,
            "generated codec module has no pure-literal LAYOUT dict; "
            "the wire layout cannot be verified against the spec",
        ))
        return diags, checks

    # -- CAVA310: the codec covers exactly the supported set --------------
    checks += 1
    expected = set(supported)
    got = set(layout)
    if got != expected:
        missing = sorted(expected - got)
        extra = sorted(got - expected)
        detail = []
        if missing:
            detail.append(f"missing {missing}")
        if extra:
            detail.append(f"unexpected {extra}")
        diags.append(Diagnostic(
            "CAVA310", spec.name,
            "codec LAYOUT drifts from the specification's function "
            "set: " + "; ".join(detail),
        ))

    # -- CAVA311: every table matches the classified wire layout ----------
    from repro.codegen.codec_gen import function_layout

    for fname in supported:
        if fname not in layout:
            continue  # CAVA310 already reported the drift
        checks += 1
        derived = function_layout(spec, spec.functions[fname])
        emitted = layout[fname]
        wrong = sorted(
            key for key in derived
            if emitted.get(key) != derived[key]
        ) if isinstance(emitted, dict) else ["<not a dict>"]
        if wrong:
            diags.append(Diagnostic(
                "CAVA311", fname,
                f"codec LAYOUT for {fname!r} disagrees with the spec's "
                f"parameter classification in {wrong}; the fast path "
                f"would marshal a different frame than the guest stub",
            ))

    # -- CAVA312: the module holds tables only -----------------------------
    checks += 1
    for node in ast.walk(codec_tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            name = getattr(node, "name", "<lambda>")
            diags.append(Diagnostic(
                "CAVA312", name,
                f"generated codec module defines function {name!r}; "
                f"marshaling code outside the shared bounds-checked "
                f"walkers bypasses their trust-boundary checks",
            ))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            imported = [
                f"{node.module}.{alias.name}"
                if isinstance(node, ast.ImportFrom) else alias.name
                for alias in node.names
            ]
            if imported != ["repro.remoting.speccodec"]:
                diags.append(Diagnostic(
                    "CAVA312", spec.name,
                    f"generated codec module imports {imported}; it "
                    f"may import nothing but repro.remoting.speccodec",
                ))
    return diags, checks


def _routing_ordering_metadata(routing_tree: ast.Module):
    """(ORDERING dict, SYNC_POINTS list, attached attrs) from the AST."""
    ordering: Optional[Dict[str, str]] = None
    sync_points: Optional[List[str]] = None
    for node in routing_tree.body:
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            continue
        name = node.targets[0].id
        if name == "ORDERING" and isinstance(node.value, ast.Dict):
            ordering = {}
            for key, value in zip(node.value.keys, node.value.values):
                k, v = _const_str(key), _const_str(value)
                if k is not None and v is not None:
                    ordering[k] = v
        elif name == "SYNC_POINTS" and isinstance(node.value, ast.List):
            sync_points = [
                element.value for element in node.value.elts
                if isinstance(element, ast.Constant)
            ]
    attached: Set[str] = set()
    for node in ast.walk(routing_tree):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Attribute)
                and isinstance(node.targets[0].value, ast.Name)
                and node.targets[0].value.id == "table"):
            attached.add(node.targets[0].attr)
    return ordering, sync_points, attached


def analyze_generated_ordering(
    spec: ApiSpec,
    native_module: str = "repro.analysis.native_placeholder",
    sources: Optional[GeneratedSources] = None,
) -> Tuple[List[Diagnostic], int]:
    """CAVA308/309 — the generated stack must respect the HB model.

    The guest runtime flushes queued async work before any command it
    submits with ``_mode == 'sync'`` crosses the channel; the router
    preserves per-VM program order across ``CommandBatch`` unbundling
    using only its routing table.  Both disciplines key on generated
    artifacts, so both are verifiable by AST inspection:

    * CAVA308 — every supported guest stub returns through
      ``GuestRuntime.submit`` (never a direct transport call) and its
      ``_mode`` agrees with the spec's sync classification: a constant
      ``'sync'``/``'async'`` for unconditional policies, a computed
      expression for conditional ones.
    * CAVA309 — the routing module's ``ORDERING`` / ``SYNC_POINTS``
      constants match the classifications derived from the spec, and
      ``build_table`` attaches them to the constructed table.
    """
    if sources is None:
        sources = generate_sources(spec, native_module)
    diags: List[Diagnostic] = []
    checks = 0

    guest_tree = ast.parse(sources.guest_source)
    routing_tree = ast.parse(sources.routing_source)

    guest_stubs: Dict[str, _GuestStub] = {}
    for node in ast.walk(guest_tree):
        if isinstance(node, ast.ClassDef) and node.name == "GuestLibrary":
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    guest_stubs[item.name] = _scan_guest_function(item)

    supported = [
        name for name in sorted(spec.functions)
        if not spec.functions[name].unsupported
    ]

    for fname in supported:
        func = spec.functions[fname]
        stub = guest_stubs.get(fname)
        if stub is None:
            continue  # CAVA306 reports function-set drift
        checks += 1
        expected = func.sync_policy.classification()
        if not stub.submits_via_runtime:
            diags.append(Diagnostic(
                "CAVA308", fname,
                f"guest stub for {fname!r} does not route through "
                f"GuestRuntime.submit; queued async work cannot be "
                f"flushed before this call crosses the channel",
            ))
        elif expected == "conditional":
            if not stub.mode_assigned or stub.const_mode is not None:
                got = (f"constant {stub.const_mode!r}"
                       if stub.const_mode is not None else "no _mode")
                diags.append(Diagnostic(
                    "CAVA308", fname,
                    f"spec classifies {fname!r} as conditional but the "
                    f"guest stub forwards with {got}; the sync branch "
                    f"would never trigger the runtime's "
                    f"flush-before-sync barrier",
                ))
        elif stub.const_mode != expected:
            diags.append(Diagnostic(
                "CAVA308", fname,
                f"spec classifies {fname!r} as {expected!r} but the "
                f"guest stub submits with _mode = "
                f"{stub.const_mode!r}; the runtime's flush-before-sync "
                f"discipline keys on this mode",
            ))

    expected_ordering = {
        fname: spec.functions[fname].sync_policy.classification()
        for fname in supported
    }
    expected_sync_points = sorted(
        fname for fname in supported
        if spec.functions[fname].sync_policy.modes()[0]
    )
    ordering, sync_points, attached = \
        _routing_ordering_metadata(routing_tree)

    checks += 1
    if ordering != expected_ordering:
        missing = sorted(set(expected_ordering) - set(ordering or {}))
        wrong = sorted(
            name for name in (ordering or {})
            if expected_ordering.get(name) != ordering[name]
        )
        detail = []
        if ordering is None:
            detail.append("no ORDERING constant")
        else:
            if missing:
                detail.append(f"missing {missing}")
            if wrong:
                detail.append(f"misclassified {wrong}")
        diags.append(Diagnostic(
            "CAVA309", spec.name,
            f"routing module's ORDERING metadata diverges from the "
            f"spec's happens-before model: "
            + ("; ".join(detail) or "unexpected entries"),
        ))

    checks += 1
    if sync_points != expected_sync_points:
        diags.append(Diagnostic(
            "CAVA309", spec.name,
            f"routing module's SYNC_POINTS {sync_points!r} != the "
            f"spec's sync-capable set {expected_sync_points!r}",
        ))

    checks += 1
    if not {"ordering", "sync_points"} <= attached:
        diags.append(Diagnostic(
            "CAVA309", spec.name,
            "build_table() does not attach the ordering metadata "
            "(table.ordering / table.sync_points) to the constructed "
            "routing table; the router and sanitizer cannot see it",
        ))
    return diags, checks
