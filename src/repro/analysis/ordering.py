"""Layer 4 — happens-before ordering analysis (CAVA4xx, ``cava race``).

Abstract interpretation over the :mod:`repro.analysis.hbmodel` model of
one API.  Where the lifecycle layer asks "can this handle die twice?",
this layer asks "can the runtime's *reordering machinery* — batch
coalescing, payload elision, retransmission — observably permute this
API's effects?":

* **CAVA401** — an async-capable call registers observable outputs
  (out/inout buffers or boxes) but the API defines *no* sync-capable
  function at all, so no program can ever establish a happens-before
  edge between the enqueue and a read of those outputs.
* **CAVA402** — two async-capable calls (possibly two invocations of
  the same one) carry buffer accesses in the same alias class with at
  least one device-write.  Both can sit in one unflushed batch region
  with no intervening sync point; any layer that coalesces, splits, or
  retransmits that region may reorder non-commuting effects.
* **CAVA403** — an async-capable release of a handle type coexists with
  async-capable uses of the same type.  Inside one unflushed batch the
  release can be reordered past a use (the sibling of CAVA204, which
  covers the async-release / *sync*-use race).
* **CAVA404** — an async-capable call mutates guest memory through an
  out/inout buffer at reply-application (flush) time while some call
  sends a cache-eligible in-buffer in the same alias class: the
  transfer cache may digest the pre-mutation bytes and elide a payload
  the pending batch is still rewriting.

The warnings (402/403/404) name hazards a *runtime invariant* can
discharge — the router's in-order ``CommandBatch`` unbundling, the
guest's reply-leg flush — which is exactly what the CAVA308/309 AST
checks and the ``CAVA_SANITIZE=1`` runtime sanitizer then verify.  A
suppression citing the discharging invariant is the expected triage.

:func:`race_spec` / :func:`race_path` mirror the ``cava lint``
orchestration (same :class:`LintReport`, same ``.lint`` suppression
files — entries for other code families are ignored, not flagged
stale).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.analysis.diagnostics import Diagnostic, LintReport
from repro.analysis.genast import analyze_generated_ordering
from repro.analysis.hbmodel import HBModel, build_hb_model
from repro.analysis.lint import _PLACEHOLDER_NATIVE, run_path
from repro.analysis.suppressions import SuppressionFile, apply_suppressions
from repro.spec.model import ApiSpec

#: code prefixes ``cava race`` owns; suppression entries outside these
#: families belong to ``cava lint`` and are left untouched
RACE_FAMILIES = ("CAVA308", "CAVA309", "CAVA4")


def _shown(names: List[str], limit: int = 4) -> str:
    text = ", ".join(names[:limit])
    if len(names) > limit:
        text += f", … ({len(names)} total)"
    return text


def analyze_ordering(spec: ApiSpec,
                     model: Optional[HBModel] = None
                     ) -> Tuple[List[Diagnostic], int]:
    """Interpret the happens-before model; returns (diags, checks)."""
    if model is None:
        model = build_hb_model(spec)
    diags: List[Diagnostic] = []
    checks = 0

    # -- CAVA401: observable async outputs with no sync point anywhere ---
    for info in model.async_capable():
        if not info.observable_outputs:
            continue
        checks += 1
        if not model.sync_points:
            outs = _shown(sorted(info.observable_outputs))
            diags.append(Diagnostic(
                "CAVA401", info.name,
                f"{info.name!r} forwards asynchronously and registers "
                f"observable outputs ({outs}), but no function in this "
                f"API is sync-capable — nothing can ever order the "
                f"reply application before a guest read of those "
                f"outputs",
            ))

    # -- CAVA402: non-commuting async pairs in one batch region ----------
    # group async-capable accesses by alias class, then report one
    # finding per device-writing access that has conflicting partners
    by_class: dict = {}
    for info in model.async_capable():
        for access in info.accesses:
            by_class.setdefault(access.alias_class, []).append(access)
    for alias_class in sorted(by_class):
        accesses = by_class[alias_class]
        checks += 1
        for access in accesses:
            if not access.writes_device:
                continue
            # a device-write conflicts with every access in its class —
            # including a second invocation of the same call
            partners = sorted({
                f"{other.function}.{other.param}" for other in accesses
            } - {f"{access.function}.{access.param}"}
            ) or [f"a second invocation of "
                  f"{access.function}.{access.param}"]
            diags.append(Diagnostic(
                "CAVA402", f"{access.function}.{access.param}",
                f"async-capable {access.function!r} writes device state "
                f"through {access.param!r} (alias class {alias_class}); "
                f"conflicting async accesses in the same unflushed batch "
                f"region ({_shown(partners)}) do not commute, so any "
                f"reordering of the batch is observable",
            ))

    # -- CAVA403: async release vs async use of the same handle type -----
    for type_name in sorted(model.handle_facts):
        facts = model.handle_facts[type_name]
        async_releases = [op for op in facts.of_kind("release")
                          if op.can_async]
        async_uses = [op for op in facts.of_kind("use") if op.can_async]
        if async_releases:
            checks += 1
        for rel in async_releases:
            users = sorted({op.function for op in async_uses
                            if op.function != rel.function
                            or op.slot != rel.slot})
            if not users:
                continue
            diags.append(Diagnostic(
                "CAVA403", f"{rel.function}.{rel.slot}",
                f"{rel.function!r} releases {type_name!r} asynchronously "
                f"while async-capable users exist ({_shown(users)}); "
                f"both can sit in one unflushed batch, where a "
                f"reordered or retransmitted release overtakes the use",
            ))

    # -- CAVA404: cross-subsystem stale elision --------------------------
    cacheable: dict = {}
    for info in model.functions.values():
        for access in info.accesses:
            if access.cacheable:
                cacheable.setdefault(access.alias_class, []).append(access)
    for info in model.async_capable():
        for access in info.accesses:
            if not access.writes_guest:
                continue
            checks += 1
            senders = sorted({
                f"{other.function}.{other.param}"
                for other in cacheable.get(access.alias_class, [])
                if (other.function, other.param)
                != (access.function, access.param)
            })
            if not senders:
                continue
            diags.append(Diagnostic(
                "CAVA404", f"{info.name}.{access.param}",
                f"async-capable {info.name!r} mutates guest memory "
                f"through {access.param!r} at reply-application time "
                f"while cache-eligible in-buffers of the same alias "
                f"class exist ({_shown(senders)}); the transfer cache "
                f"may digest-match pre-mutation bytes unless the "
                f"runtime forces the reply leg before digesting",
            ))
    return diags, checks


def race_spec(
    spec: ApiSpec,
    spec_path: Optional[str] = None,
    native_module: Optional[str] = None,
    suppressions: Optional[SuppressionFile] = None,
) -> LintReport:
    """Run the ordering analysis (and the generated-code ordering
    checks) over ``spec``, returning a :class:`LintReport`."""
    report = LintReport(api=spec.name, spec_path=spec_path, tool="race")

    problems = spec.validate()
    report.extend("ordering", [
        Diagnostic("CAVA100", spec.name, problem) for problem in problems
    ], passed=0 if problems else 1)
    if problems:
        apply_suppressions(report, suppressions, families=RACE_FAMILIES)
        return report

    model = build_hb_model(spec)
    diags, checks = analyze_ordering(spec, model)
    report.extend("ordering", diags, passed=checks)

    diags, checks = analyze_generated_ordering(
        spec, native_module or _PLACEHOLDER_NATIVE)
    report.extend("genast", diags, passed=checks)

    apply_suppressions(report, suppressions, families=RACE_FAMILIES)
    return report


def race_path(
    spec_path: str,
    native_module: Optional[str] = None,
    suppress_path: Optional[str] = None,
) -> LintReport:
    """Parse ``spec_path`` and race-analyze it with the CLI conventions
    (shared with ``cava lint``: ``<spec>.lint`` suppressions, native
    module from the shipped-stack registry)."""
    return run_path(race_spec, spec_path, native_module, suppress_path)
