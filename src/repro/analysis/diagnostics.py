"""Diagnostic model for ``cava lint``.

Every finding the analyzers can produce has a *stable code* so CI
output is diffable and suppressions survive message rewording:

* ``CAVA0xx`` — meta (suppression-file problems),
* ``CAVA1xx`` — expression/buffer dataflow,
* ``CAVA2xx`` — handle-lifecycle abstract interpretation,
* ``CAVA3xx`` — generated-code AST verification,
* ``CAVA4xx`` — happens-before ordering hazards (``cava race``).

A :class:`Diagnostic` names a *subject* — the function, ``function.param``
slot, or handle type it is about — which is also the key the suppression
file matches on (see :mod:`repro.analysis.suppressions`).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: code → (default severity, one-line title).  The table is the contract:
#: docs/linting.md renders it and tests assert every code is registered.
CODE_TABLE: Dict[str, tuple] = {
    # meta
    "CAVA001": (Severity.ERROR,
                "malformed suppression entry or missing justification"),
    "CAVA002": (Severity.WARNING,
                "suppression entry matched no diagnostic"),
    # dataflow
    "CAVA100": (Severity.ERROR,
                "spec fails semantic validation"),
    "CAVA101": (Severity.ERROR,
                "buffer-size expression reads a call-time-unavailable "
                "(out-direction) scalar"),
    "CAVA102": (Severity.ERROR,
                "sync condition reads a call-time-unavailable "
                "(out-direction) scalar"),
    "CAVA103": (Severity.ERROR,
                "resource estimate reads a call-time-unavailable "
                "(out-direction) scalar"),
    "CAVA104": (Severity.ERROR,
                "shrinks() target is not an out-scalar box of the same call"),
    "CAVA105": (Severity.WARNING,
                "in/out buffer pair may alias; remoted copies diverge from "
                "local semantics"),
    "CAVA106": (Severity.ERROR,
                "expression reads a pointer-valued parameter as a number"),
    "CAVA107": (Severity.ERROR,
                "buffer-size expression references the sized buffer itself"),
    "CAVA108": (Severity.WARNING,
                "parameter has no wire strategy (opaque); the generated "
                "stub asserts the guest passes NULL"),
    "CAVA109": (Severity.WARNING,
                "anyvalue parameter has no size expression; a non-scalar "
                "value marshals its full length"),
    # lifecycle
    "CAVA201": (Severity.ERROR,
                "handle type has a release operation but no producer: every "
                "release is release-before-produce"),
    "CAVA202": (Severity.WARNING,
                "handle type is produced but has no release path (leak)"),
    "CAVA203": (Severity.ERROR,
                "double-release reachable within a single invocation"),
    "CAVA204": (Severity.WARNING,
                "async release can race a later synchronous use of the "
                "same handle type"),
    "CAVA205": (Severity.WARNING,
                "recorded `modify` call declares no `supersedes` key: its "
                "records accumulate for the object's lifetime"),
    "CAVA206": (Severity.WARNING,
                "handle type is used but never produced: guests cannot "
                "obtain one"),
    "CAVA207": (Severity.ERROR,
                "`deallocates` on a parameter that is not a handle"),
    "CAVA208": (Severity.WARNING,
                "record(create) with no handle output, or "
                "record(destroy) with no `deallocates` parameter"),
    # generated-code AST
    "CAVA301": (Severity.ERROR,
                "guest encode order diverges from server decode order"),
    "CAVA302": (Severity.ERROR,
                "handle parameter bypasses handle translation in the "
                "server stub"),
    "CAVA303": (Severity.ERROR,
                "async stub registers an unguarded reply-dependent output"),
    "CAVA304": (Severity.ERROR,
                "generated error path raises an untyped exception or "
                "swallows without re-raising"),
    "CAVA305": (Severity.ERROR,
                "buffer size flows to the wire without a generated "
                "size assertion"),
    "CAVA306": (Severity.ERROR,
                "function set drifts between guest, server dispatch, and "
                "routing table"),
    "CAVA307": (Severity.ERROR,
                "reply shrink reads .value of a local that is not an "
                "out-scalar box"),
    "CAVA308": (Severity.ERROR,
                "generated guest stub's forwarding mode disagrees with "
                "the spec's sync classification (flush-before-sync "
                "discipline bypassed)"),
    "CAVA309": (Severity.ERROR,
                "generated routing module's ordering metadata disagrees "
                "with the spec's happens-before model"),
    "CAVA310": (Severity.ERROR,
                "generated codec module's function set drifts from the "
                "specification (fast path missing or stale)"),
    "CAVA311": (Severity.ERROR,
                "generated codec LAYOUT disagrees with the spec's "
                "parameter classification (fast path would frame a "
                "different wire message)"),
    "CAVA312": (Severity.ERROR,
                "generated codec module holds more than tables (a "
                "function definition, or an import other than "
                "repro.remoting.speccodec)"),
    # happens-before ordering (cava race)
    "CAVA401": (Severity.ERROR,
                "async-capable call registers observable outputs but the "
                "API defines no sync point to order their consumption"),
    "CAVA402": (Severity.WARNING,
                "non-commuting async command pair: batch coalescing may "
                "reorder conflicting buffer accesses with no intervening "
                "sync point"),
    "CAVA403": (Severity.WARNING,
                "async release can be reordered past an async use of the "
                "same handle type inside an unflushed batch"),
    "CAVA404": (Severity.WARNING,
                "stale-elision hazard: the transfer cache may "
                "digest-match a buffer a pending unflushed batch still "
                "mutates"),
}


@dataclass
class Diagnostic:
    """One finding, carrying everything CI and suppressions need."""

    code: str
    subject: str
    message: str
    severity: Optional[Severity] = None
    #: analysis layer ("dataflow" / "lifecycle" / "genast" / "meta")
    layer: str = ""
    spec_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.code not in CODE_TABLE:
            raise ValueError(f"unregistered diagnostic code {self.code!r}")
        if self.severity is None:
            self.severity = CODE_TABLE[self.code][0]

    def format(self) -> str:
        where = f" [{self.spec_path}]" if self.spec_path else ""
        return (f"{self.severity.value.upper():7s} {self.code} "
                f"{self.subject}: {self.message}{where}")

    def to_json(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "severity": self.severity.value,
            "layer": self.layer,
            "subject": self.subject,
            "message": self.message,
            "spec": self.spec_path,
        }


@dataclass
class LintReport:
    """Outcome of linting one spec (all three layers + meta checks)."""

    api: str
    spec_path: Optional[str] = None
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: diagnostics silenced by the suppression file, with justification
    suppressed: List[tuple] = field(default_factory=list)  # (diag, why)
    #: per-layer count of invariants that were checked and held
    checks_passed: Dict[str, int] = field(default_factory=dict)
    #: which subcommand produced the report ("lint" or "race")
    tool: str = "lint"

    def extend(self, layer: str, diags: List[Diagnostic],
               passed: int = 0) -> None:
        for diag in diags:
            diag.layer = diag.layer or layer
            diag.spec_path = diag.spec_path or self.spec_path
            self.diagnostics.append(diag)
        self.checks_passed[layer] = (
            self.checks_passed.get(layer, 0) + passed
        )

    def count(self, severity: Severity) -> int:
        return sum(1 for d in self.diagnostics if d.severity is severity)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    def gate(self, fail_on: str = "error") -> bool:
        """True if the report passes the ``--fail-on`` threshold."""
        if fail_on == "warning":
            return not self.diagnostics
        return not self.errors

    def sorted_diagnostics(self) -> List[Diagnostic]:
        order = {Severity.ERROR: 0, Severity.WARNING: 1}
        return sorted(
            self.diagnostics,
            key=lambda d: (order[d.severity], d.code, d.subject),
        )

    def format(self, verbose: bool = False) -> str:
        total_checks = sum(self.checks_passed.values())
        lines = [
            f"{self.tool} {self.api!r}: {total_checks} invariants checked, "
            f"{self.count(Severity.ERROR)} errors, "
            f"{self.count(Severity.WARNING)} warnings, "
            f"{len(self.suppressed)} suppressed"
        ]
        for diag in self.sorted_diagnostics():
            lines.append("  " + diag.format())
        if verbose:
            for diag, why in self.suppressed:
                lines.append(
                    f"  suppressed {diag.code} {diag.subject}: {why}"
                )
        return "\n".join(lines)

    def to_json(self) -> str:
        document = {
            "api": self.api,
            "tool": self.tool,
            "spec": self.spec_path,
            "checks_passed": dict(sorted(self.checks_passed.items())),
            "diagnostics": [d.to_json() for d in self.sorted_diagnostics()],
            "suppressed": [
                {**diag.to_json(), "justification": why}
                for diag, why in self.suppressed
            ],
        }
        return json.dumps(document, indent=2, sort_keys=True)
