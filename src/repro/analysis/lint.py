"""Orchestration for ``cava lint`` — run all analysis layers on a spec.

:func:`lint_spec` is the library entry point (tests and tooling);
:func:`lint_path` adds the file-system conventions the CLI uses — the
default suppression file is ``<spec basename>.lint`` next to the spec,
and the native-module import line is looked up from the shipped-stack
registry when the API is a known one.  :func:`run_path` applies the
same conventions to any analyzer (``cava race`` uses it too).
"""

from __future__ import annotations

import os
from typing import Callable, Optional

from repro.analysis.dataflow import analyze_dataflow
from repro.analysis.diagnostics import Diagnostic, LintReport
from repro.analysis.genast import analyze_generated
from repro.analysis.lifecycle import analyze_lifecycle
from repro.analysis.suppressions import (
    SuppressionFile,
    apply_suppressions,
    parse_suppression_file,
)
from repro.apis import APIS
from repro.spec.errors import SpecError
from repro.spec.model import ApiSpec
from repro.spec.parser import parse_spec_file

#: placeholder import path used when the spec's native module is unknown;
#: layer 3 parses the generated source, it never imports it
_PLACEHOLDER_NATIVE = "repro.analysis.native_placeholder"

#: code prefixes ``cava lint`` owns; suppression entries for the
#: CAVA4xx ordering family belong to ``cava race`` and are left alone
LINT_FAMILIES = ("CAVA1", "CAVA2", "CAVA3")


def lint_spec(
    spec: ApiSpec,
    spec_path: Optional[str] = None,
    native_module: Optional[str] = None,
    suppressions: Optional[SuppressionFile] = None,
) -> LintReport:
    """Run dataflow, lifecycle, and generated-AST analysis over ``spec``."""
    report = LintReport(api=spec.name, spec_path=spec_path)

    problems = spec.validate()
    report.extend("dataflow", [
        Diagnostic("CAVA100", spec.name, problem) for problem in problems
    ], passed=0 if problems else 1)

    diags, checks = analyze_dataflow(spec)
    report.extend("dataflow", diags, passed=checks)

    diags, checks = analyze_lifecycle(spec)
    report.extend("lifecycle", diags, passed=checks)

    if not problems:
        # generation requires a semantically valid spec; CAVA100 already
        # covers the invalid case
        diags, checks = analyze_generated(
            spec, native_module or _PLACEHOLDER_NATIVE)
        report.extend("genast", diags, passed=checks)

    apply_suppressions(report, suppressions, families=LINT_FAMILIES)
    return report


def default_suppression_path(spec_path: str) -> str:
    base, _ext = os.path.splitext(spec_path)
    return base + ".lint"


def run_path(
    analyze: Callable[..., LintReport],
    spec_path: str,
    native_module: Optional[str] = None,
    suppress_path: Optional[str] = None,
) -> LintReport:
    """Parse ``spec_path`` and run ``analyze`` (:func:`lint_spec` or
    :func:`~repro.analysis.ordering.race_spec`) over it with the CLI's
    conventions: ``<spec>.lint`` suppressions, native module from the
    shipped-stack registry."""
    spec = parse_spec_file(spec_path)

    if native_module is None and spec.name in APIS:
        native_module = APIS[spec.name].native_module

    suppressions: Optional[SuppressionFile] = None
    candidate = suppress_path or default_suppression_path(spec_path)
    if os.path.isfile(candidate):
        suppressions = parse_suppression_file(candidate)
    elif suppress_path is not None:
        raise SpecError(f"suppression file not found: {suppress_path}")

    return analyze(spec, spec_path=spec_path,
                   native_module=native_module,
                   suppressions=suppressions)


def lint_path(
    spec_path: str,
    native_module: Optional[str] = None,
    suppress_path: Optional[str] = None,
) -> LintReport:
    """Parse ``spec_path`` and lint it with the CLI's conventions."""
    return run_path(lint_spec, spec_path, native_module, suppress_path)
