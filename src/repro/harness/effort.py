"""Developer-effort accounting for the §5 claim.

"A single developer could virtualize a core subset of OpenCL ... in just
a few days" — the measurable proxy the paper offers is the size of the
input the developer writes (the refined spec, much of it inferrable)
versus the artifact CAvA generates (the full remoting stack).  GvirtuS,
the hand-built comparator, took ~25,000 LoC; AvA's developer writes a
few hundred lines of annotations.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List

from repro.apis import APIS
from repro.codegen.generator import generate_sources
from repro.spec import parse_header_file, parse_spec_file
from repro.spec.infer import infer_preliminary_spec
from repro.spec.model import ApiSpec, SyncMode


def count_loc(text: str) -> int:
    """Non-blank, non-comment lines."""
    count = 0
    for line in text.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith(("//", "#", "/*", "*")):
            count += 1
    return count


@dataclass
class EffortReport:
    """Effort metrics for one API."""

    api: str
    functions_total: int
    functions_annotated: int
    params_total: int
    params_annotated: int
    header_loc: int
    spec_loc: int
    generated_loc: int
    guidance_items: int

    @property
    def inference_rate(self) -> float:
        """Fraction of parameters CAvA inferred without annotations."""
        if self.params_total == 0:
            return 1.0
        return 1.0 - self.params_annotated / self.params_total

    @property
    def leverage(self) -> float:
        """Generated lines per hand-written spec line."""
        if self.spec_loc == 0:
            return float("inf")
        return self.generated_loc / self.spec_loc


def _annotated_functions(spec: ApiSpec) -> int:
    count = 0
    for func in spec.functions.values():
        policy = func.sync_policy
        nontrivial_policy = (
            policy.condition is not None
            or policy.default is SyncMode.ASYNC
        )
        if (nontrivial_policy or func.resources or func.unsupported
                or any(not p.inferred for p in func.params)):
            count += 1
    return count


def measure_effort(api_name: str, specs_dir: str) -> EffortReport:
    """Compute the effort report for one shipped API whose spec was
    inferred from a C header (its descriptor names both files)."""
    plugin = APIS[api_name]
    spec_path = os.path.join(specs_dir, f"{plugin.spec}.cava")
    header_path = os.path.join(specs_dir, plugin.header)
    spec = parse_spec_file(spec_path)
    with open(spec_path, "r", encoding="utf-8") as handle:
        spec_text = handle.read()
    with open(header_path, "r", encoding="utf-8") as handle:
        header_text = handle.read()
    sources = generate_sources(spec, plugin.native_module)
    generated_loc = (
        count_loc(sources.guest_source)
        + count_loc(sources.server_source)
        + count_loc(sources.routing_source)
    )
    # how much the developer would have had to review: the preliminary
    # spec's open guidance items
    header = parse_header_file(header_path)
    preliminary = infer_preliminary_spec(header, api_name)
    return EffortReport(
        api=api_name,
        functions_total=len(spec.functions),
        functions_annotated=_annotated_functions(spec),
        params_total=sum(len(f.params) for f in spec.functions.values()),
        params_annotated=sum(
            1 for f in spec.functions.values()
            for p in f.params if not p.inferred
        ),
        header_loc=count_loc(header_text),
        spec_loc=count_loc(spec_text),
        generated_loc=generated_loc,
        guidance_items=len(preliminary.guidance),
    )


def effort_rows(reports: List[EffortReport]) -> List[List[str]]:
    """Rows for the effort table printer."""
    rows = []
    for report in reports:
        rows.append([
            report.api,
            str(report.functions_total),
            str(report.functions_annotated),
            f"{report.inference_rate:.0%}",
            str(report.spec_loc),
            str(report.generated_loc),
            f"{report.leverage:.1f}x",
        ])
    return rows
