"""Compare two observatory result files (``run.py --out``).

    python3 benchmarks/observatory/compare.py A.json B.json

A is the reference (the parent commit, or the first set of runs), B
the candidate.  One row per (workload, end-to-end metric): both
medians, the bound from BENCHMARK.json, and a verdict —

* ``worse``      B's median is worse than A's by more than the bound;
* ``unresolved`` the run-to-run spread of either side (interquartile
  range over median) is wider than the bound, so "no change" cannot
  be told from noise;
* ``ok``         otherwise.

Exits non-zero on any ``worse``, when B failed a larger share of its
operations than A, or when a virtual-clock result or a count differs
between runs of the same workload and seed: those are simulated
statistics, and a change to them is a behaviour change, not a
speed-up.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

REPO_ROOT = Path(__file__).resolve().parents[2]
#: metrics on the virtual clock: equal or the behaviour changed
EXACT = ("virt_overhead", "virt_overhead_max", "virt_overhead_ncs",
         "paper_gap_pp")
#: units of per-layer metrics that must repeat exactly for a seed
COUNT_UNITS = ("count", "bytes")


def load_runs(path: str) -> Dict[str, List[Dict[str, Any]]]:
    runs: Dict[str, List[Dict[str, Any]]] = {}
    for run in json.loads(Path(path).read_text(encoding="utf-8"))["runs"]:
        runs.setdefault(run["workload"], []).append(run)
    return runs


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median (0 below 2 runs)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def exact_values(run: Dict[str, Any],
                 count_names: List[str]) -> Dict[str, Any]:
    """The simulated statistics one run recorded."""
    layers = run.get("per_layer", {})
    values = {name: layers[name] for name in count_names if name in layers}
    for name in EXACT:
        if name in layers:
            values[name] = layers[name]
        elif name in run.get("virtual", {}):
            values[name] = run["virtual"][name]
    return values


def metric_row(workload: str, entry: Dict[str, Any],
               a_values: List[float], b_values: List[float],
               failures: List[str]) -> str:
    """One table row; a ``worse`` verdict is also a reason to fail."""
    name, bound = entry["name"], entry["bound"]
    a_median = statistics.median(a_values)
    b_median = statistics.median(b_values)
    change = (b_median - a_median) / a_median
    worsening = change if entry["better"] == "lower" else -change
    a_spread, b_spread = spread(a_values), spread(b_values)
    if worsening > bound:
        verdict = "worse"
        failures.append(f"{workload} {name}: {worsening:+.1%} beyond "
                        f"the {bound:.0%} bound")
    elif max(a_spread, b_spread) > bound:
        verdict = "unresolved"
    else:
        verdict = "ok"
    return (f"{workload:9s}{name:18s}{a_median:14.4f}{b_median:14.4f}"
            f"{change:+9.1%}{bound:7.0%}{a_spread:10.1%}{b_spread:10.1%}"
            f"  {verdict}")


def failed_share(runs: List[Dict[str, Any]]) -> float:
    return (sum(run["failed"] for run in runs)
            / sum(run["attempted"] for run in runs))


def compare(a_runs: Dict[str, List[Dict[str, Any]]],
            b_runs: Dict[str, List[Dict[str, Any]]],
            catalogue: Dict[str, Any]) -> Tuple[List[str], List[str]]:
    """(table rows, reasons to fail)."""
    rows = [f"{'workload':9s}{'metric':18s}{'A median':>14s}{'B median':>14s}"
            f"{'change':>9s}{'bound':>7s}{'spread A':>10s}{'spread B':>10s}"
            f"  verdict"]
    failures: List[str] = []
    count_names = [entry["name"] for entry in catalogue["per_layer"]
                   if entry["unit"] in COUNT_UNITS]
    for workload, a_side in a_runs.items():
        b_side = b_runs.get(workload)
        if b_side is None:
            failures.append(f"{workload}: missing from B")
            continue
        a_metrics = [run["end_to_end"] for run in a_side
                     if "end_to_end" in run]
        b_metrics = [run["end_to_end"] for run in b_side
                     if "end_to_end" in run]
        if a_metrics and b_metrics:
            for entry in catalogue["end_to_end"]:
                rows.append(metric_row(
                    workload, entry,
                    [run[entry["name"]] for run in a_metrics],
                    [run[entry["name"]] for run in b_metrics], failures))
        if failed_share(b_side) > failed_share(a_side):
            failures.append(
                f"{workload}: failed_ops_ratio rose from "
                f"{failed_share(a_side):.2e} to {failed_share(b_side):.2e}")
        b_by_seed = {run["seed"]: run for run in b_side}
        for a_run in a_side:
            b_run = b_by_seed.get(a_run["seed"])
            if b_run is None or a_run["seconds"] != b_run["seconds"]:
                continue
            a_exact = exact_values(a_run, count_names)
            b_exact = exact_values(b_run, count_names)
            for name in sorted(set(a_exact) & set(b_exact)):
                if a_exact[name] != b_exact[name]:
                    failures.append(
                        f"{workload} seed {a_run['seed']} {name}: "
                        f"{a_exact[name]!r} became {b_exact[name]!r}")
    return rows, failures


def main(argv: List[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    catalogue = json.loads(
        (REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows, failures = compare(load_runs(argv[1]), load_runs(argv[2]),
                             catalogue)
    print("\n".join(rows))
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
