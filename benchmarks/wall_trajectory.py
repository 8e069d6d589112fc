"""Wall-clock trajectory: one observatory invocation, one entry of history.

    python3 benchmarks/wall_trajectory.py --label LABEL [--checkout DIR]
        [--commit SHA] [--from FILE ...] [-- RUN.PY OPTIONS ...]

Runs ``benchmarks/observatory/run.py --out`` in a checkout — this one by
default, or any other with ``--checkout`` (a ``git archive`` export of
the parent commit, say, which then needs ``--commit``) — or reads files
such runs already wrote (``--from``, repeatable), and appends one entry
to ``benchmarks/BENCH_wall.json``::

    {"label", "commit", "date", "calib_score", "quick", "seeds",
     "runs", "failed",
     "end_to_end":      {workload: {metric: median over its runs}},
     "layer_shares":    {workload: {layer: median share of traced wall}},
     "fast_path_ratio": {workload: median}}

Options after ``--`` go to ``run.py`` unchanged (``--workload chatty
--trace 0 --repeat 5``); with none, ``run.py`` measures all four
workloads, traced and untraced.  Medians are over every run read, so
ten ``--from`` files of alternating parent/change pairs make one entry
per side.  ``calib_score`` is the median of the invocations' scores:
the machine's speed, kept so entries from different hosts can be
scaled before they are compared.  ``observatory/compare.py`` stays the
referee for counts; this file is the history of the wall clock.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent
BENCH_WALL = HERE / "BENCH_wall.json"


def observe(checkout: Path, options: List[str]) -> Dict[str, Any]:
    """One ``run.py --out`` invocation in ``checkout``; what it wrote."""
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "runs.json"
        run_py = checkout / "benchmarks" / "observatory" / "run.py"
        # a run with a failed operation exits 1 but still writes its
        # file; the failures are counted into the entry
        subprocess.run([sys.executable, str(run_py), "--out", str(out),
                        *options], cwd=str(checkout), check=False)
        if not out.exists():
            raise SystemExit(f"{run_py} wrote no results")
        return json.loads(out.read_text(encoding="utf-8"))


def commit_of(checkout: Path) -> str:
    """The checkout's commit, ``-dirty`` when the tree has changes."""
    done = subprocess.run(
        ["git", "describe", "--always", "--dirty", "--abbrev=40"],
        cwd=str(checkout), stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True, check=False)
    return done.stdout.strip() if done.returncode == 0 else ""


def _median(values: List[float]) -> float:
    return round(statistics.median(values), 6)


def summarise(documents: List[Dict[str, Any]], label: str,
              commit: str) -> Dict[str, Any]:
    """One history entry from one or more ``run.py --out`` documents."""
    runs = [run for document in documents for run in document["runs"]]
    workloads: Dict[str, List[Dict[str, Any]]] = {}
    for run in runs:
        workloads.setdefault(run["workload"], []).append(run)
    entry: Dict[str, Any] = {
        "label": label,
        "commit": commit,
        "date": documents[0]["header"]["date"],
        "calib_score": _median([document["header"]["calib_score"]
                                for document in documents]),
        "quick": any(document["header"]["quick"] for document in documents),
        "seeds": sorted({run["seed"] for run in runs}),
        "runs": len(runs),
        "failed": sum(run["failed"] for run in runs),
        "end_to_end": {}, "layer_shares": {}, "fast_path_ratio": {},
    }
    for workload, group in workloads.items():
        plain = [run["end_to_end"] for run in group if "end_to_end" in run]
        if plain:
            entry["end_to_end"][workload] = {
                name: _median([run[name] for run in plain])
                for name in plain[0]}
        shares = [run["trace_diagnostics"]["layer_share_of_wall"]
                  for run in group if "trace_diagnostics" in run]
        if shares:
            layers = sorted({layer for share in shares for layer in share})
            entry["layer_shares"][workload] = {
                layer: _median([share.get(layer, 0.0) for share in shares])
                for layer in layers}
        ratios = [run["per_layer"]["remoting.fast_path_ratio"]
                  for run in group if "per_layer" in run]
        if ratios:
            entry["fast_path_ratio"][workload] = _median(ratios)
    return entry


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True)
    parser.add_argument("--checkout", type=Path, default=REPO_ROOT,
                        help="where run.py runs (default: this checkout)")
    parser.add_argument("--commit",
                        help="commit of the checkout, if it has no .git")
    parser.add_argument("--from", dest="sources", type=Path,
                        action="append", default=[],
                        help="a run.py --out file to read instead of "
                             "running (repeatable)")
    parser.add_argument("options", nargs=argparse.REMAINDER,
                        help="-- then options for run.py")
    args = parser.parse_args()
    options = args.options[1:] if args.options[:1] == ["--"] \
        else args.options
    if args.sources and options:
        parser.error("run.py options make no sense with --from")

    documents = ([json.loads(path.read_text(encoding="utf-8"))
                  for path in args.sources] if args.sources
                 else [observe(args.checkout.resolve(), options)])
    entry = summarise(documents, args.label,
                      args.commit or commit_of(args.checkout))
    entries = json.loads(BENCH_WALL.read_text(encoding="utf-8")) \
        if BENCH_WALL.exists() else []
    entries.append(entry)
    BENCH_WALL.write_text(json.dumps(entries, indent=2) + "\n",
                          encoding="utf-8")
    for workload, metrics in entry["end_to_end"].items():
        shown = ", ".join(f"{name} {value:g}"
                          for name, value in metrics.items())
        print(f"{args.label}: {workload}: {shown}")
    return 1 if entry["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
