"""Wall-clock observatory: what the Python costs, end to end and by layer.

    python3 benchmarks/observatory/run.py [--workload W] [--seed N]
        [--seconds S] [--trace 0|1] [--repeat K] [--out FILE]
        [--trajectory LABEL] [--quick] [--selftest]

Every measurement runs in a fresh single-threaded subprocess with the
BLAS pools pinned to one thread.  Per workload there are up to three
kinds: set-up probes (process start to first call possible, several,
median reported), an **untraced** run that produces every end-to-end
metric, and a separately timed **traced** run that produces the
per-layer metrics.  Without ``--trace`` both runs are made; without
``--workload`` all four workloads are run.

With ``--workload`` and ``--trace`` both given, the last line of
standard output is the driver's result object (BENCHMARK.json names the
metrics it carries).  The exit code is non-zero when a measurement
produced no result or an output check failed.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
TRAJECTORY = HERE / "trajectory.json"
SETUP_PROBES = 5
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


class MeasurementFailed(Exception):
    """A child process ended without a result."""


def load_catalogue() -> Dict[str, Any]:
    path = REPO_ROOT / "BENCHMARK.json"
    return json.loads(path.read_text(encoding="utf-8"))


def calibration_score() -> float:
    """Iterations per second of a fixed pure-Python loop (best of 3),
    recorded beside results so trajectories survive a machine change."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        table: Dict[int, int] = {}
        total = 0
        for i in range(200_000):
            table[i & 1023] = total
            total += i ^ (total >> 3)
        best = min(best, time.perf_counter() - start)
    return 200_000 / best


class Runner:
    """Starts the child processes and keeps them inside the checkout."""

    def __init__(self, quick: bool) -> None:
        self.quick = quick
        # generated stacks land under tempfile.gettempdir(): keep that
        # inside this directory, one scratch area per invocation
        self.scratch = HERE / ".work" / str(os.getpid())
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                [str(REPO_ROOT / "src")]
                + [p for p in [os.environ.get("PYTHONPATH")] if p]),
            TMPDIR=str(self.scratch),
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
            # string hashing seeds dict and set layout: left random it
            # moves a whole run by about three percent
            PYTHONHASHSEED="0",
            # keep freed memory in the process: in this microVM a page
            # the guest has not touched before costs a host round trip,
            # which made the array-heavy Figure 5 rows swing by 2x
            MALLOC_TRIM_THRESHOLD_=str(1 << 32),
            MALLOC_TOP_PAD_=str(256 << 20),
            MALLOC_MMAP_THRESHOLD_=str(32 << 20),
        )

    def __enter__(self) -> "Runner":
        self.scratch.mkdir(parents=True, exist_ok=True)
        return self

    def __exit__(self, *exc: Any) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)
        try:
            self.scratch.parent.rmdir()
        except OSError:
            pass  # another invocation's scratch area is still there

    def child(self, mode: str, workload: str, seed: int, seconds: float,
              trace: int) -> Dict[str, Any]:
        command = [sys.executable, str(HERE / "child.py"), "--mode", mode,
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
        if self.quick:
            command.append("--quick")
        done = subprocess.run(command, env=self.env, cwd=str(REPO_ROOT),
                              stdout=subprocess.PIPE, text=True,
                              timeout=170, check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise MeasurementFailed(
                f"{workload} ({mode}, trace={trace}) exited with "
                f"{done.returncode} and no result")
        return json.loads(lines[-1])

    def observe(self, workload: str, seed: int, seconds: float,
                trace: Optional[int]) -> Dict[str, Any]:
        """One workload, one seed.  ``trace`` None makes both runs;
        1 alone splits the time between the traced run and the
        untraced reference its overhead ratio needs."""
        if trace == 1:
            seconds /= 2
        plain = self.child("run", workload, seed, seconds, 0)
        runs = [plain]
        result: Dict[str, Any] = {"workload": workload, "seed": seed,
                                  "seconds": seconds}
        if trace != 1:
            probes = [self.child("setup", workload, seed, seconds, 0)
                      for _ in range(1 if self.quick else SETUP_PROBES)]
            result["end_to_end"] = {
                "setup_s": statistics.median(
                    probe["setup_s"] for probe in probes),
                **plain["end_to_end"]}
            result["diagnostics"] = {
                **plain["diagnostics"],
                "setup_as_measured_s": statistics.median(
                    probe["setup_as_measured_s"] for probe in probes)}
            result["virtual"] = plain["virtual"]
        if trace != 0:
            traced = self.child("run", workload, seed, seconds, 1)
            runs.append(traced)
            result["per_layer"] = {
                **traced["per_layer"],
                "trace.overhead_ratio":
                    traced["unit_wall_s"] / plain["unit_wall_s"]}
            result["trace_diagnostics"] = traced["diagnostics"]
            if plain["virtual"] != {key: traced["per_layer"][key]
                                    for key in plain["virtual"]}:
                traced["failed"] += 1
                traced["problems"].append(
                    "virtual results differ between the traced and "
                    "the untraced run")
        result["attempted"] = sum(run["attempted"] for run in runs)
        result["failed"] = sum(run["failed"] for run in runs)
        result["problems"] = [p for run in runs for p in run["problems"]]
        return result


def print_metrics(result: Dict[str, Any], catalogue: Dict[str, Any]) -> None:
    units = {entry["name"]: entry["unit"]
             for kind in ("end_to_end", "per_layer")
             for entry in catalogue[kind]}
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"attempted {result['attempted']}  failed {result['failed']}")
    for kind in ("end_to_end", "per_layer"):
        for name, value in result.get(kind, {}).items():
            print(f"  {result['workload']:8s} {name:34s} "
                  f"{value:>18.6f} {units[name]}")
    diagnostics = dict(result.get("diagnostics", {}))
    as_measured = diagnostics.pop("as_measured", {})
    for name, value in diagnostics.items():
        print(f"  {result['workload']:8s} {name:34s} {value:>18.6f} "
              f"(diagnostic)")
    for name, value in as_measured.items():
        print(f"  {result['workload']:8s} {name:34s} {value:>18.6f} "
              f"(as measured, before calibration)")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")


def contract_line(result: Dict[str, Any], catalogue: Dict[str, Any],
                  kind: str) -> str:
    """The driver's result object: exactly the metrics of ``kind``."""
    metrics = {
        entry["name"]: {"value": result[kind][entry["name"]],
                        "unit": entry["unit"]}
        for entry in catalogue[kind]}
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def append_trajectory(label: str, header: Dict[str, Any],
                      results: List[Dict[str, Any]]) -> None:
    """One entry per invocation: the median of each end-to-end metric
    per workload, with what is needed to compare across machines."""
    entries = json.loads(TRAJECTORY.read_text(encoding="utf-8")) \
        if TRAJECTORY.exists() else []
    medians: Dict[str, Dict[str, float]] = {}
    for workload in dict.fromkeys(r["workload"] for r in results):
        runs = [r["end_to_end"] for r in results
                if r["workload"] == workload and "end_to_end" in r]
        if runs:
            medians[workload] = {
                name: statistics.median(run[name] for run in runs)
                for name in runs[0]}
    entries.append({"label": label, **header, "end_to_end": medians})
    TRAJECTORY.write_text(json.dumps(entries, indent=2) + "\n",
                          encoding="utf-8")


def selftest(runner: Runner, catalogue: Dict[str, Any]) -> List[str]:
    """Cheap structural checks of the observatory itself (--quick)."""
    problems: List[str] = []
    names = {kind: [entry["name"] for entry in catalogue[kind]]
             for kind in ("end_to_end", "per_layer")}
    for name in names["end_to_end"] + names["per_layer"] + [
            entry["name"] for entry in catalogue["workloads"]]:
        if not NAME.match(name):
            problems.append(f"bad name {name!r}")
    results = {}
    for entry in catalogue["workloads"]:
        result = results[entry["name"]] = runner.observe(
            entry["name"], 1, 1.0, None)
        for kind, wanted in names.items():
            if sorted(result[kind]) != sorted(wanted):
                odd = set(result[kind]) ^ set(wanted)
                problems.append(f"{entry['name']}: {kind} metrics differ "
                                f"from BENCHMARK.json: {sorted(odd)}")
        problems += [f"{entry['name']}: {p}" for p in result["problems"]]
    shares = results["chatty"]["trace_diagnostics"]["layer_share_of_wall"]
    if abs(sum(shares.values()) - 1.0) > 0.05:
        problems.append(f"chatty: layer self times sum to "
                        f"{sum(shares.values()):.3f} of the traced wall")
    again = runner.observe("managed", 1, 1.0, 1)
    for name in ("guest.calls", "remoting.frames", "guest.retries"):
        first = results["managed"]["per_layer"][name]
        if again["per_layer"][name] != first:
            problems.append(f"managed: {name} was {first}, then "
                            f"{again['per_layer'][name]}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, seeds seed..seed+K-1")
    parser.add_argument("--out", help="write every run to this JSON file")
    parser.add_argument("--trajectory", metavar="LABEL",
                        help="append this invocation's medians to "
                             "trajectory.json under LABEL")
    parser.add_argument("--quick", action="store_true",
                        help="tiny operation counts (not comparable)")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if not (REPO_ROOT / "src" / "repro").is_dir():
        print(f"no src/repro under {REPO_ROOT}: the observatory measures "
              f"the repository it sits in", file=sys.stderr)
        return 2
    catalogue = load_catalogue()
    known = [entry["name"] for entry in catalogue["workloads"]]
    if args.workload is not None and args.workload not in known:
        parser.error(f"--workload must be one of {', '.join(known)}")
    seconds = args.seconds or catalogue["run_seconds"]

    with Runner(args.quick) as runner:
        try:
            if args.selftest:
                problems = selftest(runner, catalogue)
                for problem in problems:
                    print(f"SELFTEST: {problem}")
                print("selftest", "FAILED" if problems else "ok")
                return 1 if problems else 0
            header = {
                "date": datetime.date.today().isoformat(),
                "seed": args.seed, "seconds": seconds,
                "quick": args.quick,
                "calib_score": calibration_score(),
            }
            results = []
            for workload in ([args.workload] if args.workload else known):
                for seed in range(args.seed, args.seed + args.repeat):
                    result = runner.observe(workload, seed, seconds,
                                            args.trace)
                    print_metrics(result, catalogue)
                    results.append(result)
        except (MeasurementFailed, subprocess.TimeoutExpired) as err:
            print(f"observatory: {err}", file=sys.stderr)
            return 1

    if args.out:
        Path(args.out).write_text(
            json.dumps({"header": header, "runs": results}, indent=2)
            + "\n", encoding="utf-8")
    if args.trajectory:
        append_trajectory(args.trajectory, header, results)
    if args.workload and args.trace is not None:
        kind = "per_layer" if args.trace else "end_to_end"
        print(contract_line(results[-1], catalogue, kind))
    return 1 if any(result["failed"] for result in results) else 0


if __name__ == "__main__":
    sys.exit(main())
