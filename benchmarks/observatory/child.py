"""One measurement in one fresh process (started by ``run.py``).

``--mode setup`` stops when the first application call is possible
and reports how long that took since process start; ``--mode run``
goes on to measure the workload, untraced or traced.  The result is
one JSON object on the last line of standard output.
"""

from time import perf_counter

PROCESS_START = perf_counter()

import argparse  # noqa: E402 - the clock above must start first
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from typing import Any, Dict, Optional  # noqa: E402

import repro.stack as stack_module  # noqa: E402

import tracing  # noqa: E402
from tracing import (  # noqa: E402
    CODEC_OPS, GUEST, GUEST_FLUSH, ROUTER, SERVER, SLO, TRANSPORT,
    TRANSPORT_BATCH,
)
from calibration import Calibrator, mix  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def per_op_us(cells: Dict[str, Any], *keys: str) -> float:
    """Self wall microseconds per invocation over ``keys`` together."""
    self_ns = sum(cells.get(key, (0, 0))[0] for key in keys)
    count = sum(cells.get(key, (0, 0))[1] for key in keys)
    return self_ns / count / 1e3 if count else 0.0


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(workload: Any, cells: Dict[str, Any], root_ns: int,
                  counters: Counter, timed_wall_s: float,
                  virt: Dict[str, float],
                  phases_ms: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric of BENCHMARK.json but the tracing
    overhead, which needs the untraced run too (``run.py`` adds it).

    ``cells``, ``root_ns`` and ``counters`` cover the measured region
    only: set-up, warm-up and the output checks are outside it.
    """
    wire_bytes = counters["transport.tx_bytes"] + counters["transport.rx_bytes"]
    codec_ns = sum(cells.get(f"remoting.{op}", (0, 0))[0]
                   for op in CODEC_OPS)
    fast = counters["fast_encodes"] + counters["fast_decodes"]
    fallback = counters["fallback_encodes"] + counters["fallback_decodes"]
    migration = workload.migration
    metrics = {
        "guest.self_us": per_op_us(cells, GUEST),
        "guest.flush_self_us": per_op_us(cells, GUEST_FLUSH),
        "remoting.frames": cells.get("remoting.encode_command", (0, 0))[1],
        "remoting.ns_per_byte": ratio(codec_ns, wire_bytes),
        "remoting.wire_bytes": wire_bytes,
        "remoting.fast_path_ratio": ratio(fast, fast + fallback),
        "remoting.xfer_hit_ratio": ratio(
            counters["xfer.hits"],
            counters["xfer.hits"] + counters["xfer.misses"]),
        "transport.self_us": per_op_us(cells, TRANSPORT, TRANSPORT_BATCH),
        "hypervisor.router_self_us": per_op_us(cells, ROUTER),
        "hypervisor.rate_delay_virtual_us": counters["rate_delay_s"] * 1e6,
        "telemetry.slo_observe_us": per_op_us(cells, SLO),
        "server.execute_self_us": per_op_us(cells, SERVER),
        "opencl.api_self_us": per_op_us(cells, "opencl.api"),
        "opencl.api_calls": cells.get("opencl.api", (0, 0))[1],
        "mvnc.api_self_us": per_op_us(cells, "mvnc.api"),
        "workloads.host_s": ((timed_wall_s - root_ns / 1e9)
                             / workload.passes),
        "workloads.native_wall_s": workload.native_wall_s,
        "migration.wall_ms": workload.migration_wall_s * 1e3,
        "migration.downtime_virtual_us": (
            migration.downtime * 1e6 if migration else 0.0),
        "migration.rounds": migration.rounds if migration else 0,
        "spec.parse_ms": phases_ms["spec.parse"],
        "codegen.generate_ms": phases_ms["codegen.generate"],
        "setup.import_ms": phases_ms["import"],
        "failed_ops_ratio": ratio(workload.failed, workload.attempted),
    }
    for op in CODEC_OPS:
        metrics[f"remoting.{op}_us"] = per_op_us(cells, f"remoting.{op}")
    for account in ("marshal", "transport", "host_wait"):
        metrics[f"vclock.{account}_share"] = ratio(
            counters[f"vclock.{account}"], counters["vclock.total"])
    for key in ("guest.calls", "guest.batches_flushed",
                "guest.commands_coalesced", "guest.retries",
                "guest.giveups", "faults.injected",
                "remoting.xfer_elided_bytes", "transport.messages",
                "transport.tx_bytes", "transport.rx_bytes",
                "hypervisor.commands", "hypervisor.rejected",
                "hypervisor.malformed_frames", "server.executed",
                "server.faults"):
        metrics[key] = counters[key]
    for key in ("virt_overhead", "virt_overhead_max", "virt_overhead_ncs",
                "paper_gap_pp"):
        metrics[key] = virt.get(key, 0.0)
    return metrics


def run(workload: Any, tracer: Optional[tracing.LayerTracer],
        phases_ms: Dict[str, float]) -> Dict[str, Any]:
    """Warm up, measure, check; the part of the result that a set-up
    probe does not have."""
    workload.prepare()
    gc.collect()
    gc.freeze()
    del workload.latencies[:]
    if tracer is not None:
        tracer.reset()
    before = workload.counters()
    measured = workload.measure()
    timed_wall_s = measured["timed_wall_s"]
    counters = workload.counters()
    counters.subtract(before)
    if tracer is not None:
        cells = {key: tuple(cell) for key, cell in tracer.cells.items()}
        root_ns = tracer.root_ns
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    virt = workload.verify()

    result: Dict[str, Any] = {
        "unit_wall_s": measured["unit_wall_s"],
        "units": measured["units"],
        "attempted": workload.attempted,
        "failed": workload.failed,
        "problems": workload.problems[:20],
    }
    if tracer is None:
        metrics = measured["metrics"]
        result["diagnostics"] = {
            "call_p99.9_us": metrics.pop("call_p99.9_us"),
            "latency_samples": metrics.pop("latency_samples"),
            "slowdown": measured["slowdown"],
            "as_measured": {name: measured["as_measured"][name]
                            for name in metrics},
        }
        result["end_to_end"] = {**metrics, "peak_rss_mb": peak_rss_mb}
        result["virtual"] = virt
    else:
        result["per_layer"] = layer_metrics(
            workload, cells, root_ns, counters, timed_wall_s, virt,
            phases_ms)
        result["diagnostics"] = {
            "traced_wall_s": timed_wall_s,
            "layer_share_of_wall": {
                key: cell[0] / (timed_wall_s * 1e9)
                for key, cell in sorted(cells.items()) if cell[1]},
        }
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    # where set-up time goes: spec parsing and code generation are
    # timed around the calls repro.stack makes into those layers
    phases = tracing.LayerTracer()
    stack_module.load_spec = phases.wrap("spec.parse",
                                         stack_module.load_spec)
    stack_module.generate_api = phases.wrap("codegen.generate",
                                            stack_module.generate_api)
    import_ms = (perf_counter() - PROCESS_START) * 1e3

    tracer = tracing.LayerTracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, args.seconds,
                                        args.quick, tracer)
    workload.setup()
    result: Dict[str, Any] = {
        "setup_s": perf_counter() - PROCESS_START,
        "phases_ms": {"import": import_ms,
                      **{key: cell[0] / 1e6
                         for key, cell in phases.cells.items()}},
    }
    if args.mode == "setup":
        # scaled by how fast the machine was just now, the way the
        # workloads scale their chunks
        calibrate = Calibrator()
        slowdown = statistics.median(
            mix(calibrate.slowdown(calibrate(), calibrate()),
                workload.memory_share) for _ in range(3))
        result["setup_as_measured_s"] = result["setup_s"]
        result["setup_s"] /= slowdown
    else:
        result.update(run(workload, tracer, result["phases_ms"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
