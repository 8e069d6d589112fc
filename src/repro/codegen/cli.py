"""The ``cava`` command line — the developer workflow of Figure 2.

Subcommands::

    cava infer <header.h> --api <name> [-o spec.cava]
        Parse the unmodified C header and write a preliminary
        specification with guidance comments for the developer.

    cava check <spec.cava>
        Parse and validate a (refined) specification; print problems
        and remaining guidance.

    cava generate <spec.cava> --native <module> -o <dir>
        Generate, byte-compile and write the guest library, API-server
        dispatch, and hypervisor routing modules.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.apis import APIS
from repro.codegen.generator import write_api
from repro.codegen.specwriter import render_spec
from repro.spec import (
    SpecError,
    infer_preliminary_spec,
    parse_header_file,
    parse_spec_file,
)


def _cmd_infer(args: argparse.Namespace) -> int:
    header = parse_header_file(args.header)
    spec = infer_preliminary_spec(header, args.api)
    text = render_spec(spec)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote preliminary spec to {args.output} "
              f"({len(spec.functions)} functions, "
              f"{len(spec.guidance)} guidance items)")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    spec = parse_spec_file(args.spec)
    problems = spec.validate()
    for line in spec.guidance:
        print(f"guidance: {line}")
    for line in problems:
        print(f"error: {line}")
    if problems:
        return 1
    print(
        f"spec OK: API {spec.name!r}, {len(spec.functions)} functions, "
        f"{len(spec.handle_types())} handle types"
    )
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = parse_spec_file(args.spec)
    problems = spec.validate()
    if problems:
        for line in problems:
            print(f"error: {line}", file=sys.stderr)
        return 1
    paths = write_api(spec, args.output, args.native)
    for kind, path in sorted(paths.items()):
        print(f"generated {kind}: {path}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    """``cava lint`` and ``cava race``: one report per spec."""
    import json

    from repro.analysis import lint_path, race_path

    run = lint_path if args.command == "lint" else race_path
    reports = [run(spec, suppress_path=args.suppress) for spec in args.specs]
    if args.json:
        if len(reports) == 1:
            print(reports[0].to_json())
        else:
            print(json.dumps(
                [json.loads(r.to_json()) for r in reports], indent=2))
    else:
        for report in reports:
            print(report.format(verbose=args.verbose))
    return 0 if all(r.gate(args.fail_on) for r in reports) else 1


def _cmd_effort(args: argparse.Namespace) -> int:
    from repro.harness.effort import effort_rows, measure_effort
    from repro.harness.report import format_table
    from repro.stack import default_specs_dir

    report = measure_effort(args.api, default_specs_dir())
    print(format_table(
        ["api", "functions", "annotated", "inferred", "spec LoC",
         "generated LoC", "leverage"],
        effort_rows([report]),
    ))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.telemetry.cli import run_trace
    from repro.telemetry.exporters import TraceFormatError

    try:
        print(run_trace(args.trace, vm=args.vm, function=args.function,
                        sort=args.sort))
    except TraceFormatError as err:
        print(f"cava: {err}", file=sys.stderr)
        return 2
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.telemetry.cli import run_top
    from repro.telemetry.exporters import TraceFormatError

    try:
        print(run_top(args.trace, percentiles=args.percentiles,
                      vm=args.vm, devices=args.devices))
    except TraceFormatError as err:
        print(f"cava: {err}", file=sys.stderr)
        return 2
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    from repro.telemetry.cli import run_slo
    from repro.telemetry.exporters import TraceFormatError
    from repro.telemetry.slo import SLOError

    try:
        code, output = run_slo(args.targets, trace=args.trace,
                               bench=args.bench, as_json=args.json)
    except (SLOError, TraceFormatError, ValueError, KeyError) as err:
        print(f"cava: {err}", file=sys.stderr)
        return 2
    print(output)
    return code


def _cmd_chaos(args: argparse.Namespace) -> int:
    import os

    from repro.faults.chaos import run_all_modes, run_chaos

    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("CAVA_CHAOS_SEED", "1234"))
    sanitize = args.sanitize or os.environ.get("CAVA_SANITIZE") == "1"
    if args.mode == "each":
        reports = run_all_modes(seed=seed, workload=args.workload,
                                scale=args.scale, batching=args.batching,
                                sanitize=sanitize)
        for report in reports.values():
            print(report.format())
        return 0 if all(r.contained for r in reports.values()) else 1
    report = run_chaos(mode=args.mode, seed=seed, workload=args.workload,
                       scale=args.scale, batching=args.batching,
                       sanitize=sanitize)
    print(report.format())
    return 0 if report.contained else 1


def _cmd_xfer(args: argparse.Namespace) -> int:
    from repro.harness.report import format_table
    from repro.harness.xfer import IterativeUploadWorkload, run_cache_compare
    from repro.remoting.xfercache import CachePolicy
    from repro.workloads import OPENCL_WORKLOADS

    classes = {cls.name: cls for cls in OPENCL_WORKLOADS}
    classes[IterativeUploadWorkload.name] = IterativeUploadWorkload
    workload_cls = classes.get(args.workload)
    if workload_cls is None:
        print(f"cava: unknown workload {args.workload!r}; "
              f"choose from {sorted(classes)}", file=sys.stderr)
        return 2
    policy = CachePolicy(min_bytes=args.min_bytes,
                         shared_index=not args.local_index)
    comparison = run_cache_compare(workload_cls, scale=args.scale,
                                   transport=args.transport, policy=policy)
    print(f"transfer cache: {comparison.workload} "
          f"(transport={args.transport}, scale={args.scale})")
    print(format_table(
        ["cache", "runtime", "verified", "tx bytes", "hits", "misses",
         "bytes elided", "retransmits"],
        comparison.rows(),
    ))
    print(f"wire-byte saving: {comparison.tx_saving:.1%}   "
          f"virtual-time saving: {comparison.runtime_saving:.2%}")
    if comparison.on.store is not None:
        store = comparison.on.store
        print(f"store: {store['entries']} entries, "
              f"{store['bytes_used']} B used, "
              f"{store['evictions']} evictions")
    if not (comparison.off.verified and comparison.on.verified):
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cava",
        description="CAvA: generate API-remoting stacks from specifications",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    infer = sub.add_parser("infer", help="preliminary spec from a C header")
    infer.add_argument("header")
    infer.add_argument("--api", required=True, help="API name")
    infer.add_argument("-o", "--output", help="output .cava path")
    infer.set_defaults(func=_cmd_infer)

    check = sub.add_parser("check", help="validate a specification")
    check.add_argument("spec")
    check.set_defaults(func=_cmd_check)

    generate = sub.add_parser("generate", help="generate the API stack")
    generate.add_argument("spec")
    generate.add_argument("--native", required=True,
                          help="import path of the native implementation")
    generate.add_argument("-o", "--output", required=True,
                          help="output directory")
    generate.set_defaults(func=_cmd_generate)

    for name, help_text in (
        ("lint", "deep static analysis: dataflow, handle lifecycle, and "
                 "generated-code AST invariants (docs/linting.md)"),
        ("race", "happens-before ordering analysis: CAVA40x "
                 "async-reordering hazards plus generated-code agreement "
                 "checks (docs/linting.md)"),
    ):
        analyze = sub.add_parser(name, help=help_text)
        analyze.add_argument("specs", nargs="+", metavar="spec",
                             help="one or more .cava files")
        analyze.add_argument("--json", action="store_true",
                             help="machine-readable report")
        analyze.add_argument("--fail-on", choices=["error", "warning"],
                             default="error",
                             help="severity threshold gating the exit code")
        analyze.add_argument("--suppress", default=None,
                             help="suppression file (default: <spec>.lint "
                                  "next to each spec, if present)")
        analyze.add_argument("-v", "--verbose", action="store_true",
                             help="also list suppressed findings")
        analyze.set_defaults(func=_cmd_analyze)

    effort = sub.add_parser(
        "effort", help="developer-effort metrics for a shipped API (§5)"
    )
    effort.add_argument("api", choices=[
        name for name, plugin in APIS.items() if plugin.header])
    effort.set_defaults(func=_cmd_effort)

    trace = sub.add_parser(
        "trace", help="per-function latency breakdown from a trace file"
    )
    trace.add_argument("trace", help="Perfetto JSON or JSONL trace file")
    trace.add_argument("--vm", help="restrict to one VM")
    trace.add_argument("--function", help="restrict to one API function")
    trace.add_argument("--sort", choices=["total", "calls", "mean"],
                       default="total", help="row ordering")
    trace.set_defaults(func=_cmd_trace)

    top = sub.add_parser(
        "top", help="per-VM telemetry summary from a trace file"
    )
    top.add_argument("trace", help="Perfetto JSON or JSONL trace file")
    top.add_argument("--percentiles", action="store_true",
                     help="add p50/p99/p999 columns from the merged "
                          "per-VM latency histograms")
    top.add_argument("--vm", help="restrict to one VM")
    top.add_argument("--devices", action="store_true",
                     help="append per-device utilization (pool members "
                          "or native device names)")
    top.set_defaults(func=_cmd_top)

    slo = sub.add_parser(
        "slo", help="evaluate a trace or BENCH_overload.json against an "
                    "SLO target file (docs/observability.md); exits "
                    "nonzero on breach",
    )
    slo.add_argument("targets", help="JSON SLO target file")
    slo.add_argument("--trace",
                     help="trace file to replay through burn-rate "
                          "monitoring")
    slo.add_argument("--bench",
                     help="BENCH_overload.json to check against the "
                          "target file's bench_gates")
    slo.add_argument("--json", action="store_true",
                     help="machine-readable report")
    slo.set_defaults(func=_cmd_slo)

    chaos = sub.add_parser(
        "chaos", help="fault-injection smoke run over a real workload"
    )
    chaos.add_argument(
        "--mode", default="all",
        choices=["drop", "corrupt", "delay", "duplicate", "crash", "all",
                 "each"],
        help="fault mode preset; 'each' runs every mode in turn",
    )
    chaos.add_argument("--seed", type=int, default=None,
                       help="fault-plan seed (default: $CAVA_CHAOS_SEED "
                            "or 1234)")
    chaos.add_argument("--workload", default="bfs",
                       help="OpenCL workload name (default: bfs)")
    chaos.add_argument("--batching", action="store_true",
                       help="coalesce the victim VM's async commands "
                            "into batched wire frames")
    chaos.add_argument("--scale", type=float, default=0.06,
                       help="workload scale factor")
    chaos.add_argument("--sanitize", action="store_true",
                       help="arm the runtime ordering/invariant "
                            "sanitizer (same as CAVA_SANITIZE=1); "
                            "virtual-time results stay bit-identical")
    chaos.set_defaults(func=_cmd_chaos)

    xfer = sub.add_parser(
        "xfer", help="transfer-cache comparison: one workload, cache "
                     "off vs on (docs/cost-model.md)"
    )
    xfer.add_argument("--workload", default="iterative-upload",
                      help="workload name (default: iterative-upload, "
                           "the re-uploading solver pattern)")
    xfer.add_argument("--scale", type=float, default=1.0,
                      help="workload scale factor")
    xfer.add_argument("--transport", default="ring",
                      choices=["inproc", "ring", "network"],
                      help="channel whose copy costs the cache elides")
    xfer.add_argument("--min-bytes", type=int, default=1024,
                      help="smallest payload worth digesting")
    xfer.add_argument("--local-index", action="store_true",
                      help="guest keeps its own digest index instead of "
                           "probing the store (exercises NeedBytes)")
    xfer.set_defaults(func=_cmd_xfer)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0  # output piped to head/less and closed early
    except (SpecError, OSError) as err:
        print(f"cava: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
