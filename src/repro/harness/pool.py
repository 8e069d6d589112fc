"""Pool-aware fleet runs: real workload traces over a device pool.

The pool benchmark needs *hundreds* of guest command streams with real
demand patterns.  This module extracts device-command traces from the
actual workloads (Rodinia-style OpenCL apps via the tracing device,
Inception on the simulated NCS via the tracer's device spans) and fans
them out into per-VM streams for :class:`~repro.hypervisor.pool.\
PoolScheduler` — closed-loop by default, open-loop when an arrival
process is supplied per VM.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.hypervisor.pool import DevicePool, PoolRunResult, PoolScheduler
from repro.hypervisor.scheduler import WorkItem
from repro.harness.runner import run_native
from repro.harness.traces import extract_device_trace
from repro.telemetry import tracer as _tele
from repro.telemetry.tracer import Tracer
from repro.workloads import InceptionWorkload


def extract_inception_trace(batch: int = 6) -> List[WorkItem]:
    """Inception's device-command stream on the simulated NCS.

    The NCS has no raw trace list; its executed ops surface as
    ``device``-layer tracer spans, so the workload runs natively under a
    private tracer and the spans become closed-loop work items.
    """
    workload = InceptionWorkload(batch=batch)
    tracer = Tracer()
    with _tele.use(tracer):
        result = run_native(workload, "mvnc")
    if not result.verified:
        raise ValueError("inception failed verification while tracing")
    ops = sorted(
        ((s.start, s.end) for s in tracer.spans
         if s.finished and s.layer == "device"),
    )
    if not ops:
        raise ValueError("inception issued no device ops")
    items: List[WorkItem] = []
    for index, (start, end) in enumerate(ops):
        gap = (max(0.0, ops[index + 1][0] - end)
               if index + 1 < len(ops) else 0.0)
        items.append(WorkItem(duration=end - start, think_time=gap))
    return items


def repeat_stream(items: Sequence[WorkItem], repeats: int) -> List[WorkItem]:
    """A stream that replays ``items`` ``repeats`` times back to back."""
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    return list(items) * repeats


def fleet_streams(
    vm_count: int,
    base_traces: Sequence[Sequence[WorkItem]],
    repeats: int = 1,
    prefix: str = "vm",
    equalize_demand: bool = False,
) -> Dict[str, List[WorkItem]]:
    """``vm_count`` closed-loop streams cycling through ``base_traces``.

    VM ``i`` replays ``base_traces[i % len(base_traces)]`` — a mixed
    fleet where neighbours run different applications, deterministic
    for a given trace list.  With ``equalize_demand``, each base trace's
    repeat count is scaled so every VM carries roughly the same total
    device demand (``repeats`` × the busiest base trace) — the
    configuration under which equal-weight fairness is measurable, since
    unequal-demand VMs drain early rather than being starved.
    """
    if vm_count <= 0:
        raise ValueError("vm_count must be positive")
    if not base_traces:
        raise ValueError("no base traces")
    busy = [sum(item.duration for item in trace) for trace in base_traces]
    if equalize_demand:
        if min(busy) <= 0:
            raise ValueError("equalize_demand needs busy base traces")
        target = repeats * max(busy)
        per_base = [max(1, round(target / b)) for b in busy]
    else:
        per_base = [repeats] * len(base_traces)
    width = max(3, len(str(vm_count - 1)))
    return {
        f"{prefix}-{i:0{width}d}": repeat_stream(
            base_traces[i % len(base_traces)],
            per_base[i % len(base_traces)],
        )
        for i in range(vm_count)
    }


def rodinia_traces(
    workload_classes: Sequence[Callable[..., Any]],
    scale: float = 1.0,
) -> List[List[WorkItem]]:
    """Device traces for a list of OpenCL workload classes."""
    return [extract_device_trace(cls(scale=scale))
            for cls in workload_classes]


def run_pool_fleet(
    pool: DevicePool,
    streams: Dict[str, List[WorkItem]],
    arrival_processes: Optional[Dict[str, Any]] = None,
) -> PoolRunResult:
    """Drive ``streams`` through ``pool``.

    ``arrival_processes`` maps VM ids to loadgen arrival processes
    (anything with ``times(count)``, e.g.
    :class:`~repro.harness.loadgen.PoissonArrivals`); those VMs run
    open-loop, the rest closed-loop.
    """
    arrivals = None
    if arrival_processes:
        arrivals = {
            vm: process.times(len(streams[vm]))
            for vm, process in arrival_processes.items()
            if vm in streams
        }
    return PoolScheduler(pool).run(streams, arrivals=arrivals)
