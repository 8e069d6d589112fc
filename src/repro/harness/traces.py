"""Workload → device-command traces for scheduling experiments.

The paper's router schedules at function-call granularity using
spec-derived cost estimates; evaluating that credibly needs *real*
command streams, not synthetic uniform ones.  This module runs a
workload natively on a tracing device and converts the recorded device
ops into closed-loop :class:`~repro.hypervisor.scheduler.WorkItem`
streams: each item's duration is an actual kernel/copy duration, and its
think time is the host-side gap the application left before submitting
the next command.
"""

from __future__ import annotations

from typing import Any, List

from repro.harness.runner import run_native
from repro.hypervisor.scheduler import WorkItem
from repro.opencl.device import SimulatedGPU


def extract_device_trace(workload: Any) -> List[WorkItem]:
    """Run ``workload`` natively and return its device-command stream.

    The returned items reproduce the workload's *demand pattern* on the
    device: durations are its real op durations, think times its real
    inter-submission gaps (zero when the app had the device saturated).
    """
    device = SimulatedGPU(trace=True)
    result = run_native(workload, device=device)
    if not result.verified:
        raise ValueError(f"workload {workload.name} failed verification")
    ops = device.trace or []
    items: List[WorkItem] = []
    for index, (start, end, _category) in enumerate(ops):
        duration = end - start
        if index + 1 < len(ops):
            gap = max(0.0, ops[index + 1][0] - end)
        else:
            gap = 0.0
        items.append(WorkItem(duration=duration, think_time=gap))
    if not items:
        raise ValueError(f"workload {workload.name} issued no device ops")
    return items


def trace_summary(items: List[WorkItem]) -> dict:
    """Aggregate statistics for a trace (for reports)."""
    total_busy = sum(item.duration for item in items)
    total_think = sum(item.think_time for item in items)
    return {
        "commands": len(items),
        "busy": total_busy,
        "think": total_think,
        "mean_duration": total_busy / len(items),
        "intensity": total_busy / (total_busy + total_think)
        if total_busy + total_think else 0.0,
    }
