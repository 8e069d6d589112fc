"""Full-virtualization baseline: trap-and-emulate the device interface.

Section 2 of the paper dismisses full virtualization for accelerators:
"Trapping on every guest access to MMIO and memory BARs results in
devastating orders-of-magnitude performance losses" (citing GPUvm and
the authors' own WDDD'17 study).  To *show* that rather than assert it,
this module prices a workload's command stream as a trap-based device
would execute it:

* every API call expands into a number of MMIO/doorbell accesses (ring
  pointer updates, register reads, fences) — each one a VM exit,
* bulk data still moves, but through trapped BAR windows, costing a
  trap per page,
* device compute time is unchanged (the hardware is the same).

The numbers are deliberately charitable to full virtualization (GPUvm
reports *hundreds* of traps per command group); even so the slowdown is
orders of magnitude for chatty workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.harness.runner import Measurement


@dataclass
class TrapModel:
    """Cost parameters of trap-and-emulate device access."""

    #: cost of one trapped MMIO access (VM exit + emulate + resume)
    trap_cost: float = 12.0e-6
    #: MMIO accesses a single API command expands to
    traps_per_call: int = 18
    #: BAR window size — one trap per window of bulk data moved
    bar_window_bytes: int = 4096


@dataclass
class FullVirtEstimate:
    """Trap-based execution estimate for one measured workload."""

    name: str
    native_runtime: float
    ava_runtime: float
    fullvirt_runtime: float
    traps: int

    @property
    def fullvirt_slowdown(self) -> float:
        return self.fullvirt_runtime / self.native_runtime

    @property
    def ava_slowdown(self) -> float:
        return self.ava_runtime / self.native_runtime


def estimate_fullvirt(
    native: Measurement,
    ava: Measurement,
    payload_bytes: int,
    model: TrapModel = TrapModel(),
) -> FullVirtEstimate:
    """Price the same workload under trap-and-emulate.

    ``native`` supplies the device/compute time (identical hardware);
    the AvA measurement supplies the call counts; ``payload_bytes`` is
    the bulk data the router observed for the workload's VM.
    """
    calls = ava.calls_sync + ava.calls_async
    command_traps = calls * model.traps_per_call
    data_traps = payload_bytes // model.bar_window_bytes
    traps = command_traps + data_traps
    trap_time = traps * model.trap_cost
    return FullVirtEstimate(
        name=native.name,
        native_runtime=native.runtime,
        ava_runtime=ava.runtime,
        fullvirt_runtime=native.runtime + trap_time,
        traps=traps,
    )


def summarize(estimates: Dict[str, FullVirtEstimate]) -> Dict[str, float]:
    """Geometric-mean slowdowns across a workload suite."""
    import math

    def geomean(values):
        return math.exp(sum(math.log(v) for v in values) / len(values))

    return {
        "fullvirt_geomean": geomean(
            [e.fullvirt_slowdown for e in estimates.values()]
        ),
        "ava_geomean": geomean(
            [e.ava_slowdown for e in estimates.values()]
        ),
    }
