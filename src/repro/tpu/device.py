"""The simulated TPU: the systolic-array cost model.

Matrix multiplies run on a 128×128 systolic array: operands are padded
to tile boundaries, so a (129, 10) @ (10, 5) matmul costs as much as
(256, 128) @ (128, 128) — the padding waste that dominates small-model
TPU performance in practice.  Element-wise ops are HBM-bandwidth bound;
feeds and fetches cross a PCIe-like link.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.native import SimulatedDevice


@dataclass(frozen=True)
class TPUDeviceSpec:
    """Static capabilities of the simulated TPU."""

    name: str = "AvA Simulated TPU"
    #: systolic array dimension (tiles are array_dim × array_dim)
    array_dim: int = 128
    #: peak matmul throughput, flops per second
    flops: float = 45e12
    #: HBM bandwidth for element-wise work, bytes per second
    hbm_bandwidth: float = 600e9
    #: host link bandwidth for feeds/fetches, bytes per second
    link_bandwidth: float = 10e9
    #: fixed per-step dispatch overhead, seconds
    step_overhead: float = 20e-6


class SimulatedTPU(SimulatedDevice):
    """One TPU: the padded-tile, element-wise and link cost functions."""

    spec_class = TPUDeviceSpec

    def _tiles(self, dim: int) -> int:
        return max(1, math.ceil(dim / self.spec.array_dim))

    def matmul_cost(self, m: int, k: int, n: int) -> float:
        """Padded-tile systolic cost of an (m,k) @ (k,n) multiply."""
        tiles = self._tiles(m) * self._tiles(k) * self._tiles(n)
        padded_flops = tiles * 2 * self.spec.array_dim ** 3
        return padded_flops / self.spec.flops

    def elementwise_cost(self, nbytes: int) -> float:
        return nbytes / self.spec.hbm_bandwidth

    def transfer_cost(self, nbytes: int) -> float:
        return nbytes / self.spec.link_bandwidth

    def step_cost(self, compute_seconds: float) -> float:
        """One session step: dispatch plus its compute and transfers."""
        return self.spec.step_overhead + compute_seconds
