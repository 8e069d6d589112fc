"""Rodinia ``bfs``: level-synchronous breadth-first search.

The chatty one: every level launches two kernels and then *blocks* on a
4-byte read of the continuation flag — the host cannot know whether to
iterate without it.  Per-level synchronization makes this workload the
most sensitive to forwarding round-trip latency, which is why it sits
at the high end of Figure 5.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.opencl.kernels import BUFFER, SCALAR, LaunchContext, register_kernel
from repro.workloads.base import OpenCLWorkload, WorkloadResult, close_env, open_env

SOURCE = """
__kernel void bfs_kernel1(__global int *starts, __global int *counts,
                          __global int *edges, __global int *mask,
                          __global int *updating, __global int *visited,
                          __global int *cost, int n) {}
__kernel void bfs_kernel2(__global int *mask, __global int *updating,
                          __global int *visited, __global int *flag,
                          int n) {}
"""


@register_kernel(
    "bfs_kernel1",
    [BUFFER, BUFFER, BUFFER, BUFFER, BUFFER, BUFFER, BUFFER, SCALAR],
    flops_per_item=6.0, bytes_per_item=40.0, efficiency=0.6,
)
def _bfs_kernel1(ctx: LaunchContext) -> None:
    n = int(ctx.scalar(7))
    starts = ctx.buf(0, np.int32)[:n]
    counts = ctx.buf(1, np.int32)[:n]
    edges = ctx.buf(2, np.int32)
    mask = ctx.buf(3, np.int32)
    updating = ctx.buf(4, np.int32)
    visited = ctx.buf(5, np.int32)
    cost = ctx.buf(6, np.int32)
    frontier = np.nonzero(mask[:n])[0]
    if frontier.size == 0:
        return
    # the generated graphs are regular (fixed out-degree), so the
    # neighbor gather vectorizes as a dense index grid
    degree = int(counts[0])
    gather = starts[frontier][:, None] + np.arange(degree, dtype=np.int32)
    neighbors = edges[gather.reshape(-1)]
    levels = np.repeat(cost[frontier] + 1, degree)
    fresh = visited[neighbors] == 0
    mask[frontier] = 0
    cost[neighbors[fresh]] = levels[fresh]
    updating[neighbors[fresh]] = 1


@register_kernel("bfs_kernel2", [BUFFER, BUFFER, BUFFER, BUFFER, SCALAR],
                 flops_per_item=2.0, bytes_per_item=16.0)
def _bfs_kernel2(ctx: LaunchContext) -> None:
    n = int(ctx.scalar(4))
    mask = ctx.buf(0, np.int32)
    updating = ctx.buf(1, np.int32)
    visited = ctx.buf(2, np.int32)
    flag = ctx.buf(3, np.int32)
    fresh = np.nonzero(updating[:n])[0]
    if fresh.size:
        mask[fresh] = 1
        visited[fresh] = 1
        updating[fresh] = 0
        flag[0] = 1


def _make_graph(n: int, degree: int, seed: int):
    """A connected-ish random graph in CSR form (deterministic)."""
    rng = np.random.default_rng(seed)
    counts = np.full(n, degree, dtype=np.int32)
    starts = np.zeros(n, dtype=np.int32)
    starts[1:] = np.cumsum(counts)[:-1].astype(np.int32)
    edges = rng.integers(0, n, size=int(counts.sum()), dtype=np.int32)
    # chain edges guarantee reachability and a deep BFS tree
    node = np.arange(1, n)
    edges[starts[1:]] = np.where(node % 7 != 0, node - 1, node // 2)
    return starts, counts, edges


def _bfs_reference(starts, counts, edges, n: int) -> np.ndarray:
    """Each node's BFS level from node 0 (-1 if unreachable), one
    frontier at a time."""
    cost = np.full(n, -1, dtype=np.int32)
    cost[0] = 0
    frontier = np.zeros(1, dtype=np.intp)
    level = 0
    while frontier.size:
        level += 1
        # the frontier's edge ranges, concatenated
        width = counts[frontier]
        ends = np.cumsum(width)
        first = np.repeat(starts[frontier] - ends + width, width)
        neighbors = edges[first + np.arange(ends[-1])]
        cost[neighbors[cost[neighbors] == -1]] = level
        frontier = np.flatnonzero(cost == level)
    return cost


class BFSWorkload(OpenCLWorkload):
    """Level-synchronous BFS with per-level host synchronization."""

    name = "bfs"

    def __init__(self, scale: float = 1.0, seed: int = 42) -> None:
        super().__init__(scale, seed)
        self.n = max(64, int(262144 * scale))
        self.degree = 4

    def reference(self) -> Dict[str, np.ndarray]:
        starts, counts, edges = _make_graph(self.n, self.degree, self.seed)
        return {"cost": _bfs_reference(starts, counts, edges, self.n)}

    def run(self, cl: Any) -> WorkloadResult:
        starts, counts, edges = _make_graph(self.n, self.degree, self.seed)
        n = self.n
        env = open_env(cl)
        try:
            program = env.program(SOURCE)
            kernel1 = env.kernel(program, "bfs_kernel1")
            kernel2 = env.kernel(program, "bfs_kernel2")

            mask = np.zeros(n, dtype=np.int32)
            visited = np.zeros(n, dtype=np.int32)
            cost = np.full(n, -1, dtype=np.int32)
            mask[0] = 1
            visited[0] = 1
            cost[0] = 0

            b_starts = env.buffer(starts.nbytes, host=starts)
            b_counts = env.buffer(counts.nbytes, host=counts)
            b_edges = env.buffer(edges.nbytes, host=edges)
            b_mask = env.buffer(mask.nbytes, host=mask)
            b_updating = env.buffer(4 * n,
                                    host=np.zeros(n, dtype=np.int32))
            b_visited = env.buffer(visited.nbytes, host=visited)
            b_cost = env.buffer(cost.nbytes, host=cost)
            b_flag = env.buffer(4)

            env.set_args(kernel1, b_starts, b_counts, b_edges, b_mask,
                         b_updating, b_visited, b_cost, n)
            env.set_args(kernel2, b_mask, b_updating, b_visited, b_flag, n)

            zero = np.zeros(1, dtype=np.int32)
            iterations = 0
            while True:
                env.write(b_flag, zero, blocking=False)
                env.launch(kernel1, [n])
                env.launch(kernel2, [n])
                flag = env.read(b_flag, 4, dtype=np.int32, blocking=True)
                iterations += 1
                if flag[0] == 0 or iterations > n:
                    break
            env.finish()
            got = env.read(b_cost, 4 * n, dtype=np.int32)
        finally:
            close_env(env)
        ok = bool((got == self.reference()["cost"]).all())
        return WorkloadResult(self.name, {"cost": got}, ok,
                              detail=f"{iterations} levels")
