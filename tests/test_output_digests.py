"""Figure 5's output values, pinned.

``benchmarks/BENCH_figure5.json`` holds virtual times and call counts,
not output values, so it cannot see a float that moved.  These digests
can: a sha256 over every array (name, dtype, shape and bytes) of the
inputs, numpy reference and native run of ``backprop``, ``pathfinder``,
``nn``, ``bfs``, ``kmeans``, ``lavamd`` and ``srad`` at scale 0.25.
Rewriting how a workload builds or checks its arrays (in place, one row
at a time, a partition instead of a sort, one batch per neighbour
offset) must leave every digest as it is.

The digests were taken on x86-64 with numpy 2.4.6 and its bundled
OpenBLAS; ``backprop``'s matrix products go through BLAS, whose kernels
may round differently on another CPU or BLAS build.
"""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.opencl import api as cl_api
from repro.opencl import session
from repro.opencl.device import SimulatedGPU
from repro.workloads import (BackpropWorkload, BFSWorkload, KMeansWorkload,
                             LavaMDWorkload, NNWorkload, PathfinderWorkload,
                             SradWorkload)
from repro.workloads import lavamd
from repro.workloads.bfs import _bfs_reference, _make_graph
from repro.workloads.kmeans import _nearest_center, _pairwise_sum
from repro.workloads.lavamd import _forces
from repro.workloads.nn import nearest_k

SCALE = 0.25

#: (workload, part) -> sha256 of :func:`digest`
PINNED = {
    ("backprop", "inputs"):
        "92f140b3c08dc1f965b78951673d77b583999f828d397936d8bf058b0b4d141b",
    ("backprop", "reference"):
        "3db8f585398beaa7762f89a9557b2d415df88482b69da98d4d73f49c627e84af",
    ("backprop", "native"):
        "201dd5260fb6ccdae4ecacc306edab417ac2080d1713ff12f237fb680d55ed97",
    ("pathfinder", "inputs"):
        "05df97a055b8997ddb05880d8bef6a188a4da09fb7b644ac02bb4ab9a0431a6b",
    ("pathfinder", "reference"):
        "1798cc5b2bdf6a9f243b4dc9d54015dbad23579707485c90cb2b3906a16e5283",
    ("pathfinder", "native"):
        "1798cc5b2bdf6a9f243b4dc9d54015dbad23579707485c90cb2b3906a16e5283",
    ("nn", "inputs"):
        "af0ebfaf221df215dce065f96685325d0c386665af9cd8b8e20d441bc1e72bcd",
    ("nn", "reference"):
        "ee6e3b3d5981306ba291d4cf6e846195c503d14fbb64f1cea00bb73957af0945",
    ("nn", "native"):
        "ee6e3b3d5981306ba291d4cf6e846195c503d14fbb64f1cea00bb73957af0945",
    ("bfs", "inputs"):
        "a456c24cafa72d4db9e17dd6162a3eebf5e0907c7980843448881ad15ae677e1",
    ("bfs", "reference"):
        "f94aa55469fd381d9a19513387a222a558e753bd43dfc1b15154c5a18e90ef02",
    ("bfs", "native"):
        "f94aa55469fd381d9a19513387a222a558e753bd43dfc1b15154c5a18e90ef02",
    ("kmeans", "inputs"):
        "9620caf23e648a086c43621d36388bfaeeaea6fa1fe7f5d2a1ebcffafda2a30c",
    ("kmeans", "reference"):
        "79427206a4619de4ca3ddae1d5c6bc045cd76395a9b56a67f86e0b3251796d94",
    ("kmeans", "native"):
        "932277228f777991048e7cb7ea1e5ba147182f779e48591ab17e67cdc638d772",
    ("lavamd", "inputs"):
        "45931a1731a640afd78bbba5b80156a88504b7fdd1c4b5a7639ee0689ca90566",
    ("lavamd", "reference"):
        "21381713dd93b16664a016832ed95f6d4276aa3575d30ba4f49a74a39793ba12",
    ("lavamd", "native"):
        "21381713dd93b16664a016832ed95f6d4276aa3575d30ba4f49a74a39793ba12",
    ("srad", "inputs"):
        "71ea727175ac69ed6f055812a986beb544e6dafe05b2eadcecc08915741b2fb5",
    ("srad", "reference"):
        "4f282234fb0ff93816ea1b61dc59b85f634aa8fc244f96b825032fe74839d9fd",
    ("srad", "native"):
        "f4f3243eaf4d379f7d2d12886aceaf8fbc451412e769b39ab53008b59af976ea",
}

WORKLOADS = {"backprop": BackpropWorkload, "pathfinder": PathfinderWorkload,
             "nn": NNWorkload, "bfs": BFSWorkload, "kmeans": KMeansWorkload,
             "lavamd": LavaMDWorkload, "srad": SradWorkload}


def digest(arrays):
    """sha256 over a name -> array mapping (or one array), in name order."""
    if isinstance(arrays, np.ndarray):
        arrays = {"": arrays}
    h = hashlib.sha256()
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        h.update(f"{name}|{array.dtype.str}|{array.shape}|".encode())
        h.update(array.tobytes())
    return h.hexdigest()


def inputs(workload):
    """The workload's input arrays, named."""
    if isinstance(workload, BFSWorkload):
        graph = _make_graph(workload.n, workload.degree, workload.seed)
        return dict(zip(("starts", "counts", "edges"), graph))
    if isinstance(workload, KMeansWorkload):
        return dict(zip(("points", "centers"), workload._inputs()))
    if isinstance(workload, LavaMDWorkload):
        return dict(zip(("pos", "charge"), workload._inputs()))
    if isinstance(workload, SradWorkload):
        return {"img": workload._inputs()}
    return workload._inputs()


def part(workload, which):
    if which == "inputs":
        return inputs(workload)
    if which == "reference":
        return dict(workload.reference())
    with session([SimulatedGPU()]):
        result = workload.run(cl_api)
    assert result.verified
    return result.outputs


@pytest.mark.parametrize("name,which", sorted(PINNED),
                         ids=lambda v: v)
def test_digest_pinned(name, which):
    workload = WORKLOADS[name](scale=SCALE)
    assert digest(part(workload, which)) == PINNED[name, which]


# -- the faster host-side numpy against the rules it replaced -------------

#: few distinct values, so ties (and -0.0 == 0.0) are common
TIED = st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.0 + 2 ** -23, 3.0])


@settings(max_examples=300, deadline=None)
@given(st.lists(TIED, min_size=1, max_size=40))
def test_nearest_k_is_the_stable_argsort_rule(values):
    values = np.array(values, dtype=np.float32)
    for k in range(1, values.size + 1):
        expected = np.sort(np.argsort(values, kind="stable")[:k])
        got = nearest_k(values, k)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


def python_bfs(starts, counts, edges, n):
    """The oracle: a per-node queue BFS."""
    cost = np.full(n, -1, dtype=np.int32)
    cost[0] = 0
    frontier = [0]
    while frontier:
        next_frontier = []
        for node in frontier:
            for edge in edges[starts[node]:starts[node] + counts[node]]:
                if cost[edge] == -1:
                    cost[edge] = cost[node] + 1
                    next_frontier.append(int(edge))
        frontier = next_frontier
    return cost


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 30).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.lists(st.integers(0, n - 1), max_size=4),
             min_size=n, max_size=n))))
def test_bfs_reference_matches_a_queue_bfs(graph):
    n, adjacency = graph
    counts = np.array([len(out) for out in adjacency], dtype=np.int32)
    starts = np.zeros(n, dtype=np.int32)
    starts[1:] = np.cumsum(counts)[:-1]
    edges = np.array([v for out in adjacency for v in out], dtype=np.int32)
    got = _bfs_reference(starts, counts, edges, n)
    assert got.dtype == np.int32
    assert np.array_equal(got, python_bfs(starts, counts, edges, n))


# d up to 300 takes every branch of a pairwise float sum: sequential
# below 8, eight interleaved partial sums to 128, split and recurse above
@settings(max_examples=300, deadline=None)
@given(st.integers(1, 50), st.integers(1, 9), st.integers(1, 300),
       st.integers(0, 2 ** 32 - 1), st.booleans())
def test_nearest_center_matches_the_broadcast(n, k, d, seed, tied):
    rng = np.random.default_rng(seed)
    if tied:
        points = rng.integers(0, 3, (n, d)).astype(np.float32)
        centers = rng.integers(0, 3, (k, d)).astype(np.float32)
    else:
        points = rng.normal(0, 4, (n, d)).astype(np.float32)
        centers = rng.normal(0, 4, (k, d)).astype(np.float32)
    distances = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(2)
    assert np.array_equal(_nearest_center(points, centers),
                          distances.argmin(axis=1))
    # bit for bit: a sum rounded differently rarely moves the argmin
    for j, center in enumerate(centers):
        got = _pairwise_sum(np.square(points.T - center[:, None]))
        assert np.array_equal(got.view(np.uint32),
                              distances[:, j].view(np.uint32))


def per_box_forces(pos, charge, boxes_1d, per_box, alpha):
    """The oracle: one (home box, neighbour box) pair at a time, each
    home box's neighbours in (dx, dy, dz) order."""
    force = np.zeros_like(pos)
    a2 = alpha * alpha
    boxes = range(boxes_1d)
    for bx in boxes:
        for by in boxes:
            for bz in boxes:
                h0 = ((bx * boxes_1d + by) * boxes_1d + bz) * per_box
                hp = pos[h0:h0 + per_box]
                for dx in (-1, 0, 1):
                    for dy in (-1, 0, 1):
                        for dz in (-1, 0, 1):
                            nx, ny, nz = bx + dx, by + dy, bz + dz
                            if not (0 <= nx < boxes_1d and 0 <= ny < boxes_1d
                                    and 0 <= nz < boxes_1d):
                                continue
                            o0 = ((nx * boxes_1d + ny) * boxes_1d
                                  + nz) * per_box
                            op = pos[o0:o0 + per_box]
                            oq = charge[o0:o0 + per_box]
                            delta = hp[:, None, :] - op[None, :, :]
                            r2 = (delta ** 2).sum(axis=2) + 0.5
                            vij = np.exp(-(a2 * r2)) * oq[None, :]
                            force[h0:h0 + per_box] += (
                                (vij / r2)[:, :, None] * delta).sum(axis=1)
    return force.astype(np.float32)


# a small step splits an offset's home boxes over several batches
@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 64), st.integers(0, 2 ** 32 - 1),
       st.booleans(), st.sampled_from([0.5, 1.0]),
       st.sampled_from([300, 3000, lavamd._PAIRS_PER_STEP]))
def test_forces_match_the_per_box_loop(boxes_1d, per_box, seed, tied, alpha,
                                       pairs_per_step):
    rng = np.random.default_rng(seed)
    n = boxes_1d ** 3 * per_box
    if tied:
        # a half-integer lattice: deltas, distances and charges repeat
        pos = (rng.integers(0, 2 * boxes_1d, (n, 3)) / 2).astype(np.float32)
        charge = (rng.integers(0, 3, n) / 2).astype(np.float32)
    else:
        pos = rng.random((n, 3), dtype=np.float32) * boxes_1d
        charge = rng.random(n, dtype=np.float32)
    with mock.patch.object(lavamd, "_PAIRS_PER_STEP", pairs_per_step):
        got = _forces(pos, charge, boxes_1d, per_box, alpha)
    assert got.dtype == np.float32
    assert np.array_equal(got.view(np.uint32),
                          per_box_forces(pos, charge, boxes_1d, per_box,
                                         alpha).view(np.uint32))


if __name__ == "__main__":
    for name, which in sorted(PINNED):
        print(f'    ("{name}", "{which}"):\n        '
              f'"{digest(part(WORKLOADS[name](scale=SCALE), which))}",')
