"""§4 pluggable transports: local, ring, and disaggregated.

AvA "supports pluggable transport layers, allowing VMs to use
disaggregated accelerators."  The bench reruns representative workloads
over each transport.  Expected shape: the ring FIFO tracks the
hypercall transport closely (both are the SVGA-style interposable
designs); the network transport punishes chatty workloads but barely
touches coarse-grained ones (lavamd, inception) — which is the workload
class for which disaggregation is viable.
"""

from repro.harness.runner import run_native, run_virtualized
from repro.workloads import (
    BFSWorkload,
    GaussianWorkload,
    InceptionWorkload,
    LavaMDWorkload,
)

TRANSPORTS = ("inproc", "ring", "network")


def run_matrix():
    rows = []
    for cls in (BFSWorkload, GaussianWorkload, LavaMDWorkload):
        workload = cls()
        native = run_native(workload)
        ratios = {}
        for transport in TRANSPORTS:
            measured = run_virtualized(
                workload, transport=transport,
                vm_id=f"tr-{transport}-{workload.name}",
            )
            assert measured.verified
            ratios[transport] = measured.runtime / native.runtime
        rows.append((workload.name, ratios))
    workload = InceptionWorkload()
    native = run_native(workload, "mvnc")
    ratios = {}
    for transport in TRANSPORTS:
        measured = run_virtualized(
            workload, api_name="mvnc", transport=transport,
            vm_id=f"tr-{transport}-ncs",
        )
        assert measured.verified
        ratios[transport] = measured.runtime / native.runtime
    rows.append(("inception", ratios))
    return rows


def test_transport_ablation(once):
    rows = once(run_matrix)

    print("\n=== relative runtime by transport (§4) ===")
    print(f"{'workload':12s}" + "".join(f"{t:>10s}" for t in TRANSPORTS))
    for name, ratios in rows:
        print(f"{name:12s}" + "".join(
            f"{ratios[t]:10.3f}" for t in TRANSPORTS
        ))

    by_name = dict(rows)
    # ring ≈ inproc (same interposition architecture, similar costs)
    for name, ratios in rows:
        assert abs(ratios["ring"] - ratios["inproc"]) < 0.10, name
    # disaggregation punishes the chatty workload hardest...
    bfs_penalty = by_name["bfs"]["network"] - by_name["bfs"]["inproc"]
    lavamd_penalty = (by_name["lavamd"]["network"]
                      - by_name["lavamd"]["inproc"])
    assert bfs_penalty > 2 * lavamd_penalty
    # ...while the coarse accelerators stay viable remotely
    assert by_name["inception"]["network"] < 1.2
    assert by_name["lavamd"]["network"] < 1.6
