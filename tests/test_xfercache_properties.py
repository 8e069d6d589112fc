"""Property suite: the transfer cache can never serve stale bytes.

Hypothesis drives arbitrary interleavings of guest buffer writes,
guest-side data mutations, store evictions (capacity and swap-pressure
sheds), and worker restarts, and asserts the two load-bearing
invariants on every generated schedule:

* **Never stale** — after any schedule, reading a device buffer back
  returns exactly the bytes the guest held *at the moment of the last
  write*, mutations, evictions and crashes notwithstanding.  The cache
  may only ever change how bytes travel, not which bytes arrive.
* **Never slower** — with the default (shared-index, free-digest)
  policy, end-to-end virtual time with the cache armed is less than or
  equal to the uncached run of the identical schedule.

The example count scales with ``CAVA_XFER_EXAMPLES`` (default 25; the
CI xfercache job runs 1000) so the same file serves as both a quick
tier-1 check and the deep soak.
"""

import os

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.remoting.xfercache import CachePolicy
from repro.stack import VirtualStack
from repro.workloads.base import open_env

EXAMPLES = int(os.environ.get("CAVA_XFER_EXAMPLES", "25"))

SLOTS = 3
SIZES = (64, 512, 2048)  # straddles a min_bytes of 256: some payloads
                         # are eligible for elision, some never are


@st.composite
def schedules(draw):
    """An interleaving of writes, mutations, evictions and restarts."""
    ops = draw(st.lists(
        st.one_of(
            st.tuples(st.just("write"), st.integers(0, SLOTS - 1)),
            st.tuples(st.just("mutate"), st.integers(0, SLOTS - 1),
                      st.integers(0, 4095)),
            st.tuples(st.just("shed"), st.integers(1, 4096)),
            st.tuples(st.just("restart")),
        ),
        min_size=1, max_size=24,
    ))
    # a tiny store forces real capacity evictions on some schedules
    capacity = draw(st.sampled_from([4096, 1 << 20]))
    return ops, capacity


class _Harness:
    """One guest VM running a schedule against real device buffers."""

    def __init__(self, cache_policy):
        self.hypervisor = VirtualStack.build("opencl").hypervisor
        self.vm = self.hypervisor.create_vm("vm-prop",
                                            cache_policy=cache_policy)
        self.arrays = [bytearray(((s + 7 * i) % 256 for s in range(size)))
                       for i, size in enumerate(SIZES)]
        #: slot -> bytes the server must hold (set at send time)
        self.model = {}
        self._open()

    def _open(self):
        self.env = open_env(self.vm.library("opencl"))
        self.buffers = [self.env.buffer(size) for size in SIZES]

    def write(self, slot):
        data = np.frombuffer(bytes(self.arrays[slot]), dtype=np.uint8)
        self.env.write(self.buffers[slot], data)
        # the invariant's right-hand side: guest bytes at send time
        self.model[slot] = bytes(self.arrays[slot])

    def mutate(self, slot, position):
        array = self.arrays[slot]
        array[position % len(array)] = (array[position % len(array)] + 1) % 256

    def shed(self, nbytes):
        store = self.hypervisor.router.vms[self.vm.vm_id].store
        if store is not None:
            store.shed(nbytes)

    def restart(self):
        self.hypervisor._on_worker_lost(self.vm.vm_id, "opencl",
                                        "schedule restart")
        self.hypervisor.restart_worker(self.vm.vm_id, "opencl")
        # handles into the dead worker are gone: rebuild the device
        # state, which re-sends every array (possibly via stale refs
        # that must heal through NeedBytes)
        self.model.clear()
        self._open()
        for slot in range(SLOTS):
            self.write(slot)

    def apply(self, op):
        if op[0] == "write":
            self.write(op[1])
        elif op[0] == "mutate":
            self.mutate(op[1], op[2])
        elif op[0] == "shed":
            self.shed(op[1])
        else:
            self.restart()

    def observed(self):
        """What the server actually holds, slot by slot."""
        return {
            slot: bytes(self.env.read(self.buffers[slot], len(expected),
                                      dtype=np.uint8))
            for slot, expected in sorted(self.model.items())
        }


def run_schedule(ops, cache_policy):
    harness = _Harness(cache_policy)
    for op in ops:
        harness.apply(op)
        # the never-stale invariant must hold at *every* prefix of the
        # schedule, not just at the end
        assert harness.observed() == harness.model
    return harness


class TestNeverStale:
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(schedules())
    def test_shared_index_serves_exact_send_time_bytes(self, schedule):
        ops, capacity = schedule
        policy = CachePolicy(min_bytes=256, capacity_bytes=capacity,
                             capacity_entries=4)
        run_schedule(ops, policy)

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(schedules())
    def test_local_index_heals_stale_beliefs(self, schedule):
        """The local-index guest *will* carry wrong beliefs across
        evictions and restarts; every one must surface as a NeedBytes
        retransmission, never as wrong bytes."""
        ops, capacity = schedule
        policy = CachePolicy(min_bytes=256, capacity_bytes=capacity,
                             capacity_entries=4, shared_index=False)
        harness = run_schedule(ops, policy)
        cache = harness.vm.xfer_cache
        # bookkeeping sanity: every retransmission healed a real miss
        metrics = harness.hypervisor.router.metrics_for("vm-prop")
        assert cache.retransmits == metrics.xfer_misses


class TestNeverSlower:
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(schedules())
    def test_cached_virtual_time_bounded_by_uncached(self, schedule):
        ops, capacity = schedule
        uncached = run_schedule(ops, None)
        cached = run_schedule(
            ops, CachePolicy(min_bytes=256, capacity_bytes=capacity,
                             capacity_entries=4))
        assert cached.observed() == uncached.observed()
        assert cached.vm.clock.now <= uncached.vm.clock.now
