"""Property-based fidelity: live migration is invisible to the guest.

Random guest programs (create/write/read/retain/release over device
buffers, kernel-argument sets and launches) run twice — once plain, once with a
migration started at a random point mid-stream and cut over before the
final reads.  Every guest-visible outcome must be identical: per-op
results, final buffer contents, and the worker's live handle set.  The
migration runs zero pre-copy rounds (stop-the-world) or two (live),
drawn per example: one engine, both policies.

A second property holds the migration log's supersede rule
(``docs/migration.md``, "What the log keeps") against its reference:
replaying the bounded log rebuilds what replaying every recorded call
would have.

Soak pattern mirrors the transfer-cache property suite: the
``CAVA_MIG_EXAMPLES`` environment variable scales the example count
(default 25; CI soaks run hundreds).
"""

import os

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.migration import MigrationPolicy, replay_entry
from repro.migration.recorder import CallRecorder
from repro.opencl.runtime import MemObject
from repro.stack import VirtualStack
from repro.workloads.base import open_env

EXAMPLES = int(os.environ.get("CAVA_MIG_EXAMPLES", "25"))

#: words per buffer — small keeps programs fast; fidelity does not care
BUF_WORDS = 16
MAX_OPS = 24

#: x[i] *= alpha for i < n: one launch shows all three argument slots
SCALE_SRC = ("__kernel void vector_scale(__global float* x, float alpha, "
             "int n) {}")


@st.composite
def programs(draw, max_ops=MAX_OPS):
    """A random op list, the index the migration starts at, and how
    many pre-copy rounds it runs (0 = stop-the-world)."""
    ops = draw(st.lists(
        st.one_of(
            st.tuples(st.just("create")),
            st.tuples(st.just("write"), st.integers(0, 7),
                      st.integers(0, 255)),
            # a few fixed windows, so the same range recurs and
            # different ranges overlap
            st.tuples(st.just("write_part"), st.integers(0, 7),
                      st.integers(0, 255),
                      st.sampled_from([(0, 8), (4, 8), (8, 8), (2, 4)])),
            st.tuples(st.just("read"), st.integers(0, 7)),
            st.tuples(st.just("retain"), st.integers(0, 7)),
            st.tuples(st.just("release"), st.integers(0, 7)),
            st.tuples(st.just("set_arg"), st.integers(0, 2),
                      st.integers(0, 7)),
            st.tuples(st.just("launch")),
        ),
        min_size=1, max_size=max_ops,
    ))
    cut = draw(st.integers(0, len(ops)))
    rounds = draw(st.sampled_from([0, 2]))
    return ops, cut, rounds


class _Harness:
    """One guest VM executing the op DSL, collecting visible outcomes."""

    def __init__(self, vm_id):
        self.hv = VirtualStack.build("opencl").hypervisor
        self.vm = self.hv.create_vm(vm_id)
        self.vm_id = vm_id
        self.cl = self.vm.library("opencl")
        #: every call the worker records, under object tracking alone:
        #: the reference the bounded log is held against
        self.full_log = CallRecorder()
        recorder = self.hv.router.vms[vm_id].logs["opencl"]
        bounded = recorder.record

        def tee(command, reply, kind, success=None):
            self.full_log.record(command, reply, kind, success)
            return bounded(command, reply, kind, success)

        recorder.record = tee
        self.env = open_env(self.cl)
        self.kernel = self.env.kernel(self.env.program(SCALE_SRC),
                                      "vector_scale")
        #: every buffer ever created: [handle, references the guest holds]
        self.bufs = []
        #: what the guest last set in each kernel slot: buffer index,
        #: alpha, n (None = never set)
        self.args = [None, None, None]
        #: buffers some clSetKernelArg record may still name
        self.bound = set()
        self.trace = []

    def _pick(self, seed):
        if not self.bufs:
            return None
        index = seed % len(self.bufs)
        mem, refs = self.bufs[index]
        return (index, mem) if refs else None

    def apply(self, op):
        kind = op[0]
        if kind == "create":
            mem = self.env.buffer(4 * BUF_WORDS)
            self.bufs.append([mem, 1])
            self.trace.append(("created", len(self.bufs) - 1))
        elif kind == "write":
            picked = self._pick(op[1])
            if picked is None:
                self.trace.append(("skip",))
                return
            index, mem = picked
            data = np.full(BUF_WORDS, float(op[2]), dtype=np.float32)
            self.env.write(mem, data)
            self.trace.append(("wrote", index, op[2]))
        elif kind == "write_part":
            picked = self._pick(op[1])
            if picked is None:
                self.trace.append(("skip",))
                return
            index, mem = picked
            first, count = op[3]
            data = np.full(count, float(op[2]), dtype=np.float32)
            self.env.write(mem, data, offset=4 * first)
            self.trace.append(("wrote", index, op[2], first, count))
        elif kind == "read":
            picked = self._pick(op[1])
            if picked is None:
                self.trace.append(("skip",))
                return
            index, mem = picked
            out = self.env.read(mem, 4 * BUF_WORDS)
            self.trace.append(("read", index, out.tobytes()))
        elif kind == "release":
            picked = self._pick(op[1])
            if picked is None:
                self.trace.append(("skip",))
                return
            index, mem = picked
            if index in self.bound and self.bufs[index][1] == 1:
                # the log cannot see a buffer id inside an `anyvalue`
                # scalar, so a clSetKernelArg record outlives its buffer
                # and fails on replay.  Rebinding the slot drops that
                # record from the bounded log but not from the reference
                # log, so bound buffers simply stay (a retained one may
                # drop a reference)
                self.trace.append(("skip",))
                return
            assert self.cl.clReleaseMemObject(mem) == 0
            self.cl.clFinish(self.env.queue)
            self.bufs[index][1] -= 1
            self.trace.append(("released", index))
        elif kind == "retain":
            picked = self._pick(op[1])
            if picked is None:
                self.trace.append(("skip",))
                return
            index, mem = picked
            assert self.cl.clRetainMemObject(mem) == 0
            self.bufs[index][1] += 1
            self.trace.append(("retained", index))
        elif kind == "set_arg":
            slot, seed = op[1], op[2]
            if slot == 0:
                picked = self._pick(seed)
                if picked is None:
                    self.trace.append(("skip",))
                    return
                value, wire = picked
                self.bound.add(value)
            elif slot == 1:
                value = wire = float(1 + seed % 4)
            else:
                value = wire = seed % (BUF_WORDS + 1)
            assert self.cl.clSetKernelArg(self.kernel, slot, 8, wire) == 0
            self.args[slot] = value
            self.trace.append(("set", slot, value))
        elif kind == "launch":
            for slot, value in enumerate(self.args):
                if value is None:
                    self.apply(("set_arg", slot, 0))
            if None in self.args:  # no live buffer to bind
                self.trace.append(("skip",))
                return
            self.env.launch(self.kernel, [BUF_WORDS])
            self.trace.append(("launched", tuple(self.args)))

    def finalize(self):
        final = []
        worker = self.hv.worker(self.vm_id, "opencl")
        for index, (mem, refs) in enumerate(self.bufs):
            if refs:
                # the serving worker holds the guest's references
                assert worker.handles.lookup(mem).refcount == refs
                final.append(
                    (index, self.env.read(mem, 4 * BUF_WORDS).tobytes()))
        handles = frozenset(worker.handles.snapshot_ids())
        return tuple(self.trace), tuple(final), handles


def begin_migration(harness, rounds):
    """Start a migration with a ``rounds``-round budget; the first of
    those rounds (if any) runs now, while the guest keeps going."""
    engine = harness.hv.start_live_migration(
        harness.vm_id, "opencl", policy=MigrationPolicy(max_rounds=rounds))
    if rounds:
        engine.precopy_round()
    return engine


def finish_migration(engine):
    """Spend the rest of the round budget, then cut over."""
    while engine.rounds < engine.policy.max_rounds:
        engine.precopy_round()
    report = engine.cutover()
    assert not report.aborted
    return report


#: a retained buffer released once stays live, before and across a
#: migration (pinned: the random search rarely draws it at 25 examples)
RETAINED = ([("create",), ("retain", 0), ("write", 0, 9), ("release", 0),
             ("read", 0)], 3, 2)


def run_program(ops, cut, rounds, migrate):
    harness = _Harness("vm-prop")
    engine = None
    for index, op in enumerate(ops):
        if migrate and index == cut:
            engine = begin_migration(harness, rounds)
        harness.apply(op)
    if migrate:
        if engine is None:  # cut == len(ops)
            engine = begin_migration(harness, rounds)
        finish_migration(engine)
    return harness.finalize()


def buffer_bytes(worker):
    """Every live buffer's bytes, read straight from the handle table."""
    return {gid: obj.data.tobytes() for gid, obj in worker.handles.items()
            if isinstance(obj, MemObject) and not obj.released}


def replica_state(harness, recorder, snapshot):
    """Replay ``recorder`` onto a fresh worker and report what it built:
    live handle ids, buffer bytes straight after the replay, and (with
    the snapshot written back and the replica serving) what a launch
    and the final reads show the guest."""
    hv, key = harness.hv, (harness.vm_id, "opencl")
    replica = hv._spawn_worker(harness.vm_id, hv.apis["opencl"])
    for entry in recorder.log:
        replay_entry(replica, entry)
    handles = frozenset(replica.handles.snapshot_ids())
    replayed = buffer_bytes(replica)
    for gid, payload in snapshot.items():
        replica.handles.lookup(gid).data[:] = np.frombuffer(payload,
                                                            dtype=np.uint8)
    serving = hv.workers[key]
    hv.workers[key] = replica
    try:
        if None not in harness.args:
            harness.env.launch(harness.kernel, [BUF_WORDS])
        _trace, final, _handles = harness.finalize()
    finally:
        hv.workers[key] = serving
    return handles, replayed, final


class TestMigrationInvisible:
    @settings(max_examples=EXAMPLES, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(programs())
    @example(RETAINED)
    def test_migrated_run_matches_unmigrated_run(self, program):
        ops, cut, rounds = program
        plain = run_program(ops, cut, rounds, migrate=False)
        migrated = run_program(ops, cut, rounds, migrate=True)
        assert migrated == plain

    @settings(max_examples=EXAMPLES, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(programs())
    def test_migration_reports_are_sane(self, program):
        ops, cut, rounds = program
        harness = _Harness("vm-prop")
        for op in ops[:cut]:
            harness.apply(op)
        engine = begin_migration(harness, rounds)
        for op in ops[cut:]:
            harness.apply(op)
        report = finish_migration(engine)
        assert report.downtime > 0
        assert report.downtime <= report.total_time
        assert report.rounds == rounds
        assert report.mode == ("live" if rounds else "stop-the-world")
        if not rounds:
            assert report.precopy_bytes == report.precopy_frames == 0
        # the destination serves and every live buffer reads back
        harness.finalize()


class TestCompactedLogEquivalence:
    """The bounded log against its reference: every recorded call, with
    object tracking only (a recorder given no ``supersedes`` table)."""

    @settings(max_examples=EXAMPLES, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(programs(max_ops=10 * MAX_OPS))
    @example(RETAINED)
    def test_compacted_log_replays_like_full_log(self, program):
        ops, _cut, _rounds = program
        harness = _Harness("vm-prop")
        source = harness.hv.worker("vm-prop", "opencl")
        for op in ops:
            harness.apply(op)
        harness.cl.clFinish(harness.env.queue)
        compacted = harness.hv.router.vms["vm-prop"].logs["opencl"]
        full = harness.full_log
        assert len(compacted) <= len(full)

        snapshot = buffer_bytes(source)
        assert replica_state(harness, compacted, snapshot) == \
            replica_state(harness, full, snapshot)
