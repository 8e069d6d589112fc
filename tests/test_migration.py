"""Tests for record/replay VM migration (§4.3): one engine, two policies —
stop-the-world (zero pre-copy rounds) and live."""

import numpy as np
import pytest

from repro.faults.plan import FaultPlan
from repro.guest.library import RemotingError
from repro.hypervisor.pool import DeviceClass
from repro.migration import MigrationAborted, MigrationError, MigrationPolicy
from repro.migration.recorder import CallRecorder, RecordedCall
from repro.migration.replayer import replay_entry
from repro.opencl import types
from repro.remoting.buffers import OutBox
from repro.remoting.codec import Command, Reply
from repro.remoting.xfercache import CachePolicy
from repro.spec.model import RecordKind
from repro.stack import VirtualStack
from repro.workloads import KMeansWorkload
from repro.workloads.base import open_env

VECTOR_SRC = (
    "__kernel void vector_add(__global float* a, __global float* b, "
    "__global float* c, int n) {}"
)

SCALE_SRC = (
    "__kernel void vector_scale(__global float* x, float alpha, int n) {}"
)

#: no pre-copy rounds: the whole replay and every buffer ship frozen
STOP_THE_WORLD = MigrationPolicy(max_rounds=0)


def stop_the_world(hv, vm_id, api="opencl"):
    return hv.live_migrate_vm(vm_id, api, policy=STOP_THE_WORLD)


def command(fn, seq=1, handles=None):
    return Command(seq=seq, vm_id="vm", api="x", function=fn,
                   handles=handles or {})


class TestRecorderObjectTracking:
    def test_creates_recorded(self):
        recorder = CallRecorder()
        recorder.record(command("make"), Reply(seq=1, new_handles={"h": 10}),
                        RecordKind.CREATE)
        assert len(recorder) == 1
        assert recorder.live_created_ids() == {10}

    def test_destroy_prunes_create(self):
        recorder = CallRecorder()
        recorder.record(command("make"), Reply(seq=1, new_handles={"h": 10}),
                        RecordKind.CREATE)
        recorder.record(command("free", handles={"h": 10}), Reply(seq=2),
                        RecordKind.DESTROY)
        assert len(recorder) == 0
        assert recorder.pruned_calls == 1

    def test_destroy_prunes_modifies_of_dead_object(self):
        recorder = CallRecorder()
        recorder.record(command("make"), Reply(seq=1, new_handles={"h": 10}),
                        RecordKind.CREATE)
        recorder.record(command("tweak", handles={"h": 10}), Reply(seq=2),
                        RecordKind.MODIFY)
        recorder.record(command("free", handles={"h": 10}), Reply(seq=3),
                        RecordKind.DESTROY)
        assert len(recorder) == 0

    def test_unrelated_records_survive_destroy(self):
        recorder = CallRecorder()
        recorder.record(command("make", seq=1),
                        Reply(seq=1, new_handles={"h": 10}),
                        RecordKind.CREATE)
        recorder.record(command("make", seq=2),
                        Reply(seq=2, new_handles={"h": 11}),
                        RecordKind.CREATE)
        recorder.record(command("free", handles={"h": 10}), Reply(seq=3),
                        RecordKind.DESTROY)
        assert recorder.live_created_ids() == {11}

    def test_config_calls_recorded(self):
        recorder = CallRecorder()
        recorder.record(command("init"), Reply(seq=1), RecordKind.CONFIG)
        assert len(recorder) == 1

    def test_handle_lists_tracked(self):
        recorder = CallRecorder()
        recorder.record(
            command("makeAll"),
            Reply(seq=1, new_handles={"hs": [20, 21]}),
            RecordKind.CREATE,
        )
        assert recorder.live_created_ids() == {20, 21}


class TestRecorderReferences:
    """A retain is a record; a destroy drops one reference, newest
    retain first, and reports what died and what it used up."""

    def make_retained(self, retains):
        recorder = CallRecorder()
        recorder.record(command("make"), Reply(seq=1, new_handles={"h": 10}),
                        RecordKind.CREATE)
        for _ in range(retains):
            recorder.record(command("keep", handles={"h": 10}),
                            Reply(seq=2, return_value=0), RecordKind.RETAIN, 0)
        return recorder

    def release(self, recorder, ret=0):
        return recorder.record(command("free", handles={"h": 10}),
                               Reply(seq=3, return_value=ret),
                               RecordKind.DESTROY, 0)

    def test_release_drops_the_newest_retain_then_the_object(self):
        recorder = self.make_retained(2)
        assert [e.serial for e in recorder.log] == [1, 2, 3]
        assert self.release(recorder) == (frozenset(), 3)
        assert self.release(recorder) == (frozenset(), 2)
        assert recorder.live_created_ids() == {10}
        assert self.release(recorder) == ({10}, 1)
        assert len(recorder) == 0
        assert not recorder._by_handle

    def test_death_reports_the_creation_not_the_modifies(self):
        recorder = self.make_retained(0)
        recorder.record(command("tweak", handles={"h": 10}), Reply(seq=2),
                        RecordKind.MODIFY)
        assert self.release(recorder) == ({10}, 1)
        assert len(recorder) == 0

    def test_refused_release_changes_nothing(self):
        recorder = self.make_retained(1)
        assert self.release(recorder, ret=-38) == (frozenset(), 0)
        assert len(recorder) == 2
        assert self.release(recorder) == (frozenset(), 2)

    @pytest.mark.parametrize("kind", [RecordKind.CONFIG, RecordKind.CREATE,
                                      RecordKind.RETAIN, RecordKind.MODIFY])
    def test_failed_call_of_any_kind_is_not_kept(self, kind):
        recorder = CallRecorder()
        assert recorder.record(command("call", handles={"h": 10}),
                               Reply(seq=1, return_value=-5), kind, 0) == \
            (frozenset(), 0)
        assert len(recorder) == 0
        # unless it created handles
        recorder.record(command("call", handles={"h": 10}),
                        Reply(seq=1, return_value=-5,
                              new_handles={"e": 11}), kind, 0)
        assert recorder.live_created_ids() == {11}


#: a routing table's supersede keys in miniature: function → key parameters
KEYED = {"set": ("h", "slot"), "put": ("h",)}


def keyed_set(recorder, slot, handle=10, ret=0, value=0, new_handles=None):
    """One ``set`` call, whose return type declares success 0."""
    cmd = Command(seq=1, vm_id="vm", api="x", function="set",
                  handles={"h": handle},
                  scalars={"slot": slot, "value": value})
    recorder.record(cmd, Reply(seq=1, return_value=ret,
                               new_handles=new_handles or {}),
                    RecordKind.MODIFY, 0)


class TestRecorderSupersede:
    """A later successful call with the same key replaces the earlier
    record (docs/migration.md, "What the log keeps")."""

    def test_same_key_replaces_and_moves_to_the_end(self):
        recorder = CallRecorder(KEYED)
        keyed_set(recorder, slot=0, value=1)
        keyed_set(recorder, slot=1, value=2)
        keyed_set(recorder, slot=0, value=3)
        assert [(e.command.scalars["slot"], e.command.scalars["value"])
                for e in recorder.log] == [(1, 2), (0, 3)]
        serials = [e.serial for e in recorder.log]
        assert serials == sorted(serials) and len(set(serials)) == 2

    def test_other_function_or_no_table_accumulates(self):
        recorder = CallRecorder(KEYED)
        for _ in range(3):
            recorder.record(command("tweak", handles={"h": 10}),
                            Reply(seq=1), RecordKind.MODIFY)
        assert len(recorder) == 3
        plain = CallRecorder()
        for _ in range(3):
            keyed_set(plain, slot=0)
        assert len(plain) == 3

    def test_failed_call_supersedes_nothing_and_is_not_kept(self):
        recorder = CallRecorder(KEYED)
        keyed_set(recorder, slot=0, value=1)
        keyed_set(recorder, slot=0, value=2, ret=-50)
        (entry,) = recorder.log
        assert entry.command.scalars["value"] == 1

    def test_undeclared_success_counts_every_call(self):
        recorder = CallRecorder(KEYED)
        for ret in (None, 7, -1):
            recorder.record(command("put", handles={"h": 10}),
                            Reply(seq=1, return_value=ret),
                            RecordKind.MODIFY)
        assert len(recorder) == 1

    def test_record_that_created_handles_is_never_superseded(self):
        recorder = CallRecorder(KEYED)
        keyed_set(recorder, slot=0, value=1, new_handles={"event": 77})
        keyed_set(recorder, slot=0, value=2)
        keyed_set(recorder, slot=0, value=3)
        assert [e.command.scalars["value"] for e in recorder.log] == [1, 3]
        assert recorder.live_created_ids() == {77}

    def test_absent_or_unhashable_key_accumulates(self):
        recorder = CallRecorder(KEYED)
        for _ in range(2):
            recorder.record(command("set", handles={"h": 10}),
                            Reply(seq=1, return_value=0),
                            RecordKind.MODIFY)      # no "slot"
            recorder.record(command("put", handles={"h": [10, 11]}),
                            Reply(seq=1), RecordKind.MODIFY)
        assert len(recorder) == 4

    def test_superseding_through_other_handles_reindexes(self):
        """Same key, different handle set (a write through another
        queue): object tracking must follow the handles of the record
        that is in the log now."""
        recorder = CallRecorder({"write": ("buf",)})

        def write(queue):
            recorder.record(
                command("write", handles={"queue": queue, "buf": 9}),
                Reply(seq=1, return_value=0), RecordKind.MODIFY)

        write(queue=3)
        write(queue=3)
        write(queue=4)
        assert len(recorder) == 1
        recorder.record(command("free", handles={"queue": 3}),
                        Reply(seq=2), RecordKind.DESTROY)
        assert len(recorder) == 1       # queue 3 no longer matters
        recorder.record(command("free", handles={"queue": 4}),
                        Reply(seq=3), RecordKind.DESTROY)
        assert len(recorder) == 0
        assert not recorder._by_key and not recorder._by_handle

    def test_destroy_forgets_the_key(self):
        recorder = CallRecorder(KEYED)
        keyed_set(recorder, slot=0)
        recorder.record(command("free", handles={"h": 10}), Reply(seq=2),
                        RecordKind.DESTROY)
        assert len(recorder) == 0 and recorder.pruned_calls == 1
        keyed_set(recorder, slot=0)     # the id is reused by a new object
        keyed_set(recorder, slot=0)
        assert len(recorder) == 1

    def test_since_returns_the_suffix_in_replay_order(self):
        recorder = CallRecorder(KEYED)
        keyed_set(recorder, slot=0)
        keyed_set(recorder, slot=1)
        seen = recorder.log[-1].serial
        assert recorder.since(seen) == []
        keyed_set(recorder, slot=0)     # replaces a record already seen
        keyed_set(recorder, slot=2)
        assert [e.command.scalars["slot"]
                for e in recorder.since(seen)] == [0, 2]
        assert recorder.since(0) == list(recorder.log)

    def test_log_length_constant_over_1e5_sets_and_rewrites(self):
        table = {"clSetKernelArg": ("kernel", "arg_index"),
                 "clEnqueueWriteBuffer": ("buf", "offset", "size")}
        recorder = CallRecorder(table)
        payload = b"x" * 64

        def burst(count):
            for index in range(count):
                recorder.record(
                    Command(seq=index, vm_id="vm", api="opencl",
                            function="clSetKernelArg",
                            handles={"kernel": 7},
                            scalars={"arg_index": index % 3,
                                     "arg_size": 8, "arg_value": index}),
                    Reply(seq=index, return_value=0), RecordKind.MODIFY)
                recorder.record(
                    Command(seq=index, vm_id="vm", api="opencl",
                            function="clEnqueueWriteBuffer",
                            handles={"command_queue": 3,
                                     "buf": 9 + index % 2},
                            scalars={"offset": 0, "size": 64},
                            in_buffers={"ptr": payload}),
                    Reply(seq=index, return_value=0), RecordKind.MODIFY)

        burst(10)
        settled = len(recorder)
        assert settled == 5     # three slots, two buffers
        burst(50_000)
        assert len(recorder) == settled
        assert len(recorder._by_key) == settled
        assert sorted(recorder._by_handle) == [3, 7, 9, 10]

    def test_destroy_visits_only_the_dead_objects_records(self,
                                                          monkeypatch):
        recorder = CallRecorder(KEYED)
        for gid in range(100, 10_100):
            recorder.record(command("make", handles={"ctx": 1}),
                            Reply(seq=1, new_handles={"h": gid}),
                            RecordKind.CREATE)
            keyed_set(recorder, slot=0, handle=gid)
        assert len(recorder) == 20_000
        visited = []
        real = RecordedCall.created_ids
        monkeypatch.setattr(
            RecordedCall, "created_ids",
            lambda entry: visited.append(entry.serial) or real(entry))
        recorder.record(command("free", handles={"h": 5_000}),
                        Reply(seq=2), RecordKind.DESTROY)
        assert len(recorder) == 19_998 and recorder.pruned_calls == 2
        # the scan this replaces looked at all 20,000 records
        assert len(visited) <= 8
        assert 5_000 not in recorder.live_created_ids()


def build_state(cl, n=64):
    """Create context/queue/buffers/program/kernel with known contents."""
    plats = [None]
    cl.clGetPlatformIDs(1, plats, None)
    devs = [None]
    cl.clGetDeviceIDs(plats[0], types.CL_DEVICE_TYPE_GPU, 1, devs, None)
    err = OutBox()
    ctx = cl.clCreateContext(None, 1, devs, None, None, err)
    queue = cl.clCreateCommandQueue(ctx, devs[0], 0, err)
    data = np.arange(n, dtype=np.float32)
    mem = cl.clCreateBuffer(ctx, types.CL_MEM_COPY_HOST_PTR, 4 * n, data,
                            err)
    prog = cl.clCreateProgramWithSource(ctx, 1, VECTOR_SRC, None, err)
    cl.clBuildProgram(prog, 0, None, "", None, None)
    kernel = cl.clCreateKernel(prog, "vector_add", err)
    return {"ctx": ctx, "queue": queue, "mem": mem, "prog": prog,
            "kernel": kernel, "data": data, "n": n}


class TestWorkerMigration:
    def test_handles_survive_migration(self):
        hv = VirtualStack.build("opencl").hypervisor
        vm = hv.create_vm("vm-m")
        cl = vm.library("opencl")
        state = build_state(cl)
        old_device = hv.worker("vm-m", "opencl").native_session.devices[0]

        report = stop_the_world(hv, "vm-m")
        assert report.mode == "stop-the-world" and report.rounds == 0
        assert report.precopy_bytes == 0
        assert report.replayed_calls >= 4
        assert report.restored_buffers == 1
        assert report.downtime > 0

        new_device = hv.worker("vm-m", "opencl").native_session.devices[0]
        assert new_device is not old_device

        # the guest continues with its old handle values
        out = np.zeros(state["n"], dtype=np.float32)
        code = cl.clEnqueueReadBuffer(state["queue"], state["mem"],
                                      types.CL_TRUE, 0, 4 * state["n"], out,
                                      0, None, None)
        assert code == types.CL_SUCCESS
        assert np.allclose(out, state["data"])

    def test_workload_result_unchanged_by_midrun_migration(self):
        hv = VirtualStack.build("opencl").hypervisor
        vm = hv.create_vm("vm-k")
        cl = vm.library("opencl")
        state = build_state(cl, n=128)
        # mutate the buffer after creation so the snapshot matters
        update = np.full(128, 7.5, dtype=np.float32)
        cl.clEnqueueWriteBuffer(state["queue"], state["mem"], types.CL_TRUE,
                                0, 4 * 128, update, 0, None, None)
        stop_the_world(hv, "vm-k")
        out = np.zeros(128, dtype=np.float32)
        cl.clEnqueueReadBuffer(state["queue"], state["mem"], types.CL_TRUE,
                               0, 4 * 128, out, 0, None, None)
        assert np.allclose(out, update)

    def test_full_workload_after_migration(self):
        hv = VirtualStack.build("opencl").hypervisor
        vm = hv.create_vm("vm-w")
        cl = vm.library("opencl")
        build_state(cl)
        stop_the_world(hv, "vm-w")
        result = KMeansWorkload(scale=0.05).run(cl)
        assert result.verified

    def test_released_objects_not_replayed(self):
        hv = VirtualStack.build("opencl").hypervisor
        vm = hv.create_vm("vm-r")
        cl = vm.library("opencl")
        state = build_state(cl)
        err = OutBox()
        extra = cl.clCreateBuffer(state["ctx"], 0, 256, None, err)
        assert cl.clReleaseMemObject(extra) == 0
        cl.clFinish(state["queue"])  # drain async release
        worker = hv.worker("vm-r", "opencl")
        assert extra not in worker.handles
        report = stop_the_world(hv, "vm-r")
        new_worker = hv.worker("vm-r", "opencl")
        assert extra not in new_worker.handles
        assert state["mem"] in new_worker.handles
        assert report.restored_buffers == 1

    def test_failed_set_arg_does_not_displace_the_good_one(self):
        """A call that returned an error changed nothing, so it must not
        supersede the record of the call that did."""
        hv = VirtualStack.build("opencl").hypervisor
        cl = hv.create_vm("vm-bad-arg").library("opencl")
        env = open_env(cl)
        kernel = env.kernel(env.program(SCALE_SRC), "vector_scale")
        mem = env.buffer(4 * 8, host=np.ones(8, dtype=np.float32))
        env.set_args(kernel, mem, 3.0, 8)
        env.finish()
        # same slot, a value the slot cannot hold; then a slot that
        # does not exist.  Both are async: the error arrives deferred.
        cl.clSetKernelArg(kernel, 0, 8, 2.5)
        assert cl.clFinish(env.queue) == types.CL_INVALID_ARG_VALUE
        cl.clSetKernelArg(kernel, 9, 8, 1)
        assert cl.clFinish(env.queue) == types.CL_INVALID_ARG_INDEX
        recorder = hv.router.vms["vm-bad-arg"].logs["opencl"]
        assert sum(e.command.function == "clSetKernelArg"
                   for e in recorder.log) == 3

        assert not hv.live_migrate_vm("vm-bad-arg", "opencl").aborted
        env.launch(kernel, [8])
        assert np.allclose(env.read(mem, 4 * 8), 3.0)

    def test_write_that_made_an_event_stays_while_the_event_lives(self):
        hv = VirtualStack.build("opencl").hypervisor
        cl = hv.create_vm("vm-event").library("opencl")
        env = open_env(cl)
        mem = env.buffer(4 * 8)
        data = np.arange(8, dtype=np.float32)
        recorder = hv.router.vms["vm-event"].logs["opencl"]
        base = len(recorder)
        events = []
        for _ in range(3):
            box = OutBox()
            assert cl.clEnqueueWriteBuffer(
                env.queue, mem, types.CL_TRUE, 0, data.nbytes, data, 0,
                None, box) == types.CL_SUCCESS
            events.append(box.value)
        assert len(recorder) == base + 3    # each one created a handle
        for _ in range(3):
            env.write(mem, data)            # no event: same key, one record
        assert len(recorder) == base + 4
        stop_the_world(hv, "vm-event")
        moved = hv.worker("vm-event", "opencl")
        assert all(event in moved.handles for event in events)
        assert np.allclose(env.read(mem, data.nbytes), data)

    def test_migrate_unknown_vm(self):
        hv = VirtualStack.build("opencl").hypervisor
        with pytest.raises(KeyError):
            stop_the_world(hv, "ghost")

    def test_downtime_scales_with_buffer_bytes(self):
        hv = VirtualStack.build("opencl").hypervisor
        vm = hv.create_vm("vm-small")
        cl = vm.library("opencl")
        build_state(cl, n=64)
        small = stop_the_world(hv, "vm-small")

        hv2 = VirtualStack.build("opencl").hypervisor
        vm2 = hv2.create_vm("vm-big")
        cl2 = vm2.library("opencl")
        build_state(cl2, n=1 << 18)
        big = stop_the_world(hv2, "vm-big")
        assert big.snapshot_bytes > small.snapshot_bytes
        assert big.downtime > small.downtime


class TestStopTheWorldOnAPool:
    """On a pool, stop-the-world moves the VM to another member, gives
    the old member its memory back and retires the source; with no
    other member it refuses rather than "migrating" in place."""

    MIB = 1 << 20

    def test_moves_to_another_member_and_frees_the_old_one(self):
        hv = VirtualStack.build("opencl").hypervisor
        hv.add_device(DeviceClass.baseline_gpu(), "dev-a")
        hv.add_device(DeviceClass.baseline_gpu(), "dev-b")
        env = open_env(hv.create_vm("vm-pool").library("opencl"))
        source = hv.worker("vm-pool", "opencl")
        home = hv.pool.assignments["vm-pool"]
        native = home.native_device("opencl")
        before = native.allocated_bytes
        data = np.arange(self.MIB // 4, dtype=np.float32)
        mem = env.buffer(self.MIB, host=data)
        assert native.allocated_bytes == before + self.MIB

        report = stop_the_world(hv, "vm-pool")
        assert report.mode == "stop-the-world" and report.rounds == 0
        moved_to = hv.pool.assignments["vm-pool"]
        assert moved_to is not home
        assert report.target_device == moved_to.device_id
        assert native.allocated_bytes == before
        assert source.poisoned == f"migrated to {moved_to.device_id}"
        assert hv.worker("vm-pool", "opencl") is not source
        assert np.array_equal(env.read(mem, self.MIB), data)

    def test_one_member_pool_refuses_instead_of_moving_in_place(self):
        hv = VirtualStack.build("opencl").hypervisor
        hv.add_device(DeviceClass.baseline_gpu(), "dev-a")
        env = open_env(hv.create_vm("vm-alone").library("opencl"))
        data = np.arange(self.MIB // 4, dtype=np.float32)
        mem = env.buffer(self.MIB, host=data)
        source = hv.worker("vm-alone", "opencl")
        with pytest.raises(MigrationError, match="no member to migrate to"):
            stop_the_world(hv, "vm-alone")
        assert hv.worker("vm-alone", "opencl") is source
        assert source.poisoned is None
        assert hv.pool.assignments["vm-alone"].device_id == "dev-a"
        assert np.array_equal(env.read(mem, self.MIB), data)


class TestMVNCMigration:
    """Record/replay also covers the MVNC API: graphs survive moves."""

    def test_graph_survives_migration(self):
        import numpy as np
        from repro.workloads.inception import build_inception_graph
        from repro.mvnc import api as mvnc_api

        hv = VirtualStack.build("mvnc").hypervisor
        vm = hv.create_vm("vm-ncs-m")
        mv = vm.library("mvnc")

        device = OutBox()
        assert mv.mvncOpenDevice(None, device) == mvnc_api.MVNC_OK
        blob = build_inception_graph(input_hw=32).serialize()
        graph = OutBox()
        assert mv.mvncAllocateGraph(device.value, graph, blob,
                                    len(blob)) == mvnc_api.MVNC_OK

        old_stick = hv.worker("vm-ncs-m", "mvnc").native_session.devices[0]
        report = stop_the_world(hv, "vm-ncs-m", "mvnc")
        new_stick = hv.worker("vm-ncs-m", "mvnc").native_session.devices[0]
        assert new_stick is not old_stick
        assert report.replayed_calls >= 2

        # inference works against the replayed graph, same handle values
        image = np.random.default_rng(5).random(
            (32, 32, 3)).astype(np.float16)
        assert mv.mvncLoadTensor(graph.value, image, image.nbytes,
                                 11) == mvnc_api.MVNC_OK
        out = np.zeros(10, dtype=np.float16)
        length, cookie = OutBox(), OutBox()
        assert mv.mvncGetResult(graph.value, out, out.nbytes, length,
                                cookie) == mvnc_api.MVNC_OK
        assert cookie.value == 11
        assert abs(float(out.sum()) - 1.0) < 0.05

    def test_deallocated_graph_not_replayed(self):
        from repro.workloads.inception import build_inception_graph
        from repro.mvnc import api as mvnc_api

        hv = VirtualStack.build("mvnc").hypervisor
        vm = hv.create_vm("vm-ncs-d")
        mv = vm.library("mvnc")
        device = OutBox()
        mv.mvncOpenDevice(None, device)
        blob = build_inception_graph(input_hw=32).serialize()
        graph = OutBox()
        mv.mvncAllocateGraph(device.value, graph, blob, len(blob))
        assert mv.mvncDeallocateGraph(graph.value) == mvnc_api.MVNC_OK
        worker = hv.worker("vm-ncs-d", "mvnc")
        assert graph.value not in worker.handles
        report = stop_the_world(hv, "vm-ncs-d", "mvnc")
        new_worker = hv.worker("vm-ncs-d", "mvnc")
        assert graph.value not in new_worker.handles
        assert device.value in new_worker.handles


def live_stack(vm_id, n=64, **vm_kwargs):
    hv = VirtualStack.build("opencl").hypervisor
    vm = hv.create_vm(vm_id, **vm_kwargs)
    cl = vm.library("opencl")
    state = build_state(cl, n=n)
    return hv, vm, cl, state


class TestLiveMigration:
    """Iterative pre-copy + frozen cutover: the live upgrade of §4.3."""

    def test_midstream_write_survives_cutover(self):
        hv, vm, cl, state = live_stack("vm-live")
        source = hv.worker("vm-live", "opencl")

        engine = hv.start_live_migration("vm-live", "opencl")
        engine.precopy_round()
        # the guest keeps running mid-migration and dirties device state
        update = np.full(64, 123.0, dtype=np.float32)
        code = cl.clEnqueueWriteBuffer(state["queue"], state["mem"],
                                       types.CL_TRUE, 0, 4 * 64, update,
                                       0, None, None)
        assert code == types.CL_SUCCESS
        engine.precopy_round()
        report = engine.cutover()

        assert not report.aborted
        assert report.mode == "live"
        assert report.rounds == 2
        dest = hv.worker("vm-live", "opencl")
        assert dest is engine.dest and dest is not source
        out = np.zeros(64, dtype=np.float32)
        assert cl.clEnqueueReadBuffer(state["queue"], state["mem"],
                                      types.CL_TRUE, 0, 4 * 64, out, 0,
                                      None, None) == types.CL_SUCCESS
        assert np.allclose(out, update)

    def test_result_identical_to_unmigrated_run(self):
        def run(migrate):
            hv, vm, cl, state = live_stack("vm-ab", n=32)
            engine = None
            if migrate:
                engine = hv.start_live_migration("vm-ab", "opencl")
                engine.precopy_round()
            update = np.linspace(0.0, 1.0, 32).astype(np.float32)
            cl.clEnqueueWriteBuffer(state["queue"], state["mem"],
                                    types.CL_TRUE, 0, 4 * 32, update, 0,
                                    None, None)
            if migrate:
                engine.precopy_round()
                assert not engine.cutover().aborted
            out = np.zeros(32, dtype=np.float32)
            code = cl.clEnqueueReadBuffer(state["queue"], state["mem"],
                                          types.CL_TRUE, 0, 4 * 32, out,
                                          0, None, None)
            return code, out.tobytes()

        assert run(True) == run(False)

    def test_kernel_writes_ship_by_content_digest(self):
        """Kernel launches are not recorded (verb-based inference), so
        only the per-round content-digest scan catches their writes."""
        hv = VirtualStack.build("opencl").hypervisor
        vm = hv.create_vm("vm-kd")
        cl = vm.library("opencl")
        env = open_env(cl)
        n = 256
        a = np.arange(n, dtype=np.float32)
        b = np.full(n, 3.0, dtype=np.float32)
        ma = env.buffer(4 * n, host=a)
        mb = env.buffer(4 * n, host=b)
        mc = env.buffer(4 * n)
        kernel = env.kernel(env.program(VECTOR_SRC), "vector_add")
        env.set_args(kernel, ma, mb, mc, n)

        engine = hv.start_live_migration("vm-kd", "opencl")
        assert engine.precopy_round() == 0  # replay staged everything
        env.launch(kernel, [n])
        env.finish()
        # exactly the kernel-dirtied buffer ships, nothing else
        assert engine.precopy_round() == 4 * n
        report = engine.cutover()
        assert not report.aborted

        out = env.read(mc, 4 * n)
        assert np.allclose(out, a + b)

    def test_handle_ids_preserved_across_cutover(self):
        hv, vm, cl, state = live_stack("vm-ids")
        source = hv.worker("vm-ids", "opencl")
        ids_before = set(source.handles.snapshot_ids())
        report = hv.live_migrate_vm("vm-ids", "opencl")
        assert not report.aborted
        dest = hv.worker("vm-ids", "opencl")
        assert dest.handles.snapshot_ids() == ids_before
        # the guest's stashed handle values still work post-cutover
        out = np.zeros(64, dtype=np.float32)
        assert cl.clEnqueueReadBuffer(state["queue"], state["mem"],
                                      types.CL_TRUE, 0, 4 * 64, out, 0,
                                      None, None) == types.CL_SUCCESS

    def test_downtime_beats_stop_the_world(self):
        n = 1 << 18  # 1 MiB of device state

        hv_live, _, _, _ = live_stack("vm-big-live", n=n)
        live = hv_live.live_migrate_vm("vm-big-live", "opencl")

        hv_stw, _, _, _ = live_stack("vm-big-stw", n=n)
        stw = stop_the_world(hv_stw, "vm-big-stw")

        assert live.downtime > 0
        assert live.downtime < live.total_time
        # the frozen window no longer pays for the bulk state transfer
        assert live.downtime <= 0.25 * stw.downtime
        assert live.snapshot_bytes >= 4 * n

    def test_stall_charged_to_first_posthaw_call(self):
        hv, vm, cl, state = live_stack("vm-stall", n=1 << 16)
        report = hv.live_migrate_vm("vm-stall", "opencl")
        assert not report.aborted
        # the guest clock is behind the cutover point; its next call
        # absorbs the frozen window as visible router stall
        out = np.zeros(4, dtype=np.float32)
        assert cl.clEnqueueReadBuffer(state["queue"], state["mem"],
                                      types.CL_TRUE, 0, 16, out, 0,
                                      None, None) == types.CL_SUCCESS
        metrics = hv.router.metrics_for("vm-stall")
        assert metrics.migration_stall > 0
        assert hv.router.vms["vm-stall"].frozen is None

    def test_destroy_churn_during_migration_is_replayed(self):
        hv, vm, cl, state = live_stack("vm-churn-live")
        err = OutBox()
        temp = cl.clCreateBuffer(state["ctx"], 0, 4096, None, err)
        engine = hv.start_live_migration("vm-churn-live", "opencl")
        engine.precopy_round()  # replays the temp's create onto the dest
        assert temp in engine.dest.handles
        assert cl.clReleaseMemObject(temp) == 0
        cl.clFinish(state["queue"])  # drain the async release
        engine.precopy_round()  # forwards the destroy via the listener
        assert temp not in engine.dest.handles
        report = engine.cutover()
        assert not report.aborted
        dest = hv.worker("vm-churn-live", "opencl")
        assert temp not in dest.handles
        assert state["mem"] in dest.handles

    def test_record_made_after_a_prune_reaches_the_destination(self):
        """The destination tracks what it has seen by record serial.  It
        used to remember ``id(entry)``: a record pruned after a round
        frees its address, the next record may be allocated there, and
        was then skipped as "already replayed"."""
        hv, vm, cl, state = live_stack("vm-serial")
        log = hv.router.vms["vm-serial"].logs["opencl"]
        err = OutBox()
        engine = hv.start_live_migration("vm-serial", "opencl")
        for _ in range(20):
            temp = cl.clCreateBuffer(state["ctx"], 0, 256, None, err)
            engine.precopy_round()      # the destination replays it
            seen = engine._replayed_through
            assert seen == log.log[-1].serial
            assert cl.clReleaseMemObject(temp) == 0
            cl.clFinish(state["queue"])     # prune: the record is freed
            fresh = cl.clCreateBuffer(state["ctx"], 0, 256, None, err)
            assert log.log[-1].serial > seen
            engine.precopy_round()
            assert fresh in engine.dest.handles
            assert temp not in engine.dest.handles
        assert not engine.cutover().aborted

    def test_superseded_mid_migration_replacement_follows(self):
        hv, vm, cl, state = live_stack("vm-sup")
        log = hv.router.vms["vm-sup"].logs["opencl"]
        kernel, n = state["kernel"], state["n"]
        assert cl.clSetKernelArg(kernel, 3, 8, 5) == 0
        engine = hv.start_live_migration("vm-sup", "opencl")
        engine.precopy_round()
        before = len(log)
        assert cl.clSetKernelArg(kernel, 3, 8, n) == 0
        cl.clFinish(state["queue"])
        assert len(log) == before   # replaced, not appended
        engine.precopy_round()
        assert engine.report.replayed_calls == before + 1
        assert not engine.cutover().aborted
        dest = hv.worker("vm-sup", "opencl")
        assert dest.handles.lookup(kernel).args[3] == n

    def test_precopy_elides_store_known_bytes(self):
        """Dirty contents the per-VM transfer store has already seen
        cross the migration channel as content-addressed refs."""
        hv = VirtualStack.build("opencl").hypervisor
        vm = hv.create_vm("vm-elide",
                          cache_policy=CachePolicy(min_bytes=64))
        cl = vm.library("opencl")
        env = open_env(cl)
        n = 256
        a = np.arange(n, dtype=np.float32)
        b = np.full(n, 3.0, dtype=np.float32)
        ma = env.buffer(4 * n, host=a)
        mb = env.buffer(4 * n, host=b)
        mc = env.buffer(4 * n)
        md = env.buffer(4 * n)
        # seed the store with the bytes the kernel is about to produce
        env.write(md, (a + b).astype(np.float32))
        kernel = env.kernel(env.program(VECTOR_SRC), "vector_add")
        env.set_args(kernel, ma, mb, mc, n)

        engine = hv.start_live_migration("vm-elide", "opencl")
        engine.precopy_round()
        env.launch(kernel, [n])
        env.finish()
        shipped = engine.precopy_round()
        assert shipped == 4 * n  # payload accounting is unchanged...
        # ...but the wire carried a ref instead of the payload
        assert engine.report.elided_bytes == \
            4 * n - engine.ref_bytes
        assert not engine.cutover().aborted
        assert np.allclose(env.read(mc, 4 * n), a + b)

    def test_admin_report_exposes_migrations(self):
        hv, vm, cl, state = live_stack("vm-admin")
        hv.live_migrate_vm("vm-admin", "opencl")
        report = hv.admin_report()
        per_vm = report["vm-admin"]["migration"]
        assert per_vm["count"] == 1
        assert per_vm["aborted"] == 0
        assert per_vm["downtime"] > 0
        totals = report["_migration"]
        assert totals["count"] == 1

    def test_finished_engine_rejects_further_driving(self):
        hv, vm, cl, state = live_stack("vm-done")
        engine = hv.start_live_migration("vm-done", "opencl")
        engine.precopy_round()
        engine.cutover()
        with pytest.raises(MigrationError):
            engine.precopy_round()
        with pytest.raises(MigrationError):
            engine.cutover()

    def test_one_migration_in_flight_per_api(self):
        hv, vm, cl, state = live_stack("vm-at-once")
        engine = hv.start_live_migration("vm-at-once", "opencl")
        with pytest.raises(MigrationError):
            hv.start_live_migration("vm-at-once", "opencl")
        assert hv.router.vms["vm-at-once"].migrating == {"opencl": engine}
        assert not engine.cutover().aborted
        assert hv.router.vms["vm-at-once"].migrating == {}

    def test_crashed_source_rejected(self):
        hv, vm, cl, state = live_stack("vm-dead")
        hv._on_worker_lost("vm-dead", "opencl", "induced crash")
        with pytest.raises(MigrationError):
            hv.start_live_migration("vm-dead", "opencl")

    def test_unknown_vm_rejected(self):
        hv = VirtualStack.build("opencl").hypervisor
        with pytest.raises(KeyError):
            hv.start_live_migration("ghost", "opencl")

    def test_policy_validation(self):
        assert MigrationPolicy(max_rounds=0).max_rounds == 0
        with pytest.raises(ValueError):
            MigrationPolicy(max_rounds=-1)
        with pytest.raises(ValueError):
            MigrationPolicy(convergence_bytes=-1)
        with pytest.raises(ValueError):
            MigrationPolicy(max_frame_retries=-1)


class TestObjectsCreatedAfterCutover:
    """The destination's replay binds guest ids with ``allocate_as``; an
    object the guest creates after the cutover must get an id of its
    own, not one the replay already bound."""

    def test_new_object_keeps_every_replayed_handle(self):
        hv = VirtualStack.build("opencl").hypervisor
        env = open_env(hv.create_vm("vm-after").library("opencl"))
        before = dict(hv.worker("vm-after", "opencl").handles.items())
        hv.live_migrate_vm("vm-after", "opencl")
        mem = env.buffer(4096)
        assert mem not in before
        after = dict(hv.worker("vm-after", "opencl").handles.items())
        assert set(after) == set(before) | {mem}
        assert all(type(after[gid]) is type(obj)
                   for gid, obj in before.items())

    def test_second_migration_replays_the_new_object(self):
        hv = VirtualStack.build("opencl").hypervisor
        env = open_env(hv.create_vm("vm-twice").library("opencl"))
        hv.live_migrate_vm("vm-twice", "opencl")
        data = np.arange(1024, dtype=np.float32)
        mem = env.buffer(data.nbytes, host=data)
        report = hv.live_migrate_vm("vm-twice", "opencl")
        assert not report.aborted
        assert np.array_equal(env.read(mem, data.nbytes), data)


class TestLiveMigrationAbort:
    """Abort is clean: the source keeps serving, the dest is scrubbed."""

    def test_manual_abort_leaves_source_serving(self):
        hv, vm, cl, state = live_stack("vm-abort")
        source = hv.worker("vm-abort", "opencl")
        engine = hv.start_live_migration("vm-abort", "opencl")
        engine.precopy_round()
        report = engine.abort("operator changed their mind")
        assert report.aborted and engine.aborted
        assert hv.worker("vm-abort", "opencl") is source
        assert engine.dest.crashed is not None
        assert hv.migrations[-1] is report
        out = np.zeros(64, dtype=np.float32)
        assert cl.clEnqueueReadBuffer(state["queue"], state["mem"],
                                      types.CL_TRUE, 0, 4 * 64, out, 0,
                                      None, None) == types.CL_SUCCESS
        assert np.allclose(out, state["data"])

    def test_lost_cutover_frame_aborts_cleanly(self):
        hv, vm, cl, state = live_stack("vm-lost")
        source = hv.worker("vm-lost", "opencl")
        # arm the migration channel only (no guest-transport wrapping):
        # every migration frame drops until the retry budget dies
        hv.fault_plan = FaultPlan(seed=7, drop=1.0)
        engine = hv.start_live_migration("vm-lost", "opencl")
        engine.precopy_round()  # ships nothing; no frames to drop
        with pytest.raises(MigrationAborted) as excinfo:
            engine.cutover()
        assert "cutover" in str(excinfo.value)
        assert hv.worker("vm-lost", "opencl") is source
        assert hv.router.vms["vm-lost"].frozen is None
        assert hv.migrations[-1].aborted
        out = np.zeros(64, dtype=np.float32)
        assert cl.clEnqueueReadBuffer(state["queue"], state["mem"],
                                      types.CL_TRUE, 0, 4 * 64, out, 0,
                                      None, None) == types.CL_SUCCESS
        assert np.allclose(out, state["data"])

    def test_dest_crash_during_replay_aborts(self):
        hv, vm, cl, state = live_stack("vm-crash")
        source = hv.worker("vm-crash", "opencl")
        plan = FaultPlan(seed=9, crash_on_call=3)
        engine = hv.start_live_migration("vm-crash", "opencl")
        engine.dest.fault_hook = plan.worker_hook()
        with pytest.raises(MigrationAborted):
            engine.precopy_round()
        assert hv.worker("vm-crash", "opencl") is source
        assert hv.migrations[-1].aborted
        out = np.zeros(64, dtype=np.float32)
        assert cl.clEnqueueReadBuffer(state["queue"], state["mem"],
                                      types.CL_TRUE, 0, 4 * 64, out, 0,
                                      None, None) == types.CL_SUCCESS

    def test_frozen_vm_rejected_then_thaw_stalls(self):
        hv, vm, cl, state = live_stack("vm-frozen")
        hv.router.freeze_vm("vm-frozen", "test freeze")
        update = np.zeros(64, dtype=np.float32)
        with pytest.raises(RemotingError):
            cl.clEnqueueWriteBuffer(state["queue"], state["mem"],
                                    types.CL_TRUE, 0, 4 * 64, update, 0,
                                    None, None)
        metrics = hv.router.metrics_for("vm-frozen")
        assert metrics.frozen_rejected == 1
        hv.router.thaw_vm("vm-frozen", resume_at=vm.clock.now + 1.0)
        assert cl.clEnqueueWriteBuffer(state["queue"], state["mem"],
                                       types.CL_TRUE, 0, 4 * 64, update,
                                       0, None, None) == types.CL_SUCCESS
        assert metrics.migration_stall > 0.9


class TestMVNCLiveMigration:
    """The live protocol is API-agnostic: MVNC graphs move too."""

    def test_graph_survives_live_migration(self):
        from repro.workloads.inception import build_inception_graph
        from repro.mvnc import api as mvnc_api

        hv = VirtualStack.build("mvnc").hypervisor
        vm = hv.create_vm("vm-ncs-live")
        mv = vm.library("mvnc")

        device = OutBox()
        assert mv.mvncOpenDevice(None, device) == mvnc_api.MVNC_OK
        blob = build_inception_graph(input_hw=32).serialize()
        graph = OutBox()
        assert mv.mvncAllocateGraph(device.value, graph, blob,
                                    len(blob)) == mvnc_api.MVNC_OK

        old_stick = hv.worker("vm-ncs-live", "mvnc").native_session.devices[0]
        report = hv.live_migrate_vm("vm-ncs-live", "mvnc")
        assert not report.aborted and report.mode == "live"
        new_stick = hv.worker("vm-ncs-live", "mvnc").native_session.devices[0]
        assert new_stick is not old_stick

        image = np.random.default_rng(5).random(
            (32, 32, 3)).astype(np.float16)
        assert mv.mvncLoadTensor(graph.value, image, image.nbytes,
                                 17) == mvnc_api.MVNC_OK
        out = np.zeros(10, dtype=np.float16)
        length, cookie = OutBox(), OutBox()
        assert mv.mvncGetResult(graph.value, out, out.nbytes, length,
                                cookie) == mvnc_api.MVNC_OK
        assert cookie.value == 17
        assert abs(float(out.sum()) - 1.0) < 0.05


class TestTheLogIsTheVMs:
    """The migration log lives on the VM's router record, fed by the
    router: a command that reaches a worker any other way is not
    logged, and the log outlives the worker it was recorded through."""

    def test_replay_straight_onto_a_worker_is_not_recorded(self):
        hv, vm, cl, state = live_stack("vm-log")
        log = hv.router.vms["vm-log"].logs["opencl"]
        before = log.log
        replica = hv._spawn_worker("vm-log", hv.apis["opencl"])
        for entry in before:
            replay_entry(replica, entry)
        assert state["mem"] in replica.handles
        assert log.log == before
        assert log.since(before[-1].serial) == []

    def test_the_log_stays_with_the_vm_across_cutover(self):
        hv, vm, cl, state = live_stack("vm-log-moves")
        log = hv.router.vms["vm-log-moves"].logs["opencl"]
        assert not hv.live_migrate_vm("vm-log-moves", "opencl").aborted
        assert hv.router.vms["vm-log-moves"].logs["opencl"] is log
        assert not hv.router.vms["vm-log-moves"].migrating


def write_words(cl, state, words):
    data = np.asarray(words, dtype=np.float32)
    assert cl.clEnqueueWriteBuffer(state["queue"], state["mem"], types.CL_TRUE,
                                   0, data.nbytes, data, 0, None,
                                   None) == types.CL_SUCCESS
    return data


def read_words(cl, state, count):
    out = np.zeros(count, dtype=np.float32)
    assert cl.clEnqueueReadBuffer(state["queue"], state["mem"], types.CL_TRUE,
                                  0, out.nbytes, out, 0, None,
                                  None) == types.CL_SUCCESS
    return out


class TestReferenceCounts:
    """The VM's log counts references: a retained object survives a
    release in the log as in the handle table, migrates with its count,
    and only its last release frees its guest id."""

    @pytest.mark.parametrize("rounds", [0, 3])
    @pytest.mark.parametrize("retains", [1, 2])
    def test_retained_buffer_migrates_after_one_release(self, retains,
                                                        rounds):
        vm_id = f"vm-retain-{retains}-{rounds}"
        hv, vm, cl, state = live_stack(vm_id, n=4)
        data = write_words(cl, state, [1.5, -2.0, 3.25, 4.0])  # 16 bytes
        for _ in range(retains):
            assert cl.clRetainMemObject(state["mem"]) == types.CL_SUCCESS
        assert cl.clReleaseMemObject(state["mem"]) == types.CL_SUCCESS
        cl.clFinish(state["queue"])
        report = hv.live_migrate_vm(vm_id, "opencl",
                                    policy=MigrationPolicy(max_rounds=rounds))
        assert not report.aborted, report.reason
        dest = hv.worker(vm_id, "opencl")
        assert dest.handles.lookup(state["mem"]).refcount == retains
        assert np.array_equal(read_words(cl, state, 4), data)

    def test_the_last_release_on_the_destination_frees_the_id(self):
        hv, vm, cl, state = live_stack("vm-last-ref", n=4)
        mem = state["mem"]
        for _ in range(2):
            assert cl.clRetainMemObject(mem) == types.CL_SUCCESS
        assert cl.clReleaseMemObject(mem) == types.CL_SUCCESS
        assert not hv.live_migrate_vm("vm-last-ref", "opencl").aborted
        dest = hv.worker("vm-last-ref", "opencl")
        log = hv.router.vms["vm-last-ref"].logs["opencl"]
        assert cl.clReleaseMemObject(mem) == types.CL_SUCCESS
        cl.clFinish(state["queue"])
        assert mem in dest.handles and mem in log.live_created_ids()
        assert cl.clReleaseMemObject(mem) == types.CL_SUCCESS
        cl.clFinish(state["queue"])
        assert mem not in dest.handles
        assert mem not in log.live_created_ids()

    @pytest.mark.parametrize("replayed", [True, False])
    def test_retain_released_before_cutover(self, replayed):
        """The destination replays the release exactly when it replayed
        the retain the release cancelled."""
        hv, vm, cl, state = live_stack("vm-mid-ref", n=4)
        mem = state["mem"]
        engine = hv.start_live_migration(
            "vm-mid-ref", "opencl", policy=MigrationPolicy(max_rounds=2))
        engine.precopy_round()
        assert cl.clRetainMemObject(mem) == types.CL_SUCCESS
        cl.clFinish(state["queue"])
        if replayed:
            engine.precopy_round()
            assert engine.dest.handles.lookup(mem).refcount == 2
        assert cl.clReleaseMemObject(mem) == types.CL_SUCCESS
        cl.clFinish(state["queue"])
        report = engine.cutover()
        assert not report.aborted, report.reason
        assert engine.dest.handles.lookup(mem).refcount == \
            engine.source.handles.lookup(mem).refcount == 1

    def test_refused_release_keeps_the_object_in_the_log(self):
        """``clReleaseContext(buffer)`` is async: the guest sees success,
        the native API refuses it, and nothing died."""
        hv, vm, cl, state = live_stack("vm-refused", n=4)
        data = write_words(cl, state, [7.0, 8.0, 9.0, 10.0])
        assert cl.clReleaseContext(state["mem"]) == types.CL_SUCCESS
        cl.clFinish(state["queue"])
        source = hv.worker("vm-refused", "opencl")
        assert state["mem"] in source.handles
        log = hv.router.vms["vm-refused"].logs["opencl"]
        assert state["mem"] in log.live_created_ids()
        report = stop_the_world(hv, "vm-refused")
        assert not report.aborted, report.reason
        assert np.array_equal(read_words(cl, state, 4), data)


class TestMultiHandleRecords:
    """A call that creates several handles is one record; releasing one
    of them keeps the record for the others (its siblings)."""

    def test_release_keeps_the_record_while_a_sibling_lives(self):
        recorder = CallRecorder()
        recorder.record(command("makeAll"),
                        Reply(seq=1, new_handles={"hs": [20, 21]}),
                        RecordKind.CREATE)
        release = command("free", handles={"h": 20})
        dead, consumed = recorder.record(release, Reply(seq=2),
                                         RecordKind.DESTROY)
        assert (dead, consumed) == ({20}, 1)
        (entry,) = recorder.log
        assert entry.releases == [release] and entry.released == {20}
        assert recorder.live_created_ids() == {21}
        dead, _ = recorder.record(command("free", handles={"h": 21}),
                                  Reply(seq=3), RecordKind.DESTROY)
        assert dead == {21}
        assert len(recorder) == 0 and recorder.live_created_ids() == set()

    @pytest.mark.parametrize("rounds", [0, 3])
    def test_sibling_survives_migration(self, rounds):
        vm_id = f"vm-siblings-{rounds}"
        hv, vm, cl, state = live_stack(vm_id, n=4)
        err = OutBox()
        prog = cl.clCreateProgramWithSource(
            state["ctx"], 1, VECTOR_SRC + "\n" + SCALE_SRC, None, err)
        assert cl.clBuildProgram(prog, 0, None, "", None,
                                 None) == types.CL_SUCCESS
        kernels = [None, None]
        assert cl.clCreateKernelsInProgram(prog, 2, kernels,
                                           None) == types.CL_SUCCESS
        first, second = kernels
        assert cl.clReleaseKernel(first) == types.CL_SUCCESS
        cl.clFinish(state["queue"])
        source = hv.worker(vm_id, "opencl")
        assert first not in source.handles and second in source.handles
        report = hv.live_migrate_vm(vm_id, "opencl",
                                    policy=MigrationPolicy(max_rounds=rounds))
        assert not report.aborted, report.reason
        dest = hv.worker(vm_id, "opencl")
        assert dest is not source
        assert dest.handles.snapshot_ids() == source.handles.snapshot_ids()
        num_args = bytearray(8)
        assert cl.clGetKernelInfo(second, types.CL_KERNEL_NUM_ARGS, 8,
                                  num_args, None) == types.CL_SUCCESS
        assert int.from_bytes(bytes(num_args), "little") == 3
        assert cl.clReleaseKernel(second) == types.CL_SUCCESS
        cl.clFinish(state["queue"])
        assert second not in dest.handles
        log = hv.router.vms[vm_id].logs["opencl"]
        assert {first, second}.isdisjoint(log.live_created_ids())

    def test_release_after_the_record_was_replayed(self):
        """Released mid-migration, after a pre-copy round replayed the
        creation: the destination replays the release on its own."""
        hv, vm, cl, state = live_stack("vm-siblings-mid", n=4)
        err = OutBox()
        prog = cl.clCreateProgramWithSource(
            state["ctx"], 1, VECTOR_SRC + "\n" + SCALE_SRC, None, err)
        cl.clBuildProgram(prog, 0, None, "", None, None)
        kernels = [None, None]
        cl.clCreateKernelsInProgram(prog, 2, kernels, None)
        engine = hv.start_live_migration(
            "vm-siblings-mid", "opencl", policy=MigrationPolicy(max_rounds=2))
        engine.precopy_round()
        assert set(kernels) <= engine.dest.handles.snapshot_ids()
        assert cl.clReleaseKernel(kernels[0]) == types.CL_SUCCESS
        cl.clFinish(state["queue"])
        report = engine.cutover()
        assert not report.aborted, report.reason
        assert engine.dest.handles.snapshot_ids() == \
            engine.source.handles.snapshot_ids()
        assert kernels[1] in engine.dest.handles


class TestMigrationSeedGaps:
    """Replay failures and log churn, under both policies."""

    def test_partial_replay_surfaces_migration_error(self):
        hv, vm, cl, state = live_stack("vm-tamper")
        worker = hv.worker("vm-tamper", "opencl")
        # corrupt one log entry: replay cannot reconstruct the state
        log = hv.router.vms["vm-tamper"].logs["opencl"]
        log.log[2].command.function = "clTotallyBogus"
        with pytest.raises(MigrationError):   # MigrationAborted is one
            stop_the_world(hv, "vm-tamper")
        assert hv.worker("vm-tamper", "opencl") is worker
        assert hv.router.vms["vm-tamper"].frozen is None
        out = np.zeros(64, dtype=np.float32)
        assert cl.clEnqueueReadBuffer(state["queue"], state["mem"],
                                      types.CL_TRUE, 0, 4 * 64, out, 0,
                                      None, None) == types.CL_SUCCESS
        assert np.allclose(out, state["data"])

    def test_partial_live_replay_aborts_to_source(self):
        hv, vm, cl, state = live_stack("vm-tamper-live")
        source = hv.worker("vm-tamper-live", "opencl")
        log = hv.router.vms["vm-tamper-live"].logs["opencl"]
        log.log[2].command.function = "clTotallyBogus"
        with pytest.raises(MigrationAborted):
            hv.live_migrate_vm("vm-tamper-live", "opencl")
        assert hv.worker("vm-tamper-live", "opencl") is source
        out = np.zeros(64, dtype=np.float32)
        assert cl.clEnqueueReadBuffer(state["queue"], state["mem"],
                                      types.CL_TRUE, 0, 4 * 64, out, 0,
                                      None, None) == types.CL_SUCCESS

    def test_log_stays_minimal_after_destroy_churn(self):
        hv, vm, cl, state = live_stack("vm-minimal")
        log = hv.router.vms["vm-minimal"].logs["opencl"]
        baseline = len(log)
        live_ids = set(log.live_created_ids())
        err = OutBox()
        for _ in range(50):
            temp = cl.clCreateBuffer(state["ctx"], 0, 4096, None, err)
            cl.clReleaseMemObject(temp)
        cl.clFinish(state["queue"])
        assert len(log) == baseline
        assert log.pruned_calls >= 50
        assert log.live_created_ids() == live_ids
