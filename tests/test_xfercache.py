"""Transfer cache: codec forms, store semantics, router resolution.

The contract under test (``repro.remoting.xfercache`` +
``repro.server.xferstore`` + the router's resolution pre-pass): a
cached ref only ever resolves to exactly the bytes the guest would have
sent — a miss yields ``NeedBytes`` and a retransmission, never stale
data.  With no policy the stack is the uncached one, whose Figure 5
the identity check in ``tests/test_slo.py`` holds bit for bit.
"""

import numpy as np
import pytest

from repro.guest.library import RemotingError
from repro.remoting.codec import (
    CodecError,
    Command,
    CommandBatch,
    NeedBytes,
    Reply,
)
from repro.remoting.xfercache import (
    CachePolicy,
    CachedRef,
    TransferCache,
    digest_payload,
)
from repro.server.xferstore import TransferStore
from repro.stack import VirtualStack
from repro.workloads.base import open_env
from tests.wire_oracle import decode_message, encode_message


def fresh_stack(vm_id="v1", cache_policy=None, transport="inproc"):
    hypervisor = VirtualStack.build("opencl").hypervisor
    vm = hypervisor.create_vm(vm_id, transport=transport,
                              cache_policy=cache_policy)
    return hypervisor, vm


PAYLOAD = bytes(range(256)) * 16  # 4 KiB, above the default min_bytes


class TestCodec:
    def test_cached_ref_roundtrip(self):
        digest = digest_payload(PAYLOAD)
        command = Command(
            seq=7, vm_id="v", api="opencl", function="clEnqueueWriteBuffer",
            cached_refs={"ptr": [digest, len(PAYLOAD), "buf"]},
        )
        decoded = decode_message(encode_message(command))
        assert decoded.cached_refs == {"ptr": [digest, len(PAYLOAD), "buf"]}

    def test_no_refs_means_no_wire_key(self):
        """An empty refs dict adds zero bytes — cache-off bit identity."""
        with_field = Command(seq=1, vm_id="v", api="a", function="f",
                             cached_refs={})
        without = Command(seq=1, vm_id="v", api="a", function="f")
        assert encode_message(with_field) == encode_message(without)

    @pytest.mark.parametrize("ref", [
        "not-a-list",
        [b"x" * 16],                       # missing size and kind
        [b"", 10, "buf"],                  # empty digest
        [b"x" * 65, 10, "buf"],            # digest too long
        ["nope", 10, "buf"],               # digest not bytes
        [b"x" * 16, -1, "buf"],            # negative size
        [b"x" * 16, True, "buf"],          # bool masquerading as int
        [b"x" * 16, 10, "blob"],           # unknown kind
    ])
    def test_malformed_refs_rejected(self, ref):
        command = Command(seq=1, vm_id="v", api="a", function="f",
                          cached_refs={"p": ref})
        wire = encode_message(command)
        with pytest.raises(CodecError):
            decode_message(wire)

    def test_ref_and_literal_for_same_param_rejected(self):
        command = Command(
            seq=1, vm_id="v", api="a", function="f",
            in_buffers={"p": b"literal"},
            cached_refs={"p": [b"x" * 16, 7, "buf"]},
        )
        with pytest.raises(CodecError):
            decode_message(encode_message(command))

    def test_need_bytes_roundtrip(self):
        digest = digest_payload(PAYLOAD)
        message = NeedBytes(seq=3, missing=[[3, "ptr", digest]],
                            complete_time=1.5e-6)
        decoded = decode_message(encode_message(message))
        assert isinstance(decoded, NeedBytes)
        assert decoded.seq == 3
        assert decoded.missing == [[3, "ptr", digest]]
        assert decoded.complete_time == 1.5e-6

    @pytest.mark.parametrize("missing", [
        [],                                 # a NeedBytes must name misses
        ["oops"],
        [[1, "p"]],                         # truncated entry
        [["one", "p", b"x" * 16]],          # seq not an int
        [[1, 2, b"x" * 16]],                # param not a str
        [[1, "p", "digest"]],               # digest not bytes
    ])
    def test_malformed_need_bytes_rejected(self, missing):
        message = NeedBytes(seq=1, missing=[[1, "p", b"x" * 16]],
                            complete_time=0.0)
        wire = encode_message(message)
        good = NeedBytes(seq=1, missing=missing, complete_time=0.0)
        with pytest.raises(CodecError):
            decode_message(encode_message(good))
        assert decode_message(wire)  # the well-formed one still decodes


class TestCachePolicy:
    def test_defaults_are_armed_and_shared(self):
        policy = CachePolicy()
        assert policy.shared_index
        assert policy.min_bytes <= policy.max_entry_bytes

    @pytest.mark.parametrize("kwargs", [
        {"min_bytes": 0},
        {"max_entry_bytes": 0},
        {"capacity_bytes": 0},
        {"capacity_entries": 0},
        {"min_bytes": 2048, "max_entry_bytes": 1024},
        {"digest_byte_cost": -1.0},
    ])
    def test_bad_policies_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CachePolicy(**kwargs)


class TestTransferStore:
    def make(self, **kwargs):
        defaults = dict(capacity_bytes=1 << 16, capacity_entries=8,
                        min_bytes=16)
        defaults.update(kwargs)
        return TransferStore("vm-t", **defaults)

    @staticmethod
    def put(store, data):
        """Insert ``data``; returns the digest it is stored under."""
        store.insert(data)
        return digest_payload(data)

    def test_insert_computes_digest_itself(self):
        store = self.make()
        kept = store.insert(bytearray(PAYLOAD))
        assert type(kept) is bytes and kept == PAYLOAD
        assert store.get(digest_payload(PAYLOAD)) is kept

    def test_oversize_payload_refused_not_churned(self):
        store = self.make(capacity_bytes=1024)
        store.insert(b"a" * 512)
        assert store.insert(b"b" * 2048) is None
        assert len(store) == 1  # the resident entry survived

    def test_insert_copies_only_what_it_keeps(self):
        """Re-seeded and oversized payloads are digested in place: the
        store copies a payload only when it really inserts it."""
        class Counting(bytearray):
            copies = 0

            def __bytes__(self):
                Counting.copies += 1
                return bytes(memoryview(self))

        store = self.make(capacity_bytes=2 * len(PAYLOAD))
        kept = store.insert(Counting(PAYLOAD))
        assert Counting.copies == 1 and type(kept) is bytes
        assert store.insert(Counting(PAYLOAD)) is kept
        assert store.insert(memoryview(PAYLOAD)) is kept
        assert store.stats.duplicate_inserts == 2
        assert store.insert(Counting(PAYLOAD * 3)) is None
        assert Counting.copies == 1 and store.stats.inserts == 1

    def test_lru_eviction_by_bytes(self):
        store = self.make(capacity_bytes=1024)
        first = self.put(store, b"a" * 512)
        second = self.put(store, b"b" * 512)
        store.get(first)  # refresh: second is now least-recent
        store.insert(b"c" * 512)
        assert store.has(first)
        assert not store.has(second)
        assert store.stats.evictions == 1

    def test_lru_eviction_by_entries(self):
        store = self.make(capacity_entries=2)
        digests = [self.put(store, bytes([i]) * 32) for i in range(3)]
        assert not store.has(digests[0])
        assert store.has(digests[1]) and store.has(digests[2])

    def test_has_does_not_touch_lru_or_counters(self):
        store = self.make(capacity_bytes=1024)
        first = self.put(store, b"a" * 512)
        store.insert(b"b" * 512)
        store.has(first)  # a probe is not a use
        store.insert(b"c" * 512)
        assert not store.has(first)
        assert store.stats.hits == 0 and store.stats.misses == 0

    def test_shed_frees_at_least_requested(self):
        store = self.make()
        for i in range(4):
            store.insert(bytes([i]) * 100)
        freed = store.shed(150)
        assert freed >= 150
        assert store.stats.shed_bytes == freed
        assert len(store) == 2

    def test_clear_bumps_generation(self):
        store = self.make()
        store.insert(PAYLOAD)
        store.clear("worker lost: test")
        assert len(store) == 0
        assert store.bytes_used == 0
        assert store.generation == 1
        assert store.stats.clears == ["worker lost: test"]

    def test_swap_pressure_sheds_the_store(self):
        from types import SimpleNamespace

        from repro.opencl.device import DeviceSpec, SimulatedGPU
        from repro.server.swap import ObjectSwapManager

        store = self.make()
        for i in range(4):
            store.insert(bytes([i]) * 1000)
        manager = ObjectSwapManager()
        store.attach_to_swap(manager)
        gpu = SimulatedGPU(DeviceSpec.small_gpu(mem_bytes=4096))
        # the ledger owner a real buffer finds through its context
        context = SimpleNamespace(session=object())

        class Mem:
            def __init__(self, size):
                self.size = size
                self.last_access = 0.0
                self.resident = False
                self.device = gpu
                self.context = context

        manager.on_alloc(Mem(3000))
        manager.on_alloc(Mem(3000))  # shortfall: listeners notified
        assert store.stats.shed_bytes >= 2000
        assert len(store) < 4


class TestTransferCache:
    def test_shared_index_requires_store(self):
        with pytest.raises(ValueError):
            TransferCache(CachePolicy(shared_index=True))

    def test_eligibility_window(self):
        policy = CachePolicy(min_bytes=1024, max_entry_bytes=4096,
                             shared_index=False)
        cache = TransferCache(policy)
        assert not cache.eligible(1023)
        assert cache.eligible(1024)
        assert cache.eligible(4096)
        assert not cache.eligible(4097)

    def test_local_index_learns_and_forgets(self):
        cache = TransferCache(CachePolicy(shared_index=False, min_bytes=16))
        ref, _, digest = cache.consider("p", PAYLOAD, "buf")
        assert ref is None and digest == digest_payload(PAYLOAD)
        cache.note_delivered(digest, len(PAYLOAD))
        ref, _, _ = cache.consider("p", PAYLOAD, "buf")
        assert isinstance(ref, CachedRef)
        assert ref.digest == digest and ref.kind == "buf"
        cache.forget([digest])
        ref, _, _ = cache.consider("p", PAYLOAD, "buf")
        assert ref is None

    def test_shared_index_probes_the_store(self):
        store = TransferStore("vm-s", capacity_bytes=1 << 16,
                              capacity_entries=8, min_bytes=16)
        cache = TransferCache(CachePolicy(min_bytes=16), store=store)
        ref, _, _ = cache.consider("p", PAYLOAD, "buf")
        assert ref is None  # the store has never seen it
        store.insert(PAYLOAD)
        ref, _, _ = cache.consider("p", PAYLOAD, "buf")
        assert ref is not None and ref.size == len(PAYLOAD)


class TestRouterResolution:
    """Drive the router's resolution pre-pass with hand-built frames."""

    def stack(self):
        return fresh_stack(cache_policy=CachePolicy(min_bytes=64))

    def command(self, vm, digest, size, seq=900):
        return Command(
            seq=seq, vm_id=vm.vm_id, api="opencl",
            function="clEnqueueWriteBuffer",
            cached_refs={"ptr": [digest, size, "buf"]},
        )

    def str_command(self, vm, digest, size):
        """A ref standing in for a program's build options, as a
        cache-armed guest elides a long ``options`` string."""
        return Command(
            seq=900, vm_id=vm.vm_id, api="opencl", function="clBuildProgram",
            cached_refs={"options": [digest, size, "str"]},
        )

    def test_miss_answers_need_bytes_and_executes_nothing(self):
        hypervisor, vm = self.stack()
        digest = digest_payload(PAYLOAD)
        command = self.command(vm, digest, len(PAYLOAD))
        answer = decode_message(hypervisor.router.deliver(
            encode_message(command), arrival=0.0, source=vm.vm_id))
        assert isinstance(answer, NeedBytes)
        assert answer.missing == [[command.seq, "ptr", digest]]
        metrics = hypervisor.router.metrics_for(vm.vm_id)
        assert metrics.xfer_misses == 1
        assert metrics.commands == 0  # nothing was routed

    def test_size_mismatch_is_a_miss_not_stale_bytes(self):
        hypervisor, vm = self.stack()
        store = hypervisor.router.vms[vm.vm_id].store
        store.insert(PAYLOAD)
        digest = digest_payload(PAYLOAD)
        command = self.command(vm, digest, len(PAYLOAD) + 1)
        answer = decode_message(hypervisor.router.deliver(
            encode_message(command), arrival=0.0, source=vm.vm_id))
        assert isinstance(answer, NeedBytes)

    def test_refs_without_armed_store_rejected(self):
        hypervisor, vm = fresh_stack()  # no cache policy, no store
        command = self.command(vm, digest_payload(PAYLOAD), len(PAYLOAD))
        answer = decode_message(hypervisor.router.deliver(
            encode_message(command), arrival=0.0, source=vm.vm_id))
        assert isinstance(answer, Reply)
        assert answer.error and "transfer store" in answer.error

    def test_claimed_size_over_payload_cap_rejected(self):
        hypervisor, vm = self.stack()
        too_big = hypervisor.router.max_payload_bytes + 1
        command = self.command(vm, digest_payload(PAYLOAD), too_big)
        answer = decode_message(hypervisor.router.deliver(
            encode_message(command), arrival=0.0, source=vm.vm_id))
        assert isinstance(answer, Reply)
        assert answer.error

    def test_str_ref_resolves_to_scalar(self):
        hypervisor, vm = self.stack()
        store = hypervisor.router.vms[vm.vm_id].store
        source = "__kernel void k() {}" * 16
        raw = source.encode("utf-8")
        store.insert(raw)
        digest = digest_payload(raw)
        command = self.str_command(vm, digest, len(raw))
        # resolution happens before routing; the routed function will
        # fail (no such handle args) but the scalar must be restored
        seen = []
        worker_execute = hypervisor.worker(vm.vm_id, "opencl").execute

        def execute(command, release, **kwargs):
            seen.append(dict(command.scalars))
            return worker_execute(command, release, **kwargs)

        hypervisor.worker(vm.vm_id, "opencl").execute = execute
        hypervisor.router.deliver(encode_message(command), arrival=0.0,
                                  source=vm.vm_id)
        metrics = hypervisor.router.metrics_for(vm.vm_id)
        assert metrics.xfer_hits == 1
        assert seen == [{"options": source}]

    def test_non_utf8_str_ref_rejected(self):
        hypervisor, vm = self.stack()
        store = hypervisor.router.vms[vm.vm_id].store
        raw = b"\xff\xfe" * 64
        store.insert(raw)
        digest = digest_payload(raw)
        command = self.str_command(vm, digest, len(raw))
        answer = decode_message(hypervisor.router.deliver(
            encode_message(command), arrival=0.0, source=vm.vm_id))
        assert isinstance(answer, Reply)
        assert answer.error

    @pytest.mark.parametrize("ref_first", [False, True],
                             ids=["literal-then-ref", "ref-then-literal"])
    @pytest.mark.parametrize("capacity", [1024, 1],
                             ids=["roomy", "literal-evicts-served"])
    def test_served_ref_refreshed_without_rehash(self, monkeypatch,
                                                 ref_first, capacity):
        import repro.server.xferstore as xferstore

        hypervisor, vm = fresh_stack(cache_policy=CachePolicy(
            min_bytes=64, capacity_entries=capacity))
        store = hypervisor.router.vms[vm.vm_id].store
        served, literal, other = (bytes([i]) * 4096 for i in (1, 2, 3))
        # what the store held before the frame, oldest first
        held = [served, other][:capacity]
        for payload in held:
            store.insert(payload)
        frame = [
            Command(seq=901, vm_id=vm.vm_id, api="opencl",
                    function="clEnqueueWriteBuffer",
                    in_buffers={"ptr": literal}),
            self.command(vm, digest_payload(served), len(served), seq=902),
        ]
        if ref_first:
            frame.reverse()
        # the old resolution, replayed on a twin store: serve the ref,
        # then hash and re-insert every payload of the frame in order
        twin = TransferStore(vm.vm_id, store.capacity_bytes,
                             store.capacity_entries, store.min_bytes,
                             store.max_entry_bytes)
        for payload in held:
            twin.insert(payload)
        twin.get(digest_payload(served))
        for command in frame:
            twin.insert(command.in_buffers.get("ptr", served))

        hashed = []

        def counting_digest(data):
            hashed.append(bytes(data))
            return digest_payload(data)

        monkeypatch.setattr(xferstore, "digest_payload", counting_digest)
        hypervisor.router.deliver(
            encode_message(CommandBatch(vm_id=vm.vm_id, commands=frame)),
            arrival=0.0, source=vm.vm_id)
        assert hypervisor.router.metrics_for(vm.vm_id).xfer_hits == 1
        assert hashed == [literal]
        assert list(store._entries) == list(twin._entries)
        assert store.stats == twin.stats

    def test_router_seeds_store_from_full_payloads(self):
        hypervisor, vm = self.stack()
        env = open_env(vm.library("opencl"))
        data = np.arange(4096, dtype=np.uint8)
        buffer = env.buffer(data.nbytes)
        env.write(buffer, data)
        store = hypervisor.router.vms[vm.vm_id].store
        assert store.has(digest_payload(data.tobytes()))


class TestEndToEnd:
    def test_shared_index_workload_elides_and_verifies(self):
        hypervisor, vm = fresh_stack(cache_policy=CachePolicy(min_bytes=64))
        env = open_env(vm.library("opencl"))
        data = np.arange(8192, dtype=np.uint8)
        buffer = env.buffer(data.nbytes)
        for _ in range(4):
            env.write(buffer, data)
        got = env.read(buffer, data.nbytes, dtype=np.uint8)
        assert bytes(got) == data.tobytes()
        metrics = hypervisor.router.metrics_for(vm.vm_id)
        assert metrics.xfer_hits == 3  # first send seeds, rest hit
        assert metrics.xfer_misses == 0
        assert metrics.xfer_bytes_elided == 3 * data.nbytes

    def test_local_index_heals_across_worker_restart(self):
        policy = CachePolicy(shared_index=False, min_bytes=64)
        hypervisor, vm = fresh_stack(cache_policy=policy)
        env = open_env(vm.library("opencl"))
        data = np.arange(4096, dtype=np.uint8)
        buffer = env.buffer(data.nbytes)
        env.write(buffer, data)
        env.write(buffer, data)
        cache = vm.xfer_cache
        assert cache.elided_payloads == 1 and cache.retransmits == 0

        hypervisor._on_worker_lost(vm.vm_id, "opencl", "test kill")
        hypervisor.restart_worker(vm.vm_id, "opencl")
        env = open_env(vm.library("opencl"))
        buffer = env.buffer(data.nbytes)
        # the guest still believes the digest is known: the ref misses
        # (the fresh store is empty) and heals via one retransmission
        env.write(buffer, data)
        assert cache.retransmits == 1
        got = env.read(buffer, data.nbytes, dtype=np.uint8)
        assert bytes(got) == data.tobytes()
        # the heal re-learned the digest: the next send hits again
        env.write(buffer, data)
        assert hypervisor.router.metrics_for(vm.vm_id).xfer_hits >= 2

    def test_staged_elided_write_resends_the_call_time_bytes(self):
        """The original kept for a NeedBytes resend is the payload as
        of the call, not a view of the caller's (since overwritten)
        array."""
        from repro.guest.batching import BatchPolicy

        hypervisor = VirtualStack.build("opencl").hypervisor
        vm = hypervisor.create_vm("v1", batch_policy=BatchPolicy(),
                                  cache_policy=CachePolicy())
        env = open_env(vm.library("opencl"))
        data = np.arange(8192, dtype=np.uint16).view(np.uint8)
        buffer = env.buffer(data.nbytes)
        env.write(buffer, data)                   # seeds the store
        env.write(buffer, np.zeros_like(data))
        as_of_call = data.copy()
        env.write(buffer, data, blocking=False)   # staged as a ref
        (staged,) = vm.runtime("opencl")._queue
        assert staged.command.cached_refs and staged.elided
        hypervisor.router.vms[vm.vm_id].store.clear("test")  # the ref misses
        data[:] = 0xEE
        vm.flush()
        assert vm.xfer_cache.retransmits == 1
        got = env.read(buffer, data.nbytes, dtype=np.uint8)
        assert np.array_equal(got, as_of_call)

    def test_resent_build_is_the_frame_an_uncached_build_sends(self):
        """A NeedBytes resend puts an elided ``options`` string back
        where the stub put it — before ``pfn_notify`` — so the resent
        frame is the uncached call's, byte for byte (the issue time
        aside: the cached guest's clock also paid for digests)."""
        from dataclasses import replace

        options = "-D WIDTH=64 " * 16  # long enough to be elided
        last = {}
        for label, policy in (("uncached", None), ("cached", CachePolicy(
                shared_index=False, min_bytes=64))):
            hypervisor, vm = fresh_stack(cache_policy=policy)
            env = open_env(vm.library("opencl"))
            program = env.program(
                "__kernel void vector_add(__global float* a, __global "
                "float* b, __global float* c, int n) {}")
            deliver = hypervisor.router.deliver
            frames = []

            def capture(wire, arrival, source=None, deliver=deliver,
                        frames=frames):
                frames.append(bytes(wire))
                return deliver(wire, arrival, source=source)

            hypervisor.router.deliver = capture
            assert env.cl.clBuildProgram(program, 0, None, options,
                                         None, None) == 0
            if policy is not None:
                # the guest learned the digest and now elides options:
                # empty the store so the ref misses
                hypervisor.router.vms[vm.vm_id].store.clear("test")
            assert env.cl.clBuildProgram(program, 0, None, options,
                                         None, None) == 0
            last[label] = decode_message(frames[-1])
        assert vm.xfer_cache.retransmits == 1
        resent, uncached = last["cached"], last["uncached"]
        assert list(resent.scalars) == ["num_devices", "options",
                                        "pfn_notify"]
        assert encode_message(resent) == encode_message(
            replace(uncached, issue_time=resent.issue_time))

    def test_second_need_bytes_surfaces_typed_error(self):
        from repro.remoting.codec import NeedBytes as NB
        from repro.transport.base import DeliveryResult

        policy = CachePolicy(shared_index=False, min_bytes=64)
        hypervisor, vm = fresh_stack(cache_policy=policy)
        env = open_env(vm.library("opencl"))
        data = np.arange(4096, dtype=np.uint8)
        buffer = env.buffer(data.nbytes)
        env.write(buffer, data)
        env.write(buffer, data)  # digest learned, next send elides

        inner = vm.driver.transport

        class AlwaysNeedBytes:
            def __getattr__(self, name):
                return getattr(inner, name)

            def deliver(self, command, guest_now, asynchronous=False):
                needed = NB(seq=command.seq,
                            missing=[[command.seq, "ptr", b"x" * 16]],
                            complete_time=guest_now + 1e-6)
                return DeliveryResult(
                    [], sent_at=guest_now, completed_at=needed.complete_time,
                    need_bytes=needed,
                )

        vm.driver.transport = AlwaysNeedBytes()
        try:
            with pytest.raises(RemotingError,
                               match="NeedBytes again"):
                env.write(buffer, data)
        finally:
            vm.driver.transport = inner

    def test_admin_report_exposes_store_only_when_armed(self):
        hypervisor, vm = fresh_stack(cache_policy=CachePolicy(min_bytes=64))
        plain = hypervisor.create_vm("v-plain")
        env = open_env(vm.library("opencl"))
        data = np.arange(4096, dtype=np.uint8)
        buffer = env.buffer(data.nbytes)
        env.write(buffer, data)
        env.write(buffer, data)
        report = hypervisor.admin_report()
        assert report[vm.vm_id]["xfer"]["hits"] == 1
        assert report[vm.vm_id]["xfer"]["store"]["entries"] >= 1
        assert "xfer" not in report[plain.vm_id]

    def test_registry_absorbs_xfer_counters(self):
        # the router's VM record is the one live store: the admin report
        # renders it, it does not copy it
        hypervisor, vm = fresh_stack(cache_policy=CachePolicy(min_bytes=64))
        env = open_env(vm.library("opencl"))
        data = np.arange(4096, dtype=np.uint8)
        buffer = env.buffer(data.nbytes)
        env.write(buffer, data)
        env.write(buffer, data)
        metrics = hypervisor.router.metrics_for(vm.vm_id)
        xfer = hypervisor.admin_report()[vm.vm_id]["xfer"]
        assert (xfer["hits"], xfer["misses"], xfer["bytes_elided"]) == (
            metrics.xfer_hits, metrics.xfer_misses,
            metrics.xfer_bytes_elided)
        assert metrics.xfer_hits == 1
        assert metrics.xfer_bytes_elided == data.nbytes

    def test_hit_and_miss_spans_recorded(self):
        from repro.telemetry import Tracer
        from repro.telemetry import tracer as tele

        policy = CachePolicy(shared_index=False, min_bytes=64)
        hypervisor, vm = fresh_stack(cache_policy=policy)
        env = open_env(vm.library("opencl"))
        data = np.arange(4096, dtype=np.uint8)
        buffer = env.buffer(data.nbytes)
        tracer = Tracer()
        with tele.use(tracer):
            env.write(buffer, data)
            env.write(buffer, data)       # hit
            hypervisor.router.vms[vm.vm_id].store.clear("test")
            env.write(buffer, data)       # miss + retransmit
        names = {span.name for span in tracer.spans}
        assert "xfer.hit" in names
        assert "xfer.miss" in names
        assert "xfer.retransmit" in names
