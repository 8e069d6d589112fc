"""Unit tests for the guest invocation runtime and driver."""

import pytest

from repro.guest.driver import GuestDriver
from repro.guest.library import GuestRuntime, RemotingError
from repro.remoting.buffers import OutBox
from repro.remoting.codec import Reply
from repro.transport.base import DeliveryResult


class ScriptedTransport:
    """Transport double returning pre-programmed replies."""

    def __init__(self, replies=None):
        self.replies = list(replies or [])
        self.sent = []
        self.async_flags = []

    def deliver(self, command, guest_now, asynchronous=False):
        self.sent.append(command)
        self.async_flags.append(asynchronous)
        reply = (self.replies.pop(0) if self.replies
                 else Reply(seq=command.seq, return_value=0))
        return DeliveryResult(
            replies=[reply],
            sent_at=guest_now + 1e-6,
            completed_at=guest_now + 5e-6,
            reply_cost=1e-6,
        )


def make_runtime(replies=None):
    transport = ScriptedTransport(replies)
    driver = GuestDriver("vm-t", transport)
    return GuestRuntime(driver, "testapi"), transport, driver


def submit(runtime, mode="sync", out_targets=None, ret_kind="scalar",
           **kwargs):
    return runtime.submit(
        "fn", mode,
        kwargs.get("scalars", {}),
        kwargs.get("handles", {}),
        kwargs.get("in_buffers", {}),
        kwargs.get("out_sizes", {}),
        out_targets or {},
        ret_kind=ret_kind,
        success=0,
    )


class TestDriver:
    def test_sequence_numbers_increase(self):
        runtime, transport, driver = make_runtime()
        submit(runtime)
        submit(runtime)
        assert transport.sent[0].seq < transport.sent[1].seq

    def test_closed_driver_rejects(self):
        runtime, _, driver = make_runtime()
        driver.close()
        with pytest.raises(RuntimeError):
            submit(runtime)

    def test_commands_stamped_with_vm_and_api(self):
        runtime, transport, _ = make_runtime()
        submit(runtime)
        assert transport.sent[0].vm_id == "vm-t"
        assert transport.sent[0].api == "testapi"


class TestSyncPath:
    def test_return_value_passed_through(self):
        runtime, _, _ = make_runtime([Reply(seq=1, return_value=-30)])
        assert submit(runtime) == -30

    def test_clock_waits_for_completion(self):
        runtime, _, driver = make_runtime()
        submit(runtime)
        assert driver.clock.now > 5e-6  # completed_at + reply costs

    def test_out_buffer_written(self):
        reply = Reply(seq=1, return_value=0, out_payloads={"p": b"\x09" * 4})
        runtime, _, _ = make_runtime([reply])
        target = bytearray(4)
        submit(runtime, out_targets={"p": ("buffer", target)})
        assert target == b"\x09" * 4

    def test_scalar_box_written(self):
        reply = Reply(seq=1, return_value=0, out_scalars={"n": 42})
        runtime, _, _ = make_runtime([reply])
        box = OutBox()
        submit(runtime, out_targets={"n": ("scalar_box", box)})
        assert box.value == 42

    def test_handle_box_written(self):
        reply = Reply(seq=1, return_value=0, new_handles={"h": 0x77})
        runtime, _, _ = make_runtime([reply])
        box = OutBox()
        submit(runtime, out_targets={"h": ("handle_box", box)})
        assert box.value == 0x77

    def test_handle_array_written(self):
        reply = Reply(seq=1, return_value=0, new_handles={"hs": [5, 6]})
        runtime, _, _ = make_runtime([reply])
        target = [None, None]
        submit(runtime, out_targets={"hs": ("handle_array", target)})
        assert target == [5, 6]

    def test_handle_return(self):
        reply = Reply(seq=1, new_handles={"__ret__": 0x55})
        runtime, _, _ = make_runtime([reply])
        assert submit(runtime, ret_kind="handle") == 0x55

    def test_none_handle_return(self):
        runtime, _, _ = make_runtime([Reply(seq=1)])
        assert submit(runtime, ret_kind="handle") is None

    def test_server_error_raises(self):
        runtime, _, _ = make_runtime([Reply(seq=1, error="worker: boom")])
        with pytest.raises(RemotingError, match="boom"):
            submit(runtime)

    def test_unknown_out_kind_rejected(self):
        reply = Reply(seq=1, return_value=0, out_payloads={"p": b"x"})
        runtime, _, _ = make_runtime([reply])
        with pytest.raises(RemotingError):
            submit(runtime, out_targets={"p": ("teleport", bytearray(1))})


class TestAsyncPath:
    def test_returns_success_immediately(self):
        runtime, _, _ = make_runtime([Reply(seq=1, return_value=-5)])
        assert submit(runtime, mode="async") == 0

    def test_clock_only_pays_send(self):
        runtime, _, driver = make_runtime()
        submit(runtime, mode="async")
        # marshal + enqueue only — far less than completed_at
        assert driver.clock.now < 5e-6

    def test_transport_told_async(self):
        runtime, transport, _ = make_runtime()
        submit(runtime, mode="async")
        assert transport.async_flags == [True]

    def test_error_deferred_to_next_sync_call(self):
        runtime, _, _ = make_runtime([
            Reply(seq=1, return_value=-48),  # async failure
            Reply(seq=2, return_value=0),    # next sync call succeeds
        ])
        assert submit(runtime, mode="async") == 0
        assert submit(runtime, mode="sync") == -48

    def test_deferred_error_delivered_once(self):
        runtime, _, _ = make_runtime([
            Reply(seq=1, return_value=-48),
            Reply(seq=2, return_value=0),
            Reply(seq=3, return_value=0),
        ])
        submit(runtime, mode="async")
        assert submit(runtime) == -48
        assert submit(runtime) == 0

    def test_sync_failure_not_masked_by_deferred(self):
        runtime, _, _ = make_runtime([
            Reply(seq=1, return_value=-48),
            Reply(seq=2, return_value=-30),
        ])
        submit(runtime, mode="async")
        # the sync call's own error wins; deferred error is dropped
        assert submit(runtime) == -30

    def test_counters(self):
        runtime, _, _ = make_runtime()
        submit(runtime, mode="async")
        submit(runtime, mode="sync")
        assert runtime.calls_async == 1
        assert runtime.calls_sync == 1


class TestHelpers:
    def test_handle_list_truncates_to_count(self):
        assert GuestRuntime.handle_list([1, 2, 3], 2) == [1, 2]

    def test_handle_list_none(self):
        assert GuestRuntime.handle_list(None) is None

    def test_handle_list_null_entries(self):
        assert GuestRuntime.handle_list([1, None, 3]) == [1, 0, 3]

    def test_handle_list_rejects_objects(self):
        with pytest.raises(RemotingError):
            GuestRuntime.handle_list([object()])

    def test_read_buffer_size_check(self):
        with pytest.raises(RemotingError):
            GuestRuntime.read_buffer(b"ab", 4, "p")

    def test_read_buffer_negative_size(self):
        with pytest.raises(RemotingError):
            GuestRuntime.read_buffer(b"ab", -1, "p")
