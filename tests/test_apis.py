"""Conformance of every registered API descriptor (:data:`repro.apis.APIS`).

Each shipped API is described once, by an :class:`ApiPlugin`; these
tests hold each descriptor to what the stack assumes of it: the native
module answers every generated dispatch name, the session class is a
:class:`~repro.native.NativeSession` with a stack of its own, a worker
binds it, its device is the one simulated device model, pooled APIs
share a pool member's native device, and the registry keeps the
optional API packages lazy.
"""

import dataclasses
import importlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.apis import APIS, resolve
from repro.hypervisor.pool import DeviceClass
from repro.native import NativeSession, SimulatedDevice
from repro.opencl.errors import CLError
from repro.remoting.buffers import OutBox
from repro.stack import VirtualStack, build_stack

POOLED = [name for name, plugin in APIS.items() if plugin.pooled]
PRIVATE = [name for name, plugin in APIS.items() if not plugin.pooled]


@pytest.mark.parametrize("api", list(APIS))
def test_dispatch_names_exist_on_native_module(api):
    native = importlib.import_module(APIS[api].native_module)
    dispatch = build_stack(api).dispatch()
    assert dispatch
    missing = [name for name in dispatch
               if not callable(getattr(native, name, None))]
    assert missing == []


@pytest.mark.parametrize("api", list(APIS))
class TestNativeSession:
    """The session plumbing every API shares."""

    def test_subclass_with_a_stack_of_its_own(self, api):
        session_class = resolve(APIS[api].session)
        assert issubclass(session_class, NativeSession)
        assert "stack" in vars(session_class)
        others = [resolve(APIS[name].session).stack
                  for name in APIS if name != api]
        assert all(stack is not session_class.stack for stack in others)

    def test_opened_with_no_devices_opens_one_default_device(self, api):
        session_class = resolve(APIS[api].session)
        with session_class.opened() as sess:
            [device] = sess.devices
            assert type(device) is session_class.device
            assert sess.clock.name == session_class.clock_name

    def test_nested_blocks_restore_the_outer_session(self, api):
        session_class = resolve(APIS[api].session)
        with session_class.opened() as outer:
            with session_class.opened() as inner:
                assert session_class.current() is inner
            assert session_class.current() is outer
            with pytest.raises(KeyError):
                with session_class.opened():
                    raise KeyError("raised inside the block")
            assert session_class.current() is outer
        assert session_class.stack == []

    def test_enter_charges_exactly_one_call_overhead(self, api):
        session_class = resolve(APIS[api].session)
        with session_class.opened() as sess:
            assert session_class.current() is sess
            assert sess.clock.accounts() == {}
            assert session_class.enter() is sess
            assert sess.clock.accounts() == {
                "api_call": session_class.call_overhead}

    def test_nothing_open_raises(self, api):
        session_class = resolve(APIS[api].session)
        assert session_class.stack == []
        for ask in (session_class.current, session_class.enter):
            with pytest.raises(RuntimeError, match="opened"):
                ask()


@pytest.mark.parametrize("api", list(APIS))
class TestDeviceConformance:
    """Every API's device is one :class:`~repro.native.SimulatedDevice`:
    the same in-order timeline and the same owner-keyed ledger."""

    def device(self, api, **spec_fields):
        device_class = resolve(APIS[api].session).device
        assert issubclass(device_class, SimulatedDevice)
        spec = dataclasses.replace(device_class.spec_class(), **spec_fields)
        return device_class(spec=spec)

    def test_in_order_placement_and_not_before(self, api):
        device = self.device(api)
        first = device.occupy(1.0, 0.0, "op")
        second = device.occupy(1.0, 0.0, "op")
        assert (first.start, first.end) == (0.0, 1.0)
        assert (second.start, second.end) == (1.0, 2.0)
        late = device.occupy(0.5, 5.0, "op")
        assert (late.start, late.end) == (5.0, 5.5)
        assert device.timeline == 5.5
        assert device.op_counts == {"op": 3}
        with pytest.raises(ValueError):
            device.occupy(-1.0, 0.0)

    def test_busy_time_and_utilization_agree(self, api):
        device = self.device(api)
        assert device.utilization() == 0.0
        device.occupy(1.0, 0.0)
        device.occupy(2.0, 3.0)
        assert device.busy_time == 3.0
        assert device.utilization() == device.busy_time / device.timeline
        assert device.utilization(horizon=6.0) == 0.5

    def test_ledger_balances_per_owner(self, api):
        device = self.device(api)
        app_a, app_b = object(), object()
        device.allocate(app_a, 300)
        device.allocate(app_b, 200)
        device.allocate(app_a, 100)
        device.held(app_b).opened = True
        assert device.allocated_bytes == 600
        device.free(app_a, 300)
        with pytest.raises(ValueError):
            device.free(app_b, 201)
        device.release_owner(app_a)
        assert device.allocated_bytes == 200
        device.release_owner(app_b)
        device.release_owner(app_b)  # a second close is a no-op
        assert device.allocated_bytes == 0 and device.holders == {}

    def test_closing_a_session_releases_its_entry(self, api):
        session_class = resolve(APIS[api].session)
        device = self.device(api)
        with session_class.opened([device]) as sess:
            device.allocate(sess, 64)
            device.held(sess).opened = True
        assert device.allocated_bytes == 0 and device.holders == {}

    def test_exhaustion_raises_the_api_error(self, api):
        device_class = resolve(APIS[api].session).device
        if device_class.memory_field is None:
            assert device_class().capacity == math.inf
            return
        device = self.device(api, **{device_class.memory_field: 64})
        if api == "mvnc":
            self.assert_mvnc_out_of_memory(device)
            return
        owner = object()
        device.allocate(owner, 64)
        with pytest.raises(CLError):
            device.allocate(owner, 1)
        assert device.allocated_bytes == 64

    @staticmethod
    def assert_mvnc_out_of_memory(stick):
        from repro.mvnc import api as mvnc
        from repro.mvnc.graph import DENSE, GraphDefinition, Layer

        blob = GraphDefinition(
            name="dense", input_shape=(4,),
            layers=[Layer(DENSE, {}, {
                "w": np.ones((4, 4), dtype=np.float16),
                "b": np.zeros(4, dtype=np.float16)})],
        ).serialize()
        assert len(blob) > 64
        with mvnc.NCSSession.opened([stick]):
            device = OutBox()
            assert mvnc.mvncOpenDevice(None, device) == mvnc.MVNC_OK
            assert mvnc.mvncAllocateGraph(device.value, OutBox(), blob,
                                          len(blob)) == \
                mvnc.MVNC_OUT_OF_MEMORY
        assert stick.allocated_bytes == 0


@pytest.mark.parametrize("api", list(APIS))
def test_worker_binds_the_descriptor_session(api):
    plugin = APIS[api]
    hv = VirtualStack.build(api).hypervisor
    hv.create_vm("vm-a")
    hv.create_vm("vm-b")
    session_a = hv.worker("vm-a", api).native_session
    session_b = hv.worker("vm-b", api).native_session
    assert type(session_a) is resolve(plugin.session)
    # unpooled, each worker gets a private device of the descriptor's class
    assert session_a.devices[0] is not session_b.devices[0]


def _pooled(api):
    hv = VirtualStack.build(api).hypervisor
    member = hv.add_device(DeviceClass.baseline_gpu())
    devices = []
    for vm_id in ("vm-a", "vm-b"):
        hv.create_vm(vm_id)
        worker = hv.worker(vm_id, api)
        assert worker.pool_device is member
        devices.append(worker.native_session.devices[0])
    return member, devices


@pytest.mark.parametrize("api", POOLED)
def test_coplaced_workers_share_the_member_device(api):
    member, (dev_a, dev_b) = _pooled(api)
    assert dev_a is dev_b is member.native_device(api)


@pytest.mark.parametrize("api", PRIVATE)
def test_unpooled_api_keeps_private_devices_on_a_pool(api):
    member, (dev_a, dev_b) = _pooled(api)
    assert dev_a is not dev_b
    with pytest.raises(ValueError, match="no pooled device"):
        member.native_device(api)


def test_shared_device_factory_consolidates():
    device = resolve(APIS["mvnc"].session).device()
    hv = VirtualStack.build(
        "mvnc", devices={"mvnc": lambda: device}).hypervisor
    for vm_id in ("vm-a", "vm-b"):
        hv.create_vm(vm_id)
        assert hv.worker(vm_id, "mvnc").native_session.devices == [device]


def test_import_keeps_optional_apis_lazy():
    """``import repro.stack`` pulls in no QAT, TPU or Python-front-end
    code: the registry names them by string, so set-up time does not
    pay for APIs a stack does not build."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    lazy = ("repro.qat", "repro.tpu", "repro.codegen.pyfront")
    code = ("import sys, repro.stack; "
            f"print([m for m in {lazy!r} if m in sys.modules])")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
