"""One router record per live VM.

The channel a frame arrives on says which VM sent it, so a command
naming another VM is refused and billed to nobody; ``destroy_vm``
forgets the VM whole, so churn leaves nothing behind and a recycled id
starts from zero.
"""

from itertools import chain

import numpy as np
import pytest

from repro.analysis import sanitizer as _sanitize
from repro.hypervisor.policy import ResourcePolicy, VMPolicy
from repro.hypervisor.pool import DeviceClass
from repro.remoting.codec import CommandBatch
from repro.stack import VirtualStack
from repro.telemetry.slo import SLOMonitor, SLOTarget
from repro.workloads.base import open_env


def capture(vm):
    """The list every command ``vm``'s channel forwards is appended to
    (the commands still cross)."""
    sent = []
    transport = vm.driver.transport
    deliver = transport.deliver

    def record(command, guest_now, asynchronous=False):
        sent.append(command)
        return deliver(command, guest_now, asynchronous)

    transport.deliver = record
    return sent


def platform_ids(vm):
    vm.library("opencl").clGetPlatformIDs(1, [None], None)


class TestChannelAttestation:
    """A frame carries its VM's id, but the channel attests it."""

    def two_vms(self):
        hv = VirtualStack.build("opencl").hypervisor
        return hv, hv.create_vm("vm0"), hv.create_vm("vm1")

    def test_command_naming_another_vm_is_refused(self):
        hv, vm0, vm1 = self.two_vms()
        sent = capture(vm1)
        platform_ids(vm1)
        result = vm0.driver.transport.deliver(sent[-1], vm0.clock.now)
        [reply] = result.replies
        assert "frame names VM 'vm1', sent by 'vm0'" in reply.error
        router = hv.router
        assert [router.metrics_for(vm).commands
                for vm in ("vm0", "vm1")] == [0, 1]
        assert [router.metrics_for(vm).rejected
                for vm in ("vm0", "vm1")] == [0, 0]
        # a forgery is a malformed frame, struck against its sender
        assert router.malformed_frames == 1
        assert [len(router.vms[vm].strikes)
                for vm in ("vm0", "vm1")] == [1, 0]

    def test_inner_command_naming_another_vm_refuses_the_batch(self):
        hv, vm0, vm1 = self.two_vms()
        own, other = capture(vm0), capture(vm1)
        platform_ids(vm0)
        platform_ids(vm1)
        batch = CommandBatch(vm_id="vm0", commands=[own[-1], other[-1]],
                             flush_time=vm0.clock.now)
        result = vm0.driver.transport.deliver_batch(batch, vm0.clock.now)
        assert result.replies == []
        assert "frame names VM 'vm1', sent by 'vm0'" in result.error
        # nothing ran, not even the sender's own command
        router = hv.router
        assert [router.metrics_for(vm).commands
                for vm in ("vm0", "vm1")] == [1, 1]
        assert router.malformed_frames == 1
        assert len(router.vms["vm0"].strikes) == 1


@pytest.fixture()
def sanitizer():
    """A fresh armed sanitizer; the one armed before comes back after."""
    previous = _sanitize.active()
    yield _sanitize.install(_sanitize.Sanitizer())
    if previous.enabled:
        _sanitize.install(previous)
    else:
        _sanitize.uninstall()


def observed_stack(policy):
    """An opencl hypervisor under ``policy`` with an SLO monitor
    watching every VM."""
    hv = VirtualStack.build("opencl", policy=policy).hypervisor
    hv.install_slo(SLOMonitor([SLOTarget("all")]))
    return hv


def _keys(obj):
    """Every key of every dict or set attribute of ``obj``."""
    for value in vars(obj).values():
        if isinstance(value, (dict, set)):
            yield from value


class TestVMLifecycle:

    def test_churn_leaves_no_per_vm_state(self, sanitizer):
        policy = ResourcePolicy(
            default=VMPolicy(command_rate=1e6, command_burst=1))
        hv = observed_stack(policy)
        monitor = hv.router.slo_monitor
        for index in range(500):
            vm_id = f"churn-{index}"
            platform_ids(hv.create_vm(vm_id))
            hv.destroy_vm(vm_id)
        left = [key for key in chain(_keys(hv.router), _keys(monitor),
                                     _keys(sanitizer),
                                     hv.workers, hv.lost_workers)
                if "churn" in str(key)]
        assert left == []
        # a destroyed VM is gone from the admin surface
        report = hv.admin_report()
        assert "churn-0" not in report
        assert report["_slo"]["targets"] == []
        with pytest.raises(KeyError):
            hv.router.metrics_for("churn-0")

    def test_recycled_id_starts_from_zero(self, sanitizer):
        policy = ResourcePolicy()
        policy.set_policy("vm-r",
                          VMPolicy(command_rate=1e3, command_burst=2))
        hv = observed_stack(policy)
        env = open_env(hv.create_vm("vm-r").library("opencl"))
        data = np.arange(256, dtype=np.float32)
        env.write(env.buffer(data.nbytes), data)
        old = hv.router.metrics_for("vm-r")
        assert old.commands and old.resources and old.rate_delay > 0
        # the predecessor's worker dies and is never restarted
        hv._on_worker_lost("vm-r", "opencl", "induced crash")
        hv.destroy_vm("vm-r")

        again = hv.create_vm("vm-r")
        state = hv.router.metrics_for("vm-r")
        assert (state.commands, state.resources) == (0, {})
        assert state.bucket.tokens is None
        # a working first call, released at once by a full bucket
        platform_ids(again)
        assert (state.commands, state.server_lost) == (1, 0)
        assert state.rate_delay == 0.0
        # a program order of its own, and an SLO row of its own
        assert sanitizer.summary()["duplicates"] == 0
        [row] = hv.admin_report()["_slo"]["targets"]
        assert (row["vm"], row["total"]) == ("vm-r", 1)

    def test_recycled_id_inherits_no_migrations(self):
        hv = VirtualStack.build("opencl").hypervisor
        hv.add_device(DeviceClass.baseline_gpu(), "dev-a")
        hv.add_device(DeviceClass.baseline_gpu(), "dev-b")
        platform_ids(hv.create_vm("vm0"))
        assert not hv.live_migrate_vm("vm0", "opencl").aborted
        assert hv.admin_report()["vm0"]["migration"]["count"] == 1
        hv.destroy_vm("vm0")

        platform_ids(hv.create_vm("vm0"))
        report = hv.admin_report()
        assert "migration" not in report["vm0"]
        # the fleet totals still count the predecessor's migration
        assert report["_migration"]["count"] == 1
        assert len(hv.migrations) == 1

    def test_recycled_id_passes_the_order_check(self, sanitizer):
        hv = VirtualStack.build("opencl").hypervisor
        env = open_env(hv.create_vm("vm-r").library("opencl"))
        for _ in range(3000):
            env.cl.clFinish(env.queue)
        hv.destroy_vm("vm-r")
        # seq 1 again: no predecessor's order to fall behind
        platform_ids(hv.create_vm("vm-r"))
        assert sanitizer.violations == []
