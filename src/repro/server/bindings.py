"""Native-session binders: how workers enter the accelerator silo.

A worker executes generated server stubs that call the native API
(:mod:`repro.opencl.api` or :mod:`repro.mvnc.api`).  Those APIs resolve
state through a session stack; each worker needs *one persistent
session* (its objects — contexts, queues, graphs — live across
commands) that is pushed around every dispatched command.  The binders
here create that session lazily, bound to the worker's clock and handle
table, and optionally with AvA's swap memory-manager installed.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.opencl.device import SimulatedGPU
from repro.opencl.runtime import MemoryManager, Session
from repro.opencl.runtime import _SESSION_STACK as _CL_STACK
from repro.mvnc.api import NCSSession, _SESSION_STACK as _NCS_STACK
from repro.mvnc.device import SimulatedNCS
from repro.server.api_server import ApiServerWorker, SessionScope


def _pool_devices(worker: ApiServerWorker, api: str) -> Optional[List]:
    """Devices from the worker's pool placement, if the hypervisor
    assigned one.  Workers co-placed on the same pool member share its
    native device (one timeline), which is what makes cross-VM
    contention on a pool member real."""
    member = getattr(worker, "pool_device", None)
    if member is None:
        return None
    return [member.native_device(api)]


def opencl_session_binder(
    devices_factory: Callable[[], List[SimulatedGPU]],
    memory_manager_factory: Optional[Callable[[], MemoryManager]] = None,
) -> Callable[[ApiServerWorker], SessionScope]:
    """Binder for OpenCL workers.

    ``devices_factory`` is called once per worker, so each worker can get
    a dedicated simulated GPU (the measurement configuration) or share
    one list across workers (the consolidation configuration).  A worker
    bound to a :class:`~repro.hypervisor.pool.PooledDevice` uses that
    member's native GPU instead.
    """

    def bind(worker: ApiServerWorker) -> SessionScope:
        session = Session(
            devices=_pool_devices(worker, "opencl") or devices_factory(),
            clock=worker.clock,
            handle_resolver=worker.handles.lookup,
            memory_manager=(
                memory_manager_factory() if memory_manager_factory
                else MemoryManager()
            ),
        )
        worker.native_session = session  # introspection for tests/migration
        return SessionScope(session, _CL_STACK)

    return bind


def mvnc_session_binder(
    devices_factory: Callable[[], List[SimulatedNCS]],
) -> Callable[[ApiServerWorker], SessionScope]:
    """Binder for MVNC workers (one persistent NCS session per worker)."""

    def bind(worker: ApiServerWorker) -> SessionScope:
        session = NCSSession(
            devices=_pool_devices(worker, "mvnc") or devices_factory(),
            clock=worker.clock,
        )
        worker.native_session = session
        return SessionScope(session, _NCS_STACK)

    return bind


def qat_session_binder(
    devices_factory: Callable[[], List],
) -> Callable[[ApiServerWorker], SessionScope]:
    """Binder for QuickAssist workers (one persistent QAT session)."""
    from repro.qat.api import QATSession, _SESSION_STACK as _QAT_STACK

    def bind(worker: ApiServerWorker) -> SessionScope:
        session = QATSession(
            devices=_pool_devices(worker, "qat") or devices_factory(),
            clock=worker.clock,
        )
        worker.native_session = session
        return SessionScope(session, _QAT_STACK)

    return bind


def tpu_session_binder(
    devices_factory: Callable[[], List],
) -> Callable[[ApiServerWorker], SessionScope]:
    """Binder for TPU workers (one persistent TPU session)."""
    from repro.tpu.api import TPUSession, _SESSION_STACK as _TPU_STACK

    def bind(worker: ApiServerWorker) -> SessionScope:
        session = TPUSession(devices=devices_factory(), clock=worker.clock)
        worker.native_session = session
        return SessionScope(session, _TPU_STACK)

    return bind


def shared_devices(devices: Sequence) -> Callable[[], List]:
    """A devices_factory that shares one device list across workers."""
    frozen = list(devices)

    def factory() -> List:
        return frozen

    return factory


def private_device(device_factory: Callable[[], object]) -> Callable[[], List]:
    """A devices_factory giving each worker its own fresh device."""

    def factory() -> List:
        return [device_factory()]

    return factory
