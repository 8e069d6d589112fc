"""The native-session binder: how workers enter the accelerator silo.

A worker executes generated server stubs that call the native API (the
``native_module`` of its :class:`~repro.apis.ApiPlugin`).  That API
resolves state through its :class:`~repro.native.NativeSession` stack;
each worker needs *one persistent session* (its objects — contexts,
queues, graphs — live across commands) that is pushed around every
dispatched command.  The binder here creates that session lazily, bound
to the worker's clock, for any API the registry describes.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.apis import ApiPlugin, resolve
from repro.server.api_server import ApiServerWorker


def session_binder(
    plugin: ApiPlugin,
    device_factory: Optional[Callable[[], Any]] = None,
    memory_manager_factory: Optional[Callable[[], Any]] = None,
) -> Callable[[ApiServerWorker], Any]:
    """Binder for ``plugin``'s workers.

    ``device_factory`` is called once per worker (default: the API's
    simulated device class), so each worker gets a dedicated device
    (the measurement configuration) unless the factory hands every
    worker the same one (the consolidation configuration).  A worker
    bound to a :class:`~repro.hypervisor.pool.PooledDevice` uses that
    member's native device instead, when the API is pooled: workers
    co-placed on one member share its timeline, which is what makes
    cross-VM contention on a pool member real.  ``memory_manager_factory``
    installs a swap manager in sessions that take one.
    """
    session_class = resolve(plugin.session)
    make_device = device_factory or session_class.device

    def bind(worker: ApiServerWorker) -> Any:
        member = (getattr(worker, "pool_device", None) if plugin.pooled
                  else None)
        device = (member.native_device(plugin.name) if member is not None
                  else make_device())
        hooks = {}
        if plugin.silo_hooks:
            hooks["handle_resolver"] = worker.handles.lookup
            if memory_manager_factory is not None:
                hooks["memory_manager"] = memory_manager_factory()
        return session_class(devices=[device], clock=worker.clock, **hooks)

    return bind
