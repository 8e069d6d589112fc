"""The registry of virtualized APIs: one :class:`ApiPlugin` per API.

Everything the stack knows about a particular API — where its spec
comes from, which native module the generated server dispatch calls,
which session a worker binds and which simulated device backs it — is
written once, here.  :func:`repro.stack.build_stack`,
:meth:`repro.stack.VirtualStack.build`, the generic session binder,
pool members, ``cava lint``/``race``/``effort`` and the effort report
read :data:`APIS`; none of them branches on an API name.

Native objects are named by ``"module:attr"`` strings and resolved when
a stack is built, so importing the registry imports no API package.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Union

if TYPE_CHECKING:  # pragma: no cover
    from repro.hypervisor.pool import DeviceClass
    from repro.spec.model import ApiSpec


def resolve(ref: str) -> Any:
    """The object a ``"module:attr"`` reference names."""
    module, _, attr = ref.partition(":")
    return getattr(importlib.import_module(module), attr)


@dataclass(frozen=True)
class ApiPlugin:
    """What the stack needs to know about one virtualized API."""

    name: str
    #: dotted module the generated server dispatch looks functions up
    #: on at call time
    native_module: str
    #: ``.cava`` stem under ``specs/``, or a loader for a spec
    #: introspected from a Python module
    spec: Union[str, Callable[[], "ApiSpec"]]
    #: the C header under ``specs/`` the spec was inferred from
    #: (None: the spec has no header)
    header: Optional[str]
    #: ``module:attr`` of the :class:`~repro.native.NativeSession`
    #: subclass: it names the session stack a worker's session is pushed
    #: onto around every command, and the simulated device class each
    #: worker's private device is built from
    session: str
    #: workers on a pool member share the member's device, its spec
    #: scaled by :meth:`~repro.hypervisor.pool.DeviceClass.scale_spec`
    #: (False: each worker keeps a private device)
    pooled: bool = False
    #: the native session reaches back into the API server: it takes the
    #: worker's handle resolver (for handle ints in untyped arguments)
    #: and the stack's swap memory manager
    silo_hooks: bool = False

    def pooled_device(self, device_class: "DeviceClass") -> Any:
        """The native device a pool member of ``device_class`` serves
        this API with."""
        if not self.pooled:
            raise ValueError(f"API {self.name!r} has no pooled device")
        device = resolve(self.session).device
        return device(spec=device_class.scale_spec(device.spec_class()))


def _tpu_spec() -> "ApiSpec":
    """The TPU is the dynamic-language target: its spec is introspected
    from its Python module rather than parsed from a ``.cava`` file."""
    from repro.codegen.pyfront import spec_from_module

    return spec_from_module(importlib.import_module("repro.tpu.api"),
                            "tpu", "tpu")


APIS: Dict[str, ApiPlugin] = {plugin.name: plugin for plugin in (
    ApiPlugin(
        name="opencl", native_module="repro.opencl.api", spec="opencl",
        header="cl.h",
        session="repro.opencl.runtime:Session", pooled=True,
        silo_hooks=True,
    ),
    ApiPlugin(
        name="mvnc", native_module="repro.mvnc.api", spec="mvnc",
        header="mvnc.h",
        session="repro.mvnc.api:NCSSession", pooled=True,
    ),
    ApiPlugin(
        name="qat", native_module="repro.qat.api", spec="qat",
        header="qat.h",
        session="repro.qat.api:QATSession", pooled=True,
    ),
    ApiPlugin(
        name="tpu", native_module="repro.tpu.api", spec=_tpu_spec,
        header=None,
        session="repro.tpu.api:TPUSession",
    ),
)}
