"""One-call deployment of the standard AvA stacks.

This is the "auto-generated scripts to integrate the generated
components with the API-independent components and deploy them" step of
the paper's workflow: parse the shipped specifications, run CAvA, and
wire the generated modules into a hypervisor with simulated devices.
Which APIs exist, and how each is built, is the registry's
(:data:`repro.apis.APIS`).

Generated stacks are cached per process — the generator is fast, but
tests create many hypervisors.
"""

from __future__ import annotations

import os
import tempfile
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.apis import APIS
from repro.codegen.generator import GeneratedStack, generate_api
from repro.guest.batching import BatchPolicy
from repro.hypervisor.hypervisor import ApiRegistration, Hypervisor
from repro.remoting.speccodec import SpecializedCodec
from repro.remoting.wire import WireCodec
from repro.remoting.xfercache import CachePolicy
from repro.hypervisor.policy import ResourcePolicy
from repro.hypervisor.vm import GuestVM
from repro.server.bindings import session_binder
from repro.spec import parse_spec_file
from repro.spec.model import ApiSpec

_STACK_CACHE: Dict[str, GeneratedStack] = {}


def resolve_codec(codec: Any,
                  stacks: Sequence[GeneratedStack]) -> WireCodec:
    """Turn a codec selector into a :class:`WireCodec` instance.

    ``codec`` may be a ready instance, or ``"specialized"``/``None`` —
    the default: a :class:`SpecializedCodec` loaded with every
    generated stack's marshaling tables.
    """
    if isinstance(codec, WireCodec):
        return codec
    if codec is None or codec == "specialized":
        specialized = SpecializedCodec()
        for stack in stacks:
            if getattr(stack, "codec_module", None) is not None:
                specialized.register_module(stack.codec_module)
        return specialized
    raise ValueError(
        f"unknown codec {codec!r}; pass a WireCodec instance or "
        f"'specialized'"
    )


def default_specs_dir() -> str:
    """The shipped specifications directory (override: REPRO_SPECS_DIR)."""
    override = os.environ.get("REPRO_SPECS_DIR")
    if override:
        return override
    here = os.path.dirname(os.path.abspath(__file__))
    # src/repro/ → repository root → specs/
    candidate = os.path.normpath(os.path.join(here, "..", "..", "specs"))
    if os.path.isdir(candidate):
        return candidate
    raise FileNotFoundError(
        "cannot locate the specs/ directory; set REPRO_SPECS_DIR"
    )


def load_spec(api_name: str) -> ApiSpec:
    """Parse one of the shipped specifications: the API's ``.cava``
    file, or the spec its descriptor introspects."""
    spec = APIS[api_name].spec
    if callable(spec):
        return spec()
    return parse_spec_file(os.path.join(default_specs_dir(), f"{spec}.cava"))


def build_stack(api_name: str, out_dir: Optional[str] = None,
                refresh: bool = False) -> GeneratedStack:
    """Generate (or fetch the cached) stack for a shipped API."""
    if not refresh and api_name in _STACK_CACHE:
        return _STACK_CACHE[api_name]
    native = APIS[api_name].native_module
    spec = load_spec(api_name)
    target = out_dir or os.path.join(
        tempfile.gettempdir(), f"cava_generated_{os.getpid()}"
    )
    stack = generate_api(spec, target, native)
    _STACK_CACHE[api_name] = stack
    return stack


class GuestSession:
    """A ready-to-call guest: its VM plus the stack that created it.

    This is what :meth:`VirtualStack.add_vm` hands back — the guest
    application's view of one virtual machine with every registered API
    already bound.  ``session.lib`` is the single-API convenience;
    multi-API stacks pick with ``session.library("mvnc")``.
    """

    def __init__(self, stack: "VirtualStack", vm: GuestVM) -> None:
        self.stack = stack
        self.vm = vm

    @property
    def vm_id(self) -> str:
        return self.vm.vm_id

    @property
    def clock(self):
        return self.vm.clock

    @property
    def time(self) -> float:
        return self.vm.clock.now

    @property
    def lib(self) -> Any:
        """The bound guest library, when exactly one API is registered."""
        apis = self.stack.apis
        if len(apis) != 1:
            raise ValueError(
                f"session binds {len(apis)} APIs ({', '.join(apis)}); "
                f"pick one with session.library(api_name)"
            )
        return self.vm.library(apis[0])

    def library(self, api_name: str) -> Any:
        return self.vm.library(api_name)

    def runtime(self, api_name: Optional[str] = None) -> Any:
        if api_name is None:
            apis = self.stack.apis
            if len(apis) != 1:
                raise ValueError(
                    "runtime() needs api_name on a multi-API stack"
                )
            api_name = apis[0]
        return self.vm.runtime(api_name)

    def flush(self) -> None:
        """Flush queued async commands on every API runtime."""
        self.vm.flush()

    def shutdown(self) -> None:
        self.stack.hypervisor.destroy_vm(self.vm_id)


class VirtualStack:
    """One-call assembly of a virtualized accelerator stack.

    ``VirtualStack.build("opencl").add_vm("vm0")`` parses the spec, runs
    CAvA, registers the generated stack with a fresh hypervisor, creates
    the VM and binds its guest libraries — returning a ready
    :class:`GuestSession`.  Callers that want the bare hypervisor take
    ``VirtualStack.build(...).hypervisor``.
    """

    def __init__(self, hypervisor: Hypervisor,
                 apis: Sequence[str]) -> None:
        self.hypervisor = hypervisor
        self.apis: List[str] = list(apis)
        self.sessions: Dict[str, GuestSession] = {}

    @classmethod
    def build(
        cls,
        *apis: str,
        policy: Optional[ResourcePolicy] = None,
        batch_policy: Optional[BatchPolicy] = None,
        cache_policy: Optional[CachePolicy] = None,
        devices: Optional[Dict[str, Callable[[], Any]]] = None,
        memory_manager_factory: Optional[Callable[[], Any]] = None,
        codec: Any = "specialized",
    ) -> "VirtualStack":
        """Generate and register the requested API stacks.

        By default each VM's worker gets a *private* simulated device
        (the paper's measurement setup: one tenant per accelerator while
        AvA provides the virtualization plumbing).  ``devices`` maps an
        API name to a device factory called once per worker instead; a
        factory that returns one shared device consolidates every VM on
        it.  ``memory_manager_factory`` installs a swap manager in each
        session that takes one (OpenCL's).

        ``batch_policy`` becomes the default async-coalescing policy for
        every VM this stack creates (None = per-call async forwarding,
        bit-identical to the unbatched path).  ``cache_policy`` likewise
        becomes the default transfer-cache policy (None = full payloads
        on every crossing, bit-identical to the uncached path).
        ``codec`` selects the wire codec (see :func:`resolve_codec`).
        """
        if not apis:
            apis = ("opencl",)
        stacks = {api_name: build_stack(api_name) for api_name in apis}
        hypervisor = Hypervisor(policy=policy, batch_policy=batch_policy,
                                cache_policy=cache_policy,
                                codec=resolve_codec(codec, list(stacks.values())))
        devices = devices or {}
        for api_name, stack in stacks.items():
            hypervisor.register_api(
                ApiRegistration(
                    name=api_name,
                    routing_table=stack.routing_table(),
                    dispatch=stack.dispatch(),
                    guest_module=stack.guest_module,
                    session_binder=session_binder(
                        APIS[api_name], devices.get(api_name),
                        memory_manager_factory),
                )
            )
        return cls(hypervisor, apis)

    def add_vm(self, vm_id: str, transport: str = "inproc",
               batch_policy: Optional[BatchPolicy] = None,
               cache_policy: Optional[CachePolicy] = None,
               **transport_kwargs: Any) -> GuestSession:
        """Create a VM on this stack and return its guest session."""
        vm = self.hypervisor.create_vm(
            vm_id, transport=transport, batch_policy=batch_policy,
            cache_policy=cache_policy,
            **transport_kwargs,
        )
        session = GuestSession(self, vm)
        self.sessions[vm_id] = session
        return session

    def session(self, vm_id: str) -> GuestSession:
        return self.sessions[vm_id]

    def install_fault_plan(self, plan: Any,
                           retry_policy: Optional[Any] = None) -> None:
        self.hypervisor.install_fault_plan(plan, retry_policy)

    def install_slo(self, monitor: Any) -> None:
        self.hypervisor.install_slo(monitor)

    @property
    def router(self):
        return self.hypervisor.router

    def admin_report(self) -> Dict[str, Any]:
        return self.hypervisor.admin_report()
