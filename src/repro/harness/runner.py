"""Running workloads natively and through AvA, and comparing them.

"Native" means the workload calls the vendor API directly (the
pass-through configuration the paper normalizes against); "AvA" means
the same workload object calls a CAvA-generated guest library inside a
guest VM, with every command crossing the hypervisor router.  Both run
on identical simulated devices with identical cost models, so the ratio
isolates the forwarding overhead — the quantity Figure 5 reports.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.apis import APIS, resolve
from repro.hypervisor.hypervisor import Hypervisor
from repro.stack import VirtualStack
from repro.telemetry import tracer as _tele
from repro.vclock import VirtualClock
from repro.workloads import OPENCL_WORKLOADS, InceptionWorkload
from repro.workloads.base import WorkloadResult, once_per_key


@dataclass
class Measurement:
    """One workload run: outcome + virtual-time accounting."""

    name: str
    mode: str  # "native" or "ava"
    runtime: float
    verified: bool
    detail: str = ""
    accounts: Dict[str, float] = field(default_factory=dict)
    calls_sync: int = 0
    calls_async: int = 0
    batches_flushed: int = 0
    commands_coalesced: int = 0


#: native baselines, one per (workload identity, device spec) per process
_NATIVES: Dict[Any, Measurement] = {}


def run_native(workload: Any, api: str = "opencl",
               device: Optional[Any] = None) -> Measurement:
    """Run ``workload`` directly against ``api``'s native library, on
    ``device`` or one default device of the API's session class.

    The baseline is run once per process per key: the virtual runtime
    is a function of the workload's ``memo_key`` and the device spec.  A
    caller's own device (they want its state afterwards) and an enabled
    tracer (the device emits spans) always get the real run."""
    session_class = resolve(APIS[api].session)
    module = importlib.import_module(APIS[api].native_module)

    def run(device: Any) -> Measurement:
        clock = VirtualClock(f"native-{session_class.clock_name}")
        with session_class.opened([device], clock=clock):
            result: WorkloadResult = workload.run(module)
        return Measurement(
            name=workload.name, mode="native", runtime=clock.now,
            verified=result.verified, detail=result.detail,
            accounts=clock.accounts())

    key = getattr(workload, "memo_key", None)
    if device is not None or key is None or _tele.active().enabled:
        return run(device or session_class.device())
    device = session_class.device()
    hit = once_per_key(_NATIVES, (key, device.spec), lambda: run(device))
    return replace(hit, accounts=dict(hit.accounts))


def run_virtualized(
    workload: Any,
    api_name: str = "opencl",
    hypervisor: Optional[Hypervisor] = None,
    vm_id: str = "vm-bench",
    transport: str = "inproc",
    tracer: Optional[Any] = None,
    batch_policy: Optional[Any] = None,
    cache_policy: Optional[Any] = None,
) -> Measurement:
    """Run a workload inside a guest VM through the full AvA stack.

    Pass a :class:`repro.telemetry.Tracer` to record the run's spans;
    the default keeps the zero-cost no-op tracer installed.  Pass a
    :class:`repro.guest.batching.BatchPolicy` to coalesce the VM's async
    commands into batched wire frames (None = per-call async), and a
    :class:`repro.remoting.xfercache.CachePolicy` to elide re-sent
    payloads through the content-addressed transfer cache (None = full
    payloads on every crossing).
    """
    hv = hypervisor or VirtualStack.build(api_name).hypervisor
    vm = hv.create_vm(vm_id, transport=transport,
                      batch_policy=batch_policy,
                      cache_policy=cache_policy)
    library = vm.library(api_name)
    if tracer is not None:
        with _tele.use(tracer):
            result = workload.run(library)
            vm.flush()
    else:
        result = workload.run(library)
        vm.flush()
    runtime = vm.runtimes[api_name]
    return Measurement(
        name=workload.name, mode="ava", runtime=vm.clock.now,
        verified=result.verified, detail=result.detail,
        accounts=vm.clock.accounts(),
        calls_sync=runtime.calls_sync, calls_async=runtime.calls_async,
        batches_flushed=runtime.batches_flushed,
        commands_coalesced=runtime.commands_coalesced,
    )


@dataclass
class FigureFiveRow:
    """One bar of Figure 5."""

    name: str
    device: str
    native: Measurement
    virtualized: Measurement

    @property
    def relative_runtime(self) -> float:
        if self.native.runtime == 0:
            return float("inf")
        return self.virtualized.runtime / self.native.runtime

    @property
    def verified(self) -> bool:
        return self.native.verified and self.virtualized.verified


def run_figure5(
    scale: float = 1.0,
    transport: str = "inproc",
    workload_classes: Optional[Sequence[Callable[..., Any]]] = None,
    include_mvnc: bool = True,
    hypervisor_factory: Optional[Callable[[str], Hypervisor]] = None,
) -> List[FigureFiveRow]:
    """Reproduce Figure 5: per-workload relative end-to-end runtime.

    ``hypervisor_factory`` builds the hypervisor for each virtualized
    run (called with the API name, fresh per workload).  The pool
    bit-identity guard uses it to route every workload through a
    single-member device pool; the default per-workload hypervisor has
    no pool.
    """
    rows: List[FigureFiveRow] = []
    classes = list(workload_classes
                   if workload_classes is not None else OPENCL_WORKLOADS)
    for cls in classes:
        workload = cls(scale=scale)
        native = run_native(workload)
        virtualized = run_virtualized(
            workload, api_name="opencl", transport=transport,
            vm_id=f"vm-{workload.name}",
            hypervisor=(hypervisor_factory("opencl")
                        if hypervisor_factory is not None else None),
        )
        rows.append(FigureFiveRow(workload.name, "GTX 1080 (sim)", native,
                                  virtualized))
    if include_mvnc:
        workload = InceptionWorkload()
        native = run_native(workload, "mvnc")
        virtualized = run_virtualized(
            workload, api_name="mvnc", transport=transport,
            vm_id="vm-inception",
            hypervisor=(hypervisor_factory("mvnc")
                        if hypervisor_factory is not None else None),
        )
        rows.append(FigureFiveRow(workload.name, "Movidius NCS (sim)",
                                  native, virtualized))
    return rows
