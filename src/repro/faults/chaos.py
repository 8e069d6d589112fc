"""The chaos smoke harness behind ``cava chaos``.

One chaos run builds a full forwarded stack, arms a seeded
:class:`~repro.faults.plan.FaultPlan`, and drives a real workload
through it.  The run's contract is the failure-path invariant this
package exists to enforce:

* the workload either **completes** (possibly via retries), or every
  affected call surfaces as a **structured error** (``RemotingError`` /
  a workload-level error built from one) — no exception ever escapes
  ``Router.deliver`` or ``Transport.deliver``;
* a crashed worker is **contained**: a bystander VM's workload still
  verifies, and after :meth:`Hypervisor.restart_worker` the victim VM
  completes a fresh run.

Because the plan is seeded and time is virtual, a chaos run is exactly
reproducible: same seed, same faults, same report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.faults.plan import MODES, FaultPlan


@dataclass
class ChaosReport:
    """Everything one chaos run observed, for assertions and printing."""

    mode: str
    seed: int
    workload: str
    #: the victim workload ran to completion (faults notwithstanding)
    completed: bool
    #: ...and its outputs matched the numpy reference
    verified: bool
    #: the structured error that stopped it, if it did not complete
    error: Optional[str]
    #: crash mode: did a fresh run verify after restart_worker()?
    recovered_after_restart: Optional[bool]
    #: did the bystander VM's run verify? (None = not run)
    bystander_verified: Optional[bool]
    #: injected-fault totals by kind, from the plan's event log
    injected: Dict[str, int] = field(default_factory=dict)
    retries: int = 0
    giveups: int = 0
    server_lost: int = 0
    rejected: int = 0
    unknown_rejections: int = 0
    malformed_frames: int = 0
    breaker_trips: int = 0

    @property
    def contained(self) -> bool:
        """The invariant: completion, or a structured error — never an
        escaped exception (those abort the run before a report exists)."""
        return self.completed or self.error is not None

    def format(self) -> str:
        lines = [
            f"chaos: mode={self.mode} seed={self.seed} "
            f"workload={self.workload}",
            f"  outcome: "
            + ("completed, verified" if self.verified
               else "completed, NOT verified" if self.completed
               else f"failed structurally: {self.error}"),
        ]
        if self.injected:
            injected = ", ".join(
                f"{kind}={count}"
                for kind, count in sorted(self.injected.items())
            )
            lines.append(f"  injected: {injected}")
        else:
            lines.append("  injected: none")
        lines.append(
            f"  recovery: retries={self.retries} giveups={self.giveups} "
            f"server_lost={self.server_lost}"
        )
        lines.append(
            f"  router: rejected={self.rejected} "
            f"unknown_rejections={self.unknown_rejections} "
            f"malformed_frames={self.malformed_frames} "
            f"breaker_trips={self.breaker_trips}"
        )
        if self.recovered_after_restart is not None:
            lines.append(
                f"  worker restart: "
                + ("recovered, verified" if self.recovered_after_restart
                   else "did NOT recover")
            )
        if self.bystander_verified is not None:
            lines.append(
                f"  bystander VM: "
                + ("verified" if self.bystander_verified else "FAILED")
            )
        lines.append(
            "  invariant: "
            + ("contained" if self.contained else "VIOLATED")
        )
        return "\n".join(lines)


def run_chaos(
    mode: str = "all",
    seed: int = 1234,
    workload: str = "bfs",
    scale: float = 0.06,
    bystander: bool = True,
    batching: bool = False,
    sanitize: bool = False,
) -> ChaosReport:
    """Run one workload through a fully armed fault plan.

    ``mode`` is one of :data:`~repro.faults.plan.MODES` or ``"all"``;
    ``workload`` names any OpenCL workload (``bfs``, ``gaussian``...).
    ``batching`` coalesces the victim VM's async commands into batched
    wire frames, so every fault mode also exercises the atomic
    whole-frame failure path.  ``sanitize`` arms the runtime
    ordering/invariant sanitizer for the run (a
    :class:`~repro.analysis.sanitizer.SanitizerError` escaping means the
    stack itself is broken — it is never a structured workload failure).
    Raises only if the failure-path invariant is broken — structured
    failures are part of a normal report.
    """
    from repro.analysis import sanitizer as _sanitize
    from repro.guest.batching import BatchPolicy
    from repro.guest.library import RemotingError
    from repro.stack import VirtualStack
    from repro.workloads import OPENCL_WORKLOADS
    from repro.workloads.base import WorkloadError

    classes = {cls.name: cls for cls in OPENCL_WORKLOADS}
    workload_cls = classes.get(workload)
    if workload_cls is None:
        raise KeyError(
            f"unknown workload {workload!r}; choose from {sorted(classes)}"
        )

    if sanitize:
        _sanitize.install(_sanitize.Sanitizer())
    try:
        hypervisor = VirtualStack.build("opencl").hypervisor
        plan = FaultPlan.for_mode(mode, seed=seed, crash_vm="chaos-vm")
        hypervisor.install_fault_plan(plan)
        batch_policy = BatchPolicy() if batching else None
        victim = hypervisor.create_vm("chaos-vm",
                                      batch_policy=batch_policy)
        observer = None
        if bystander:
            # the bystander measures cross-VM isolation, so the plan
            # stays off its channel (and, by crash_vm, its worker): all
            # it shares with the victim is the hypervisor
            observer = hypervisor.create_vm("bystander-vm")
            observer.driver.transport = observer.driver.transport.inner

        completed = verified = False
        error: Optional[str] = None
        try:
            result = workload_cls(scale=scale).run(
                victim.library("opencl"))
            victim.flush()
            completed, verified = True, result.verified
        except (RemotingError, WorkloadError) as err:
            error = str(err)

        recovered: Optional[bool] = None
        if ("chaos-vm", "opencl") in hypervisor.lost_workers:
            hypervisor.restart_worker("chaos-vm", "opencl")
            try:
                rerun = workload_cls(scale=scale).run(
                    victim.library("opencl"))
                recovered = rerun.verified
            except (RemotingError, WorkloadError):
                recovered = False

        bystander_verified: Optional[bool] = None
        if observer is not None:
            try:
                second = workload_cls(scale=scale).run(
                    observer.library("opencl")
                )
                bystander_verified = second.verified
            except (RemotingError, WorkloadError):
                bystander_verified = False

        router = hypervisor.router
        runtime = victim.runtimes.get("opencl")
        return ChaosReport(
            mode=mode,
            seed=seed,
            workload=workload,
            completed=completed,
            verified=verified,
            error=error,
            recovered_after_restart=recovered,
            bystander_verified=bystander_verified,
            injected=plan.counts(),
            retries=runtime.retries if runtime is not None else 0,
            giveups=runtime.giveups if runtime is not None else 0,
            server_lost=router.metrics_for("chaos-vm").server_lost,
            rejected=router.metrics_for("chaos-vm").rejected,
            unknown_rejections=router.unknown_rejections,
            malformed_frames=router.malformed_frames,
            breaker_trips=sum(
                state.tripped for state in router.vms.values()
            ),
        )
    finally:
        if sanitize:
            _sanitize.uninstall()


def run_all_modes(seed: int = 1234, workload: str = "bfs",
                  scale: float = 0.06, batching: bool = False,
                  sanitize: bool = False) -> Dict[str, ChaosReport]:
    """One report per fault mode plus the mixed ``all`` preset."""
    return {
        mode: run_chaos(mode=mode, seed=seed, workload=workload,
                        scale=scale, batching=batching, sanitize=sanitize)
        for mode in tuple(MODES) + ("all",)
    }
