"""Runtime ordering/invariant sanitizer (``CAVA_SANITIZE=1``).

The static CAVA40x layer proves what *may* go wrong; this module checks
what actually happens.  When armed, hooks across the stack record real
behaviour and assert it linearizes against the happens-before model the
specs pin down:

* **dispatch order** — the router records every dispatched command's
  ``(seq, mode)`` per (VM, API).  Sequence numbers are assigned in
  guest program order, so a dispatch whose seq precedes an
  already-dispatched one is a reordering; it is legal only between two
  async commands (batch retransmission re-delivers an async region) —
  any reordering involving a sync-classified dispatch violates the
  flush-before-sync discipline and fails the run.  Exact re-delivery of
  an already-seen seq (duplicate frames, NeedBytes retransmission) is
  recorded, not failed.
* **virtual-clock monotonicity** — a reply never completes before the
  command was released to the worker.
* **never-stale elision** — every cached ref the router resolves is
  re-digested; the payload must hash to the digest that matched it
  (:func:`repro.remoting.xfercache.digest_matches`).
* **handle-table consistency on crash/restart** — a restarted worker
  must come up with an empty handle table and an empty (generation-
  bumped) transfer store.
* **pool device-time conservation** — per-VM nominal device time must
  sum to per-device nominal time across a pool schedule.

Design rules: the armed sanitizer performs *no* clock operations, so a
sanitized run is bit-identical in virtual time to an unsanitized one;
the disarmed path is a single ``.enabled`` attribute check on a module
NOOP (the tracer/flightrec pattern), so sanitizer-off is bit-identical
to the seed.  Violations raise :class:`SanitizerError` (fail-stop, like
a C sanitizer) and are also kept on ``violations`` for post-mortems.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.remoting.xfercache import digest_matches

#: relative tolerance for floating-point conservation/monotonicity
_REL_EPS = 1e-9


class SanitizerError(AssertionError):
    """A runtime happens-before or invariant violation."""


class NoopSanitizer:
    """Disarmed sanitizer: one attribute read per hook site, nothing else."""

    enabled = False

    def record_dispatch(self, *args: Any, **kw: Any) -> None:  # pragma: no cover
        pass

    def check_reply_time(self, *args: Any, **kw: Any) -> None:  # pragma: no cover
        pass

    def verify_digest(self, *args: Any, **kw: Any) -> None:  # pragma: no cover
        pass

    def check_worker_reset(self, *args: Any, **kw: Any) -> None:  # pragma: no cover
        pass

    def check_pool_conservation(self, *args: Any, **kw: Any) -> None:  # pragma: no cover
        pass

    def check_migration_handles(self, *args: Any, **kw: Any) -> None:  # pragma: no cover
        pass

    def forget(self, vm_id: str) -> None:  # pragma: no cover
        pass


NOOP = NoopSanitizer()


class _VMState:
    """Per-(VM, API) dispatch-order bookkeeping."""

    __slots__ = ("recent", "seen", "max_seq", "duplicates", "reorders")

    def __init__(self, window: int) -> None:
        #: recently dispatched (seq, mode), newest last, bounded
        self.recent: Deque[Tuple[int, str]] = deque(maxlen=window)
        self.seen: Set[int] = set()
        self.max_seq: int = -1
        self.duplicates: int = 0
        self.reorders: int = 0


class Sanitizer:
    """Armed sanitizer: records dispatch orders, asserts invariants."""

    enabled = True

    def __init__(self, window: int = 512) -> None:
        self.window = window
        self._dispatch: Dict[Tuple[str, str], _VMState] = {}
        #: per-check-name count of invariants checked (and held)
        self.checks: Dict[str, int] = {}
        self.violations: List[str] = []

    # -- bookkeeping -----------------------------------------------------

    def _tick(self, name: str) -> None:
        self.checks[name] = self.checks.get(name, 0) + 1

    def _fail(self, message: str) -> None:
        self.violations.append(message)
        raise SanitizerError(f"CAVA sanitizer: {message}")

    def summary(self) -> Dict[str, Any]:
        states = self._dispatch.values()
        return {
            "checks": dict(sorted(self.checks.items())),
            "violations": list(self.violations),
            "duplicates": sum(s.duplicates for s in states),
            "reorders": sum(s.reorders for s in states),
        }

    # -- hook: router dispatch order --------------------------------------

    def record_dispatch(self, vm_id: str, api: str, seq: int,
                        mode: str, function: str) -> None:
        """Check one dispatched command linearizes against the HB graph.

        Sequence numbers carry guest program order; ``mode`` is the
        command's wire-carried forwarding mode (for conditional calls,
        the branch actually taken).  Program order must be preserved
        except between async commands, which the static layer already
        judged for commutativity — a sync dispatch overtaken by (or
        overtaking) program-order neighbours means a flush was skipped
        or the router unbundled out of order.
        """
        self._tick("dispatch-order")
        state = self._dispatch.setdefault(
            (vm_id, api), _VMState(self.window))
        if seq in state.seen:
            # exact re-delivery: duplicate frame or NeedBytes
            # retransmission of an (idempotent, all-async) batch
            state.duplicates += 1
            return
        if seq < state.max_seq:
            state.reorders += 1
            for prior_seq, prior_mode in state.recent:
                if prior_seq <= seq:
                    continue
                if prior_mode != "async" or mode != "async":
                    self._fail(
                        f"dispatch order violates program order for VM "
                        f"{vm_id!r} API {api!r}: {function!r} seq {seq} "
                        f"(mode {mode!r}) dispatched after seq "
                        f"{prior_seq} (mode {prior_mode!r}); reordering "
                        f"is only legal between async commands"
                    )
        state.seen.add(seq)
        state.recent.append((seq, mode))
        if len(state.seen) > 4 * self.window:
            # bound memory: forget seqs that fell out of the window
            horizon = state.recent[0][0]
            state.seen = {s for s in state.seen if s >= horizon}
        state.max_seq = max(state.max_seq, seq)

    def forget(self, vm_id: str) -> None:
        """Drop ``vm_id``'s dispatch orders: a recycled id's program
        order starts afresh."""
        for key in [key for key in self._dispatch if key[0] == vm_id]:
            del self._dispatch[key]

    # -- hook: virtual-clock monotonicity ---------------------------------

    def check_reply_time(self, vm_id: str, api: str, release: float,
                         complete_time: float) -> None:
        self._tick("clock-monotonic")
        if complete_time + abs(release) * _REL_EPS + 1e-15 < release:
            self._fail(
                f"virtual clock ran backwards for VM {vm_id!r} API "
                f"{api!r}: reply completed at {complete_time!r} before "
                f"its release at {release!r}"
            )

    # -- hook: transfer-cache digest re-verification ----------------------

    def verify_digest(self, digest: bytes, payload: bytes,
                      vm_id: str = "?") -> None:
        self._tick("xfer-digest")
        if not digest_matches(digest, payload):
            self._fail(
                f"stale elision for VM {vm_id!r}: resolved payload of "
                f"{len(payload)} B does not hash to the digest that "
                f"matched it — the store served bytes the guest no "
                f"longer holds"
            )

    # -- hook: crash/restart handle-table consistency ---------------------

    def check_worker_reset(self, vm_id: str, api: str,
                           live_handles: int,
                           store_entries: Optional[int]) -> None:
        self._tick("worker-reset")
        if live_handles:
            self._fail(
                f"restarted worker for VM {vm_id!r} API {api!r} came up "
                f"with {live_handles} live handle(s); guest-held "
                f"handles into the dead process must not survive"
            )
        if store_entries:
            self._fail(
                f"restarted worker for VM {vm_id!r} API {api!r} still "
                f"sees {store_entries} transfer-store entries; refs "
                f"into the dead server's address space must miss"
            )

    # -- hook: live-migration handle fidelity ------------------------------

    def check_migration_handles(self, vm_id: str, api: str,
                                source_ids: Set[int],
                                dest_ids: Set[int]) -> None:
        """At cutover, the destination must hold *exactly* the live
        guest ids the source held — original ids preserved, nothing
        leaked (a dead object replayed) and nothing dropped (a live
        object missed by replay)."""
        self._tick("migration-handles")
        leaked = dest_ids - source_ids
        dropped = source_ids - dest_ids
        if leaked or dropped:
            detail = []
            if dropped:
                detail.append(
                    f"missing {sorted(hex(i) for i in dropped)}")
            if leaked:
                detail.append(
                    f"extra {sorted(hex(i) for i in leaked)}")
            self._fail(
                f"live migration of VM {vm_id!r} API {api!r} broke "
                f"handle fidelity: destination table "
                f"{' and '.join(detail)} relative to the source"
            )

    # -- hook: pool device-time conservation ------------------------------

    def check_pool_conservation(self, vm_total: float,
                                device_total: float) -> None:
        self._tick("pool-conservation")
        scale = max(abs(vm_total), abs(device_total), 1.0)
        if abs(vm_total - device_total) > scale * 1e-6:
            self._fail(
                f"pool device-time conservation broken: per-VM nominal "
                f"device time sums to {vm_total!r} but per-device "
                f"accounting sums to {device_total!r}"
            )


_ACTIVE: Any = NOOP


def active() -> Any:
    """The installed sanitizer, or the NOOP when disarmed."""
    return _ACTIVE


def install(sanitizer: Optional[Sanitizer] = None) -> Sanitizer:
    """Arm the sanitizer (idempotent if one is already armed)."""
    global _ACTIVE
    if sanitizer is None:
        sanitizer = _ACTIVE if isinstance(_ACTIVE, Sanitizer) \
            else Sanitizer()
    _ACTIVE = sanitizer
    return sanitizer


def uninstall() -> None:
    global _ACTIVE
    _ACTIVE = NOOP


def maybe_install_from_env(environ: Optional[Dict[str, str]] = None) -> None:
    """Arm from ``CAVA_SANITIZE=1`` (the chaos/CI entry path)."""
    env = os.environ if environ is None else environ
    if env.get("CAVA_SANITIZE") == "1" and not _ACTIVE.enabled:
        install()
