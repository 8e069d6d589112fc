"""Content-addressed transfer cache — guest side.

AvA-style forwarding pays for every ``in`` buffer on every crossing,
but iterative workloads (nw, gaussian, srad, backprop) re-send
byte-identical buffers and kernel sources each iteration.  With a
:class:`CachePolicy` armed, the guest library digests each eligible
outgoing payload and — when the per-VM server store already holds those
exact bytes — ships a 16-byte content digest (a *cached ref*) instead
of the payload.  The transport then charges only the digest bytes, so
the copy cost of repeated transfers disappears from virtual time the
same way it would with a real shared dedup store (Arax-style data
decoupling; RPCAcc-style data-path optimization).

Correctness never depends on the cache: the server store only ever
returns bytes whose digest it verified at insert time, a missed ref is
answered with a :class:`~repro.remoting.codec.NeedBytes` reply that
triggers exactly one full retransmission, and the store is invalidated
wholesale on worker crash/restart.  ``CachePolicy(enabled=False)`` — or
no policy at all, the default — leaves wire frames and virtual-time
results bit-identical to an uncached stack.

Two index models, selected by ``CachePolicy.shared_index``:

* ``True`` (default): the guest probes the per-VM server store's digest
  index directly before eliding — modeling a dedup index in shared
  memory, legitimate for the in-proc and ring transports where guest
  and API server already share pages.  Fault-free sends then never
  miss, so arming the cache can only shrink frames.
* ``False``: the guest keeps a local map of digests it has observed the
  server store, learning on successful sends and unlearning on
  ``NeedBytes`` — the realistic model for network transports, and the
  mode that exercises the miss/retransmit protocol end-to-end.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: digest width on the wire — blake2b-128 collision resistance is far
#: beyond anything a deterministic workload can breach
DIGEST_SIZE = 16


def digest_payload(data: bytes) -> bytes:
    """The content digest a payload is addressed by (blake2b-16).

    Hashes byte-likes (including donated ``memoryview`` slices) in
    place; only non-contiguous views need normalizing first.
    """
    if isinstance(data, memoryview) and not data.c_contiguous:
        data = bytes(data)
    return hashlib.blake2b(data, digest_size=DIGEST_SIZE).digest()


def digest_matches(digest: bytes, payload: bytes) -> bool:
    """Whether ``payload`` hashes to ``digest`` — the never-stale
    property the store guarantees and ``CAVA_SANITIZE=1`` re-verifies
    on every resolved ref."""
    return digest_payload(payload) == bytes(digest)


@dataclass(frozen=True)
class CachePolicy:
    """Transfer-cache knobs, threaded hypervisor → VM → guest runtime.

    Mirrors :class:`repro.guest.batching.BatchPolicy`: passing ``None``
    anywhere a policy is accepted (the default) disarms the cache
    entirely and keeps the stack bit-identical to one without it.
    """

    #: payloads below this never elide — the digest would not pay for
    #: itself, and tiny scalars churn the store
    min_bytes: int = 1024
    #: payloads above this are never cached (they would evict the whole
    #: working set for one transfer)
    max_entry_bytes: int = 16 * 1024 * 1024
    #: per-VM server store capacity, bytes
    capacity_bytes: int = 64 * 1024 * 1024
    #: per-VM server store capacity, entries
    capacity_entries: int = 1024
    #: ``False`` disarms the cache without unthreading the policy
    enabled: bool = True
    #: guest-side cost of digesting one payload byte, seconds/byte.
    #: Default 0: digests are modeled as computed by a host-offloaded
    #: dedup/CRC engine on the DMA path (RPCAcc-style), not guest CPU.
    digest_byte_cost: float = 0.0
    #: cost of one shared-index membership probe, seconds
    probe_cost: float = 0.0
    #: probe the server store's index directly (shared-memory model)
    #: instead of a guest-local learned map — see module docstring
    shared_index: bool = True

    def __post_init__(self) -> None:
        if self.min_bytes < 1:
            raise ValueError(
                f"min_bytes must be >= 1, got {self.min_bytes}"
            )
        if self.max_entry_bytes < self.min_bytes:
            raise ValueError(
                f"max_entry_bytes {self.max_entry_bytes} below "
                f"min_bytes {self.min_bytes}"
            )
        if self.capacity_bytes < 1:
            raise ValueError(
                f"capacity_bytes must be >= 1, got {self.capacity_bytes}"
            )
        if self.capacity_entries < 1:
            raise ValueError(
                f"capacity_entries must be >= 1, "
                f"got {self.capacity_entries}"
            )
        if self.digest_byte_cost < 0.0:
            raise ValueError(
                f"digest_byte_cost must be >= 0, "
                f"got {self.digest_byte_cost}"
            )
        if self.probe_cost < 0.0:
            raise ValueError(
                f"probe_cost must be >= 0, got {self.probe_cost}"
            )


@dataclass(frozen=True)
class CachedRef:
    """One elided payload: what went on the wire instead of the bytes."""

    param: str
    digest: bytes
    size: int
    #: "buf" for an in-buffer, "str" for a string scalar (kernel source)
    kind: str

    def to_wire(self) -> List[Any]:
        return [self.digest, self.size, self.kind]


class TransferCache:
    """Per-VM guest-side elision logic and bookkeeping.

    Owned by the :class:`~repro.hypervisor.vm.GuestVM` and consulted by
    the guest runtime on every outgoing payload.  Holds no payload
    bytes itself — only digests (and, in local-index mode, the set of
    digests believed resident on the server).
    """

    def __init__(self, policy: CachePolicy,
                 store: Optional[Any] = None) -> None:
        if policy.shared_index and store is None:
            raise ValueError(
                "shared_index cache requires the server store handle"
            )
        self.policy = policy
        #: the per-VM server TransferStore (shared-index probes go here;
        #: local-index mode keeps it only for tests/introspection)
        self.store = store
        #: local-index mode: digests believed resident server-side
        self._known: Dict[bytes, int] = {}
        # -- counters, surfaced via admin_report and ``cava xfer`` -----
        self.elided_payloads = 0
        self.elided_bytes = 0
        self.digested_payloads = 0
        self.retransmits = 0

    # -- elision decision --------------------------------------------------

    def eligible(self, nbytes: int) -> bool:
        """Whether a payload of this size participates in caching."""
        return (self.policy.enabled
                and self.policy.min_bytes <= nbytes
                <= self.policy.max_entry_bytes)

    def consider(self, param: str, data: bytes, kind: str,
                 ) -> Tuple[Optional[CachedRef], float, Optional[bytes]]:
        """Decide whether to elide one outgoing payload.

        Returns ``(ref, cost, digest)``: ``ref`` is the
        :class:`CachedRef` to send instead of the bytes (``None`` to
        send the bytes), ``cost`` is the guest-side virtual time spent
        deciding (digesting + probing) that the caller must charge, and
        ``digest`` is the payload's digest whenever the payload was
        eligible at all (the caller learns it into the local index
        after a successful full-payload send).
        """
        if not self.eligible(len(data)):
            return None, 0.0, None
        digest = digest_payload(data)
        self.digested_payloads += 1
        cost = self.policy.digest_byte_cost * len(data)
        cost += self.policy.probe_cost
        if self._probe(digest):
            self.elided_payloads += 1
            self.elided_bytes += len(data)
            return CachedRef(param=param, digest=digest,
                             size=len(data), kind=kind), cost, digest
        return None, cost, digest

    def _probe(self, digest: bytes) -> bool:
        if self.policy.shared_index:
            return bool(self.store is not None and self.store.has(digest))
        return digest in self._known

    # -- local-index learning ----------------------------------------------

    def note_delivered(self, digest: bytes, size: int) -> None:
        """A payload with this digest reached the server store intact."""
        if not self.policy.shared_index:
            self._known[digest] = size

    def forget(self, digests: List[bytes]) -> None:
        """The server reported these digests missing (``NeedBytes``)."""
        for digest in digests:
            self._known.pop(digest, None)
