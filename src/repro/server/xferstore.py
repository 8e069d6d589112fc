"""Content-addressed transfer store — server side.

One :class:`TransferStore` per VM, owned by the hypervisor and
consulted by the router when a frame carries cached refs (see
``repro.remoting.xfercache`` for the guest half and the protocol).

The store is a plain LRU over ``digest -> bytes`` with byte and entry
caps.  Two properties carry the correctness argument:

* **No poisoning.**  :meth:`insert` computes the digest of the actual
  bytes itself — a guest cannot associate a digest with bytes that do
  not hash to it, so resolving a ref can never yield bytes other than
  exactly the ones some earlier command carried with that digest.
* **Loss is safe.**  Eviction (capacity or swap pressure) and
  invalidation (worker crash/restart) only ever *remove* entries; a
  removed entry turns a later ref into a miss, which the router answers
  with ``NeedBytes`` and the guest repairs by retransmitting.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.remoting.buffers import own_bytes
from repro.remoting.xfercache import digest_payload


@dataclass
class XferStoreStats:
    """Cumulative per-store counters, for reports and assertions."""

    hits: int = 0
    misses: int = 0
    inserts: int = 0
    duplicate_inserts: int = 0
    evictions: int = 0
    evicted_bytes: int = 0
    shed_bytes: int = 0
    #: wholesale invalidations, by reason string
    clears: List[str] = field(default_factory=list)


class TransferStore:
    """Per-VM content-addressed LRU of previously seen payloads."""

    def __init__(self, vm_id: str, capacity_bytes: int,
                 capacity_entries: int, min_bytes: int = 1024,
                 max_entry_bytes: int = 16 * 1024 * 1024) -> None:
        if capacity_bytes < 1:
            raise ValueError(
                f"capacity_bytes must be >= 1, got {capacity_bytes}"
            )
        if capacity_entries < 1:
            raise ValueError(
                f"capacity_entries must be >= 1, got {capacity_entries}"
            )
        self.vm_id = vm_id
        self.capacity_bytes = capacity_bytes
        self.capacity_entries = capacity_entries
        #: payload-size eligibility window — must mirror the guest's
        #: :class:`~repro.remoting.xfercache.CachePolicy` bounds so a
        #: shared-index probe hit implies the router seeded the bytes
        self.min_bytes = min_bytes
        self.max_entry_bytes = max_entry_bytes
        self._entries: "OrderedDict[bytes, bytes]" = OrderedDict()
        self.bytes_used = 0
        #: bumped on every :meth:`clear` — lets tests and the guest-side
        #: cache detect wholesale invalidation
        self.generation = 0
        self.stats = XferStoreStats()

    def __len__(self) -> int:
        return len(self._entries)

    # -- lookups -----------------------------------------------------------

    def has(self, digest: bytes) -> bool:
        """Membership probe; does not touch LRU order or counters."""
        return digest in self._entries

    def get(self, digest: bytes) -> Optional[bytes]:
        """Resolve a digest to payload bytes, refreshing LRU order."""
        data = self._entries.get(digest)
        if data is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(digest)
        self.stats.hits += 1
        return data

    # -- mutation ----------------------------------------------------------

    def insert(self, data: bytes,
               digest: Optional[bytes] = None) -> Optional[bytes]:
        """Remember one payload; returns the bytes the store keeps for
        it, which a caller holding the payload past the call can keep
        instead of a copy of its own.

        The digest is computed here, from the bytes actually received —
        never trusted from the wire.  The one exception is ``digest``:
        the key this store itself just served ``data`` under (the
        router refreshing a resolved ref), which it verified when the
        bytes first came in.  Payloads that could not fit even in an
        empty store are refused (returns ``None``) rather than flushing
        the entire working set.
        """
        if len(data) > min(self.capacity_bytes, self.max_entry_bytes):
            return None
        if digest is None:
            digest = digest_payload(data)
        kept = self._entries.get(digest)
        if kept is not None:
            self._entries.move_to_end(digest)
            self.stats.duplicate_inserts += 1
            return kept
        # the store outlives the call: copy, but only what it keeps
        kept = self._entries[digest] = own_bytes(data)
        self.bytes_used += len(data)
        self.stats.inserts += 1
        while (self.bytes_used > self.capacity_bytes
               or len(self._entries) > self.capacity_entries):
            self._evict_one()
        return kept

    def _evict_one(self) -> int:
        evicted_digest, evicted = self._entries.popitem(last=False)
        self.bytes_used -= len(evicted)
        self.stats.evictions += 1
        self.stats.evicted_bytes += len(evicted)
        return len(evicted)

    def shed(self, nbytes: int) -> int:
        """Give back at least ``nbytes`` to relieve memory pressure.

        Wired to ``server/swap.py`` pressure listeners: when the
        device-memory swap manager has to make room, the transfer store
        is a cache and sheds first.  Returns the bytes actually freed.
        """
        freed = 0
        while freed < nbytes and self._entries:
            freed += self._evict_one()
        self.stats.shed_bytes += freed
        return freed

    def attach_to_swap(self, manager: object) -> None:
        """Register with a swap manager's pressure listeners.

        After this, any device-memory shortfall the manager has to
        resolve (``_make_room``) first sheds cached payloads here —
        cached bytes are reconstructible from the guest, application
        buffers are not.
        """
        manager.pressure_listeners.append(self.shed)  # type: ignore[attr-defined]

    def clear(self, reason: str) -> None:
        """Wholesale invalidation (worker crash, restart, migration)."""
        self._entries.clear()
        self.bytes_used = 0
        self.generation += 1
        self.stats.clears.append(reason)

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        return {
            "vm_id": self.vm_id,
            "entries": len(self._entries),
            "bytes_used": self.bytes_used,
            "capacity_bytes": self.capacity_bytes,
            "capacity_entries": self.capacity_entries,
            "generation": self.generation,
            "hits": self.stats.hits,
            "misses": self.stats.misses,
            "inserts": self.stats.inserts,
            "evictions": self.stats.evictions,
            "shed_bytes": self.stats.shed_bytes,
            "clears": len(self.stats.clears),
        }
