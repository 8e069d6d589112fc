"""Opaque-handle translation between guest and host.

Guests never see host object references: every opaque handle crossing the
API boundary is translated through a per-VM :class:`HandleTable` owned by
that VM's API server worker.  This is both an isolation mechanism (a guest
cannot name another guest's objects — lookups are per-table) and the hook
used by migration (tables can be re-seeded so replayed objects keep their
guest-visible ids).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterator, List, Optional, Tuple


class HandleError(Exception):
    """Lookup of an unknown, freed, or foreign handle."""


class HandleTable:
    """Bidirectional guest-id ↔ host-object map for one VM.

    Guest ids are small integers starting at a per-table base.  The base
    is randomized-ish per VM (deterministically, from the VM id) so that
    accidentally mixing handles across VMs fails loudly in tests rather
    than aliasing.
    """

    def __init__(self, vm_id: str = "vm") -> None:
        self.vm_id = vm_id
        base = 0x1000 + (abs(hash(vm_id)) % 0x1000) * 0x10000
        self._next_id = itertools.count(base)
        self._objects: Dict[int, Any] = {}
        self._reverse: Dict[int, int] = {}
        #: total handles ever allocated (metrics / tests)
        self.allocated_total = 0

    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, guest_id: int) -> bool:
        return guest_id in self._objects

    def allocate(self, obj: Any) -> int:
        """Register a host object, returning its guest-visible id.

        Registering the same host object twice returns the existing id:
        APIs like ``clGetPlatformIDs`` legitimately hand out the same
        object repeatedly and guests compare handles by value.
        """
        if obj is None:
            raise HandleError("cannot allocate a handle for None")
        key = id(obj)
        existing = self._reverse.get(key)
        if existing is not None and self._objects.get(existing) is obj:
            return existing
        guest_id = next(self._next_id)
        while guest_id in self._objects:  # taken by a replayed allocate_as
            guest_id = next(self._next_id)
        self._objects[guest_id] = obj
        self._reverse[key] = guest_id
        self.allocated_total += 1
        return guest_id

    def allocate_as(self, guest_id: int, obj: Any) -> int:
        """Register ``obj`` under a specific guest id (migration replay)."""
        if guest_id in self._objects:
            raise HandleError(
                f"guest id {guest_id:#x} already bound in VM {self.vm_id!r}"
            )
        self._objects[guest_id] = obj
        self._reverse[id(obj)] = guest_id
        self.allocated_total += 1
        return guest_id

    def lookup(self, guest_id: int) -> Any:
        """Resolve a guest id to the host object; raises on bad handles."""
        if not isinstance(guest_id, int):
            raise HandleError(
                f"handle must be an int guest id, got {type(guest_id).__name__}"
            )
        try:
            return self._objects[guest_id]
        except KeyError:
            raise HandleError(
                f"unknown or freed handle {guest_id:#x} in VM {self.vm_id!r}"
            ) from None

    def lookup_optional(self, guest_id: Optional[int]) -> Any:
        """Like :meth:`lookup` but maps None/0 (C NULL) to None."""
        if guest_id is None or guest_id == 0:
            return None
        return self.lookup(guest_id)

    def lookup_list(self, guest_ids: Optional[List[int]]) -> Optional[List[Any]]:
        """:meth:`lookup` each id of a handle array; None stays None."""
        if guest_ids is None:
            return None
        return [self.lookup(g) for g in guest_ids]

    def free(self, guest_id: int) -> Any:
        """Remove a handle, returning the host object it named."""
        obj = self.lookup(guest_id)
        del self._objects[guest_id]
        self._reverse.pop(id(obj), None)
        return obj

    def items(self) -> Iterator[Tuple[int, Any]]:
        """Snapshot of (guest_id, host_object) pairs."""
        return iter(list(self._objects.items()))

    def live_objects(self) -> List[Any]:
        return list(self._objects.values())

    def snapshot_ids(self) -> set:
        """The set of currently live guest ids (migration invariants)."""
        return set(self._objects)

    def clear(self) -> None:
        self._objects.clear()
        self._reverse.clear()
