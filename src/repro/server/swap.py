"""Device-memory oversubscription by swapping (paper §4.3).

AvA "avoids exposing out-of-memory conditions to contending guest VMs by
supporting memory swapping at buffer object granularity, which reduces
overhead and driver modification relative to page- or chunk-based
management".  Both designs are implemented here as
:class:`~repro.opencl.runtime.MemoryManager` plug-ins so the benchmark
can compare them on the same workload:

* :class:`ObjectSwapManager` — evict/restore whole buffer objects; one
  DMA per object.
* :class:`PageSwapManager` — the page-granularity baseline; every page
  movement pays a fault-handling fixed cost, as a driver-level pager
  would.

Both see the same whole-buffer access stream (OpenCL commands name
buffer objects, not pages), which is precisely the paper's argument for
object granularity being the natural unit at this interposition layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List

from repro.opencl.errors import CLError
from repro.opencl.runtime import MemObject, MemoryManager
from repro.opencl import types


@dataclass
class SwapStats:
    """Traffic and stall accounting for one manager."""

    swap_in_ops: int = 0
    swap_out_ops: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    stall_seconds: float = 0.0
    evictions: int = 0

    @property
    def total_ops(self) -> int:
        return self.swap_in_ops + self.swap_out_ops


class _SwapManagerBase(MemoryManager):
    """Shared residency bookkeeping for both granularities.

    Residency is billed on the device's one ledger, under the session
    that allocated, so every tenant of a shared device sees the same
    free space; a manager evicts only its own buffers, kept here in the
    order they became resident for the LRU choice.
    """

    def __init__(self) -> None:
        self.stats = SwapStats()
        self._resident: List[MemObject] = []
        #: called with the byte shortfall whenever eviction is needed;
        #: pure caches (e.g. the transfer store) register here to shed
        #: before application data gets swapped out
        self.pressure_listeners: List[Callable[[int], int]] = []

    def _victims(self, needed: int, skip: MemObject) -> List[MemObject]:
        """LRU victims freeing at least ``needed`` bytes."""
        candidates = sorted(
            (m for m in self._resident if m is not skip),
            key=lambda m: m.last_access,
        )
        chosen: List[MemObject] = []
        freed = 0
        for victim in candidates:
            if freed >= needed:
                break
            chosen.append(victim)
            freed += victim.size
        if freed < needed:
            raise CLError(
                types.CL_MEM_OBJECT_ALLOCATION_FAILURE,
                f"cannot free {needed} bytes even after evicting everything",
            )
        return chosen

    def _make_room(self, mem: MemObject) -> float:
        device = mem.device
        if mem.size > device.capacity:
            raise CLError(
                types.CL_MEM_OBJECT_ALLOCATION_FAILURE,
                f"buffer of {mem.size} bytes exceeds device capacity "
                f"{device.capacity}",
            )
        needed = device.allocated_bytes + mem.size - device.capacity
        wait = 0.0
        if needed > 0:
            # pure caches shed first: their bytes are reconstructible
            # from the guest, unlike application buffers which must be
            # DMA'd out.  Listener sheds are free (dropped, not copied)
            # and don't change residency accounting — they relieve the
            # server process's memory, not the device's.
            for listener in self.pressure_listeners:
                listener(needed)
            for victim in self._victims(needed, skip=mem):
                wait += self._swap_out(victim)
        return wait

    def _set_resident(self, mem: MemObject) -> None:
        mem.device.allocate(mem.context.session, mem.size)
        self._resident.append(mem)
        mem.resident = True

    def _set_evicted(self, mem: MemObject) -> None:
        self._release(mem)
        self.stats.evictions += 1

    def _release(self, mem: MemObject) -> None:
        mem.device.free(mem.context.session, mem.size)
        self._resident.remove(mem)
        mem.resident = False

    # granularity-specific transfer costs --------------------------------------

    def _swap_out(self, mem: MemObject) -> float:
        raise NotImplementedError

    def _swap_in(self, mem: MemObject) -> float:
        raise NotImplementedError

    # MemoryManager interface ---------------------------------------------------

    def on_alloc(self, mem: MemObject) -> float:
        wait = self._make_room(mem)
        self._set_resident(mem)
        self.stats.stall_seconds += wait
        return wait

    def on_access(self, mem: MemObject) -> float:
        if mem.resident:
            return 0.0
        wait = self._make_room(mem)
        wait += self._swap_in(mem)
        self._set_resident(mem)
        self.stats.stall_seconds += wait
        return wait

    def on_free(self, mem: MemObject) -> None:
        if mem.resident:
            self._release(mem)


class ObjectSwapManager(_SwapManagerBase):
    """Buffer-object granularity: one DMA moves the whole object."""

    def _swap_out(self, mem: MemObject) -> float:
        self._set_evicted(mem)
        self.stats.swap_out_ops += 1
        self.stats.bytes_out += mem.size
        return mem.device.copy_cost(mem.size)

    def _swap_in(self, mem: MemObject) -> float:
        self.stats.swap_in_ops += 1
        self.stats.bytes_in += mem.size
        return mem.device.copy_cost(mem.size)


class PageSwapManager(_SwapManagerBase):
    """Page granularity baseline: per-page fault + transfer costs."""

    #: seconds of driver-level page-fault handling and per-page DMA
    #: descriptor setup that chunk/page designs (GPUswap, RSVM-style)
    #: pay on every page moved
    fault_cost = 3.0e-6

    def __init__(self, page_bytes: int = 4096) -> None:
        super().__init__()
        if page_bytes <= 0:
            raise ValueError("page size must be positive")
        self.page_bytes = page_bytes

    def _pages(self, mem: MemObject) -> int:
        return max(1, math.ceil(mem.size / self.page_bytes))

    def _transfer(self, mem: MemObject) -> float:
        pages = self._pages(mem)
        per_page = mem.device.copy_cost(self.page_bytes)
        return pages * (self.fault_cost + per_page)

    def _swap_out(self, mem: MemObject) -> float:
        self._set_evicted(mem)
        pages = self._pages(mem)
        self.stats.swap_out_ops += pages
        self.stats.bytes_out += mem.size
        return self._transfer(mem)

    def _swap_in(self, mem: MemObject) -> float:
        pages = self._pages(mem)
        self.stats.swap_in_ops += pages
        self.stats.bytes_in += mem.size
        return self._transfer(mem)
