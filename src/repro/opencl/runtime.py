"""Object model and execution engine of the mini-OpenCL runtime.

This module is the "user-mode driver" layer of the simulated silo: it
owns platforms, contexts, queues, memory objects, programs, kernels and
events, and executes queue operations against a :class:`SimulatedGPU`.

A :class:`Session` (a :class:`~repro.native.NativeSession`) binds the
runtime to a caller clock and a device set; the top of its stack is
what the C-shaped API layer operates on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.native import NativeSession
from repro.opencl.device import SimulatedGPU
from repro.opencl.errors import CLError, check
from repro.opencl.kernels import (
    BUFFER,
    LOCAL,
    SCALAR,
    KernelImpl,
    LaunchContext,
    build_program,
    declared_kernels,
)
from repro.opencl import types


class MemoryManager:
    """Device-memory policy hook (overridden by AvA's swap manager).

    The default manager maps buffer lifecycle directly onto the device
    ledger and never swaps: allocation failures surface as OpenCL
    out-of-memory errors, as on real hardware without AvA.
    """

    def on_alloc(self, mem: "MemObject") -> float:
        mem.device.allocate(mem.context.session, mem.size)
        mem.resident = True
        return 0.0

    def on_access(self, mem: "MemObject") -> float:
        """Called before any device op touching ``mem``; returns extra
        virtual seconds the op must wait (e.g. swap-in time)."""
        return 0.0

    def on_free(self, mem: "MemObject") -> None:
        if mem.resident:
            mem.device.free(mem.context.session, mem.size)
            mem.resident = False


@dataclass(eq=False)
class Session(NativeSession):
    """One caller's binding to the simulated platform.

    ``handle_resolver`` lets an embedding server translate guest handle
    ints that appear in ambiguous positions (``clSetKernelArg``).
    """

    stack = []
    device = SimulatedGPU
    clock_name = "app"
    call_overhead = 0.2e-6

    platform_name: str = "AvA Reproduction Platform"
    handle_resolver: Optional[Callable[[int], Any]] = None
    memory_manager: MemoryManager = field(default_factory=MemoryManager)

    def __post_init__(self) -> None:
        super().__post_init__()
        self.platform = Platform(self.platform_name, self.devices)


#: ``with session(...):``, the name ``benchmarks/observatory`` imports
session = Session.opened


# ---------------------------------------------------------------------------
# object model
# ---------------------------------------------------------------------------


class CLObject:
    """Base for reference-counted runtime objects."""

    def __init__(self) -> None:
        self.refcount = 1
        self.released = False

    def retain(self) -> None:
        self._check_alive()
        self.refcount += 1

    def release(self) -> bool:
        """Drop one reference; returns True if the object was destroyed."""
        self._check_alive()
        self.refcount -= 1
        if self.refcount == 0:
            self.released = True
            self._destroy()
            return True
        return False

    def _destroy(self) -> None:
        pass

    def _check_alive(self) -> None:
        if self.released:
            raise CLError(
                types.CL_INVALID_VALUE,
                f"use of released {type(self).__name__}",
            )


class Platform:
    def __init__(self, name: str, devices: Sequence[SimulatedGPU]) -> None:
        self.name = name
        self.vendor = "AvA reproduction"
        self.version = "OpenCL 1.2 repro"
        self.profile = "FULL_PROFILE"
        self.devices = list(devices)


class Context(CLObject):
    def __init__(self, session_: Session, devices: Sequence[SimulatedGPU]) -> None:
        super().__init__()
        check(bool(devices), types.CL_INVALID_VALUE, "context needs devices")
        for device in devices:
            check(device in session_.platform.devices, types.CL_INVALID_DEVICE,
                  "device does not belong to the session platform")
        self.session = session_
        self.devices = list(devices)


class CommandQueue(CLObject):
    def __init__(self, context: Context, device: SimulatedGPU,
                 properties: int = 0) -> None:
        super().__init__()
        check(device in context.devices, types.CL_INVALID_DEVICE,
              "queue device not in context")
        self.context = context
        self.device = device
        self.properties = properties
        #: completion time of the last operation enqueued on this queue
        self.last_complete: float = 0.0
        #: events of not-yet-finished operations (cleared by finish())
        self.pending: List[Event] = []

    def finish_time(self) -> float:
        return self.last_complete

    def record(self, event: "Event") -> None:
        self.last_complete = max(self.last_complete, event.end)
        self.pending.append(event)

    def drain(self) -> None:
        self.pending.clear()


class MemObject(CLObject):
    """A buffer (or image) with host-truth storage and a residency flag."""

    def __init__(
        self,
        context: Context,
        flags: int,
        size: int,
        device: SimulatedGPU,
        kind: int = types.CL_MEM_OBJECT_BUFFER,
        shape: Optional[Tuple[int, ...]] = None,
    ) -> None:
        super().__init__()
        check(size > 0, types.CL_INVALID_BUFFER_SIZE, "size must be positive")
        self.context = context
        self.flags = flags
        self.size = size
        self.device = device
        self.kind = kind
        self.shape = shape
        self.data = np.zeros(size, dtype=np.uint8)
        self.resident = False
        #: last virtual time a device op touched this object (LRU input)
        self.last_access: float = 0.0
        swap_wait = context.session.memory_manager.on_alloc(self)
        if swap_wait:
            context.session.clock.advance(swap_wait, "swap")

    def _destroy(self) -> None:
        self.context.session.memory_manager.on_free(self)


class Program(CLObject):
    def __init__(self, context: Context, source: str) -> None:
        super().__init__()
        check(bool(source.strip()), types.CL_INVALID_VALUE, "empty source")
        self.context = context
        self.source = source
        self.build_status = types.CL_BUILD_NONE
        self.build_log = ""
        self.kernels: Dict[str, KernelImpl] = {}

    def build(self, options: str = "") -> None:
        try:
            self.kernels, self.build_log = build_program(self.source, options)
            self.build_status = types.CL_BUILD_SUCCESS
        except CLError as err:
            self.build_status = types.CL_BUILD_ERROR
            self.build_log = str(err)
            raise

    @property
    def kernel_names(self) -> List[str]:
        if self.build_status == types.CL_BUILD_SUCCESS:
            return sorted(self.kernels)
        return declared_kernels(self.source)


_UNSET = object()


class Kernel(CLObject):
    def __init__(self, program: Program, name: str) -> None:
        super().__init__()
        check(program.build_status == types.CL_BUILD_SUCCESS,
              types.CL_INVALID_PROGRAM_EXECUTABLE,
              "program is not built")
        impl = program.kernels.get(name)
        check(impl is not None, types.CL_INVALID_KERNEL_NAME,
              f"no kernel {name!r} in program")
        self.program = program
        self.name = name
        self.impl: KernelImpl = impl
        self.args: List[Any] = [_UNSET] * impl.num_args

    def set_arg(self, index: int, value: Any) -> None:
        check(0 <= index < self.impl.num_args, types.CL_INVALID_ARG_INDEX,
              f"kernel {self.name!r} has {self.impl.num_args} args")
        kind = self.impl.arg_kinds[index]
        if kind == BUFFER:
            if isinstance(value, MemObject):
                check(not value.released, types.CL_INVALID_MEM_OBJECT,
                      "buffer argument was released")
            elif isinstance(value, int):
                resolver = Session.current().handle_resolver
                check(resolver is not None, types.CL_INVALID_ARG_VALUE,
                      f"kernel {self.name!r} arg {index} expects a buffer")
                value = resolver(value)
                check(isinstance(value, MemObject), types.CL_INVALID_ARG_VALUE,
                      "handle does not name a memory object")
            else:
                raise CLError(
                    types.CL_INVALID_ARG_VALUE,
                    f"kernel {self.name!r} arg {index} expects a buffer",
                )
        elif kind == SCALAR:
            check(isinstance(value, (int, float, np.integer, np.floating)),
                  types.CL_INVALID_ARG_VALUE,
                  f"kernel {self.name!r} arg {index} expects a scalar")
        elif kind == LOCAL:
            check(isinstance(value, int) and value > 0,
                  types.CL_INVALID_ARG_SIZE,
                  "local-memory argument takes a positive byte count")
        self.args[index] = value

    def args_ready(self) -> bool:
        return all(arg is not _UNSET for arg in self.args)


@dataclass
class Event:
    """Completion record of one enqueued operation (profiling source)."""

    category: str
    queued: float
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


# ---------------------------------------------------------------------------
# queue operations
# ---------------------------------------------------------------------------


def _touch(mem: MemObject, not_before: float) -> float:
    """Run residency hooks; returns the op's earliest start time."""
    wait = mem.context.session.memory_manager.on_access(mem)
    mem.last_access = max(mem.last_access, not_before + wait)
    return not_before + wait


def enqueue_write(
    queue: CommandQueue,
    mem: MemObject,
    offset: int,
    size: int,
    payload: bytes,
    blocking: bool,
) -> Event:
    """Host → device copy.  Data lands immediately (host truth); timing
    follows the blocking flag."""
    check(offset >= 0 and size >= 0 and offset + size <= mem.size,
          types.CL_INVALID_VALUE,
          f"write range [{offset}, {offset + size}) outside buffer "
          f"of {mem.size} bytes")
    check(len(payload) >= size, types.CL_INVALID_VALUE,
          "payload shorter than declared size")
    sess = mem.context.session
    ready = _touch(mem, sess.clock.now)
    cost = queue.device.copy_cost(size)
    timer = queue.device.occupy(cost, ready, "h2d_copy")
    mem.data[offset:offset + size] = np.frombuffer(
        payload[:size], dtype=np.uint8
    )
    event = Event("h2d_copy", queued=sess.clock.now, start=timer.start,
                  end=timer.end)
    queue.record(event)
    if blocking:
        sess.clock.advance_to(event.end, "copy_wait")
    return event


def enqueue_read(
    queue: CommandQueue,
    mem: MemObject,
    offset: int,
    size: int,
    blocking: bool,
) -> Tuple[memoryview, Event]:
    """Device → host copy; returns the bytes read, as a view of device
    memory the caller copies out of before its API call returns."""
    check(offset >= 0 and size >= 0 and offset + size <= mem.size,
          types.CL_INVALID_VALUE,
          f"read range [{offset}, {offset + size}) outside buffer "
          f"of {mem.size} bytes")
    sess = mem.context.session
    ready = _touch(mem, sess.clock.now)
    cost = queue.device.copy_cost(size)
    timer = queue.device.occupy(cost, ready, "d2h_copy")
    payload = memoryview(mem.data)[offset:offset + size]
    event = Event("d2h_copy", queued=sess.clock.now, start=timer.start,
                  end=timer.end)
    queue.record(event)
    if blocking:
        sess.clock.advance_to(event.end, "copy_wait")
    return payload, event


def enqueue_copy(
    queue: CommandQueue,
    src: MemObject,
    dst: MemObject,
    src_offset: int,
    dst_offset: int,
    size: int,
) -> Event:
    check(src_offset + size <= src.size and dst_offset + size <= dst.size,
          types.CL_INVALID_VALUE, "copy range outside buffer")
    sess = src.context.session
    ready = max(_touch(src, sess.clock.now), _touch(dst, sess.clock.now))
    cost = queue.device.device_copy_cost(size)
    timer = queue.device.occupy(cost, ready, "d2d_copy")
    dst.data[dst_offset:dst_offset + size] = src.data[
        src_offset:src_offset + size
    ]
    event = Event("d2d_copy", queued=sess.clock.now, start=timer.start,
                  end=timer.end)
    queue.record(event)
    return event


def enqueue_fill(
    queue: CommandQueue,
    mem: MemObject,
    pattern: bytes,
    offset: int,
    size: int,
) -> Event:
    check(bool(pattern), types.CL_INVALID_VALUE, "empty fill pattern")
    check(size % len(pattern) == 0, types.CL_INVALID_VALUE,
          "fill size must be a multiple of the pattern size")
    check(offset + size <= mem.size, types.CL_INVALID_VALUE,
          "fill range outside buffer")
    sess = mem.context.session
    ready = _touch(mem, sess.clock.now)
    cost = queue.device.device_copy_cost(size) / 2  # write-only traffic
    timer = queue.device.occupy(cost, ready, "fill")
    mem.data[offset:offset + size] = np.tile(
        np.frombuffer(pattern, dtype=np.uint8), size // len(pattern))
    event = Event("fill", queued=sess.clock.now, start=timer.start,
                  end=timer.end)
    queue.record(event)
    return event


def enqueue_ndrange(
    queue: CommandQueue,
    kernel: Kernel,
    global_size: Sequence[int],
    local_size: Optional[Sequence[int]] = None,
) -> Event:
    """Launch a kernel: execute the numpy implementation, charge virtual
    time from the device cost model."""
    check(1 <= len(global_size) <= 3, types.CL_INVALID_WORK_DIMENSION,
          "work dimension must be 1..3")
    check(all(g > 0 for g in global_size), types.CL_INVALID_WORK_ITEM_SIZE,
          "global work sizes must be positive")
    if local_size is not None:
        check(len(local_size) == len(global_size),
              types.CL_INVALID_WORK_GROUP_SIZE,
              "local_size dimensionality mismatch")
        group = 1
        for g, l in zip(global_size, local_size):
            check(l > 0 and g % l == 0, types.CL_INVALID_WORK_GROUP_SIZE,
                  f"global size {g} not divisible by local size {l}")
            group *= l
        check(group <= queue.device.spec.max_work_group_size,
              types.CL_INVALID_WORK_GROUP_SIZE,
              "work group exceeds device maximum")
    check(kernel.args_ready(), types.CL_INVALID_KERNEL_ARGS,
          f"kernel {kernel.name!r} has unset arguments")

    sess = kernel.program.context.session
    ready = sess.clock.now
    for arg, kind in zip(kernel.args, kernel.impl.arg_kinds):
        if kind == BUFFER:
            ready = max(ready, _touch(arg, sess.clock.now))

    ctx = LaunchContext(
        global_size=tuple(int(g) for g in global_size),
        local_size=tuple(int(l) for l in local_size) if local_size else None,
        args=list(kernel.args),
    )
    kernel.impl.fn(ctx)

    cost = queue.device.kernel_cost(kernel.impl.cost, ctx.work_items)
    timer = queue.device.occupy(cost, ready, "kernel")
    event = Event("kernel", queued=sess.clock.now, start=timer.start,
                  end=timer.end)
    queue.record(event)
    return event


def finish(queue: CommandQueue) -> None:
    """Block the caller until everything on ``queue`` has completed."""
    sess = queue.context.session
    sess.clock.advance_to(queue.finish_time(), "finish_wait")
    queue.drain()
