"""The 39-function mini-OpenCL public API (the silo's stable surface).

These functions follow the C calling convention as closely as Python
allows, because this is the exact surface AvA interposes:

* status-returning functions return the ``cl_int`` error code,
* create-functions return the object and write ``errcode_ret`` through
  an :class:`~repro.remoting.buffers.OutBox`,
* output buffers are caller-allocated numpy arrays / bytearrays filled
  in place,
* info queries use the ``(param_value_size, param_value,
  param_value_size_ret)`` triple.

Deviation from Khronos: ``clCreateImage`` takes the image format/desc
fields as flattened scalars (our header subset has no struct-by-value
parameters); semantics are unchanged.

Handles at this layer are the runtime objects themselves.  When the API
server dispatches forwarded commands, its per-VM handle table translates
guest ints to these objects before calling in here — with one documented
exception, ``clSetKernelArg``, whose ambiguous ``void *`` argument is
resolved through ``Session.handle_resolver`` (see the paper's discussion
of API semantics that cannot be expressed in C types).
"""

from __future__ import annotations

import struct
from typing import Any, List, Optional, Sequence

import numpy as np

from repro.native import set_box
from repro.opencl.device import SimulatedGPU
from repro.opencl.errors import CLError, check
from repro.opencl import runtime as rt
from repro.opencl import types
from repro.remoting.buffers import OutBox, borrow_bytes, write_back

#: the 39 functions this subset virtualizes (paper §5)
FUNCTION_NAMES = [
    "clGetPlatformIDs", "clGetPlatformInfo", "clGetDeviceIDs",
    "clGetDeviceInfo", "clCreateContext", "clRetainContext",
    "clReleaseContext", "clGetContextInfo", "clCreateCommandQueue",
    "clRetainCommandQueue", "clReleaseCommandQueue", "clGetCommandQueueInfo",
    "clCreateBuffer", "clCreateImage", "clRetainMemObject",
    "clReleaseMemObject", "clGetMemObjectInfo", "clEnqueueReadBuffer",
    "clEnqueueWriteBuffer", "clEnqueueCopyBuffer", "clEnqueueFillBuffer",
    "clCreateProgramWithSource", "clBuildProgram", "clCompileProgram",
    "clRetainProgram", "clReleaseProgram", "clGetProgramInfo",
    "clGetProgramBuildInfo", "clCreateKernel", "clCreateKernelsInProgram",
    "clSetKernelArg", "clRetainKernel", "clReleaseKernel", "clGetKernelInfo",
    "clGetKernelWorkGroupInfo", "clEnqueueNDRangeKernel", "clEnqueueTask",
    "clFlush", "clFinish",
]


_session = rt.Session.enter


def _pack_info(value: Any) -> bytes:
    if isinstance(value, bool):
        return struct.pack("<Q", int(value))
    if isinstance(value, (int, np.integer)):
        return struct.pack("<q", int(value))
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, str):
        return value.encode("utf-8") + b"\0"
    raise CLError(types.CL_INVALID_VALUE, f"cannot pack {type(value).__name__}")


def _return_info(
    value: Any,
    param_value_size: int,
    param_value: Any,
    param_value_size_ret: Optional[OutBox],
) -> int:
    packed = _pack_info(value)
    set_box(param_value_size_ret, len(packed))
    if param_value is not None:
        if param_value_size < len(packed):
            return types.CL_INVALID_VALUE
        write_back(param_value, packed)
    return types.CL_SUCCESS


def _expect(obj: Any, cls: type, code: int) -> Any:
    if not isinstance(obj, cls) or (
            isinstance(obj, rt.CLObject) and obj.released):
        raise CLError(code, f"expected a live {cls.__name__}")
    return obj


# ---------------------------------------------------------------------------
# platform & device
# ---------------------------------------------------------------------------


def clGetPlatformIDs(num_entries: int, platforms: Optional[list],
                     num_platforms: Optional[OutBox]) -> int:
    sess = _session()
    available = [sess.platform]
    if platforms is None and num_platforms is None:
        return types.CL_INVALID_VALUE
    if platforms is not None:
        if num_entries < 1:
            return types.CL_INVALID_VALUE
        for i, plat in enumerate(available[:num_entries]):
            platforms[i] = plat
    set_box(num_platforms, len(available))
    return types.CL_SUCCESS


def clGetPlatformInfo(platform: rt.Platform, param_name: int,
                      param_value_size: int, param_value: Any,
                      param_value_size_ret: Optional[OutBox]) -> int:
    _session()
    try:
        _expect(platform, rt.Platform, types.CL_INVALID_PLATFORM)
        value = {
            types.CL_PLATFORM_NAME: platform.name,
            types.CL_PLATFORM_VENDOR: platform.vendor,
            types.CL_PLATFORM_VERSION: platform.version,
            types.CL_PLATFORM_PROFILE: platform.profile,
        }.get(param_name)
        if value is None:
            return types.CL_INVALID_VALUE
        return _return_info(value, param_value_size, param_value,
                            param_value_size_ret)
    except CLError as err:
        return err.code


def clGetDeviceIDs(platform: rt.Platform, device_type: int, num_entries: int,
                   devices: Optional[list],
                   num_devices: Optional[OutBox]) -> int:
    _session()
    try:
        _expect(platform, rt.Platform, types.CL_INVALID_PLATFORM)
    except CLError as err:
        return err.code
    matches = [
        dev for dev in platform.devices
        if device_type in (types.CL_DEVICE_TYPE_ALL, types.CL_DEVICE_TYPE_DEFAULT)
        or (dev.spec.device_type & device_type)
    ]
    if not matches:
        return types.CL_DEVICE_NOT_FOUND
    if devices is not None:
        if num_entries < 1:
            return types.CL_INVALID_VALUE
        for i, dev in enumerate(matches[:num_entries]):
            devices[i] = dev
    set_box(num_devices, len(matches))
    return types.CL_SUCCESS


def clGetDeviceInfo(device: SimulatedGPU, param_name: int,
                    param_value_size: int, param_value: Any,
                    param_value_size_ret: Optional[OutBox]) -> int:
    _session()
    try:
        _expect(device, SimulatedGPU, types.CL_INVALID_DEVICE)
        spec = device.spec
        value = {
            types.CL_DEVICE_TYPE: spec.device_type,
            types.CL_DEVICE_NAME: spec.name,
            types.CL_DEVICE_VENDOR: spec.vendor,
            types.CL_DEVICE_VERSION: "OpenCL 1.2 repro",
            types.CL_DEVICE_MAX_COMPUTE_UNITS: spec.compute_units,
            types.CL_DEVICE_MAX_CLOCK_FREQUENCY: spec.clock_mhz,
            types.CL_DEVICE_GLOBAL_MEM_SIZE: spec.global_mem_bytes,
            types.CL_DEVICE_LOCAL_MEM_SIZE: spec.local_mem_bytes,
            types.CL_DEVICE_MAX_WORK_GROUP_SIZE: spec.max_work_group_size,
        }.get(param_name)
        if value is None:
            return types.CL_INVALID_VALUE
        return _return_info(value, param_value_size, param_value,
                            param_value_size_ret)
    except CLError as err:
        return err.code


# ---------------------------------------------------------------------------
# context
# ---------------------------------------------------------------------------


def clCreateContext(properties: Any, num_devices: int,
                    devices: Sequence[SimulatedGPU], pfn_notify: Any,
                    user_data: Any,
                    errcode_ret: Optional[OutBox]) -> Optional[rt.Context]:
    sess = _session()
    try:
        check(devices is not None and num_devices >= 1,
              types.CL_INVALID_VALUE, "no devices given")
        context = rt.Context(sess, list(devices)[:num_devices])
        set_box(errcode_ret, types.CL_SUCCESS)
        return context
    except CLError as err:
        set_box(errcode_ret, err.code)
        return None


def clRetainContext(context: rt.Context) -> int:
    _session()
    try:
        _expect(context, rt.Context, types.CL_INVALID_CONTEXT).retain()
        return types.CL_SUCCESS
    except CLError as err:
        return err.code


def clReleaseContext(context: rt.Context) -> int:
    _session()
    try:
        _expect(context, rt.Context, types.CL_INVALID_CONTEXT).release()
        return types.CL_SUCCESS
    except CLError as err:
        return err.code


def clGetContextInfo(context: rt.Context, param_name: int,
                     param_value_size: int, param_value: Any,
                     param_value_size_ret: Optional[OutBox]) -> int:
    _session()
    try:
        ctx = _expect(context, rt.Context, types.CL_INVALID_CONTEXT)
        value = {
            types.CL_CONTEXT_REFERENCE_COUNT: ctx.refcount,
            types.CL_CONTEXT_NUM_DEVICES: len(ctx.devices),
        }.get(param_name)
        if value is None:
            return types.CL_INVALID_VALUE
        return _return_info(value, param_value_size, param_value,
                            param_value_size_ret)
    except CLError as err:
        return err.code


# ---------------------------------------------------------------------------
# command queue
# ---------------------------------------------------------------------------


def clCreateCommandQueue(context: rt.Context, device: SimulatedGPU,
                         properties: int,
                         errcode_ret: Optional[OutBox]) -> Optional[rt.CommandQueue]:
    _session()
    try:
        ctx = _expect(context, rt.Context, types.CL_INVALID_CONTEXT)
        queue = rt.CommandQueue(ctx, device, properties)
        set_box(errcode_ret, types.CL_SUCCESS)
        return queue
    except CLError as err:
        set_box(errcode_ret, err.code)
        return None


def clRetainCommandQueue(command_queue: rt.CommandQueue) -> int:
    _session()
    try:
        _expect(command_queue, rt.CommandQueue,
                types.CL_INVALID_COMMAND_QUEUE).retain()
        return types.CL_SUCCESS
    except CLError as err:
        return err.code


def clReleaseCommandQueue(command_queue: rt.CommandQueue) -> int:
    _session()
    try:
        queue = _expect(command_queue, rt.CommandQueue,
                        types.CL_INVALID_COMMAND_QUEUE)
        rt.finish(queue)
        queue.release()
        return types.CL_SUCCESS
    except CLError as err:
        return err.code


def clGetCommandQueueInfo(command_queue: rt.CommandQueue, param_name: int,
                          param_value_size: int, param_value: Any,
                          param_value_size_ret: Optional[OutBox]) -> int:
    _session()
    try:
        queue = _expect(command_queue, rt.CommandQueue,
                        types.CL_INVALID_COMMAND_QUEUE)
        value = {
            types.CL_QUEUE_REFERENCE_COUNT: queue.refcount,
            types.CL_QUEUE_PROPERTIES: queue.properties,
        }.get(param_name)
        if value is None:
            return types.CL_INVALID_VALUE
        return _return_info(value, param_value_size, param_value,
                            param_value_size_ret)
    except CLError as err:
        return err.code


# ---------------------------------------------------------------------------
# memory objects
# ---------------------------------------------------------------------------


def clCreateBuffer(context: rt.Context, flags: int, size: int, host_ptr: Any,
                   errcode_ret: Optional[OutBox]) -> Optional[rt.MemObject]:
    sess = _session()
    try:
        ctx = _expect(context, rt.Context, types.CL_INVALID_CONTEXT)
        needs_host = flags & (types.CL_MEM_COPY_HOST_PTR | types.CL_MEM_USE_HOST_PTR)
        check(not (needs_host and host_ptr is None), types.CL_INVALID_VALUE,
              "flags require host_ptr")
        mem = rt.MemObject(ctx, flags, int(size), ctx.devices[0])
        if needs_host:
            payload = borrow_bytes(host_ptr, limit=int(size))
            mem.data[:len(payload)] = np.frombuffer(payload, dtype=np.uint8)
            # initializing from host memory is a synchronous H2D copy
            timer = mem.device.occupy(
                mem.device.copy_cost(len(payload)), sess.clock.now,
                "h2d_copy",
            )
            sess.clock.advance_to(timer.end, "copy_wait")
        set_box(errcode_ret, types.CL_SUCCESS)
        return mem
    except CLError as err:
        set_box(errcode_ret, err.code)
        return None


def clCreateImage(context: rt.Context, flags: int, image_channel_order: int,
                  image_channel_data_type: int, image_width: int,
                  image_height: int, host_ptr: Any,
                  errcode_ret: Optional[OutBox]) -> Optional[rt.MemObject]:
    sess = _session()
    try:
        ctx = _expect(context, rt.Context, types.CL_INVALID_CONTEXT)
        check(image_width > 0 and image_height > 0,
              types.CL_INVALID_IMAGE_SIZE, "image dimensions must be positive")
        channels = {types.CL_R: 1, types.CL_RGBA: 4}.get(image_channel_order)
        check(channels is not None, types.CL_INVALID_IMAGE_FORMAT_DESCRIPTOR,
              "unsupported channel order")
        elem = {types.CL_FLOAT: 4, types.CL_UNSIGNED_INT8: 1}.get(
            image_channel_data_type)
        check(elem is not None, types.CL_INVALID_IMAGE_FORMAT_DESCRIPTOR,
              "unsupported channel data type")
        size = int(image_width) * int(image_height) * channels * elem
        mem = rt.MemObject(
            ctx, flags, size, ctx.devices[0],
            kind=types.CL_MEM_OBJECT_IMAGE2D,
            shape=(int(image_height), int(image_width), channels),
        )
        if host_ptr is not None and flags & types.CL_MEM_COPY_HOST_PTR:
            payload = borrow_bytes(host_ptr, limit=size)
            mem.data[:len(payload)] = np.frombuffer(payload, dtype=np.uint8)
            timer = mem.device.occupy(
                mem.device.copy_cost(len(payload)), sess.clock.now,
                "h2d_copy",
            )
            sess.clock.advance_to(timer.end, "copy_wait")
        set_box(errcode_ret, types.CL_SUCCESS)
        return mem
    except CLError as err:
        set_box(errcode_ret, err.code)
        return None


def clRetainMemObject(memobj: rt.MemObject) -> int:
    _session()
    try:
        _expect(memobj, rt.MemObject, types.CL_INVALID_MEM_OBJECT).retain()
        return types.CL_SUCCESS
    except CLError as err:
        return err.code


def clReleaseMemObject(memobj: rt.MemObject) -> int:
    _session()
    try:
        _expect(memobj, rt.MemObject, types.CL_INVALID_MEM_OBJECT).release()
        return types.CL_SUCCESS
    except CLError as err:
        return err.code


def clGetMemObjectInfo(memobj: rt.MemObject, param_name: int,
                       param_value_size: int, param_value: Any,
                       param_value_size_ret: Optional[OutBox]) -> int:
    _session()
    try:
        mem = _expect(memobj, rt.MemObject, types.CL_INVALID_MEM_OBJECT)
        value = {
            types.CL_MEM_TYPE: mem.kind,
            types.CL_MEM_FLAGS: mem.flags,
            types.CL_MEM_SIZE: mem.size,
            types.CL_MEM_REFERENCE_COUNT: mem.refcount,
        }.get(param_name)
        if value is None:
            return types.CL_INVALID_VALUE
        return _return_info(value, param_value_size, param_value,
                            param_value_size_ret)
    except CLError as err:
        return err.code


# ---------------------------------------------------------------------------
# transfers
# ---------------------------------------------------------------------------


def _check_wait_list(num_events: int, wait_list: Any) -> None:
    if num_events:
        check(wait_list is not None and len(wait_list) >= num_events,
              types.CL_INVALID_EVENT_WAIT_LIST,
              "wait list shorter than declared count")
    else:
        check(wait_list is None or len(wait_list) == 0,
              types.CL_INVALID_EVENT_WAIT_LIST,
              "wait list present but count is zero")


def clEnqueueReadBuffer(command_queue: rt.CommandQueue, buf: rt.MemObject,
                        blocking_read: int, offset: int, size: int, ptr: Any,
                        num_events_in_wait_list: int = 0,
                        event_wait_list: Any = None,
                        event: Optional[OutBox] = None) -> int:
    _session()
    try:
        queue = _expect(command_queue, rt.CommandQueue,
                        types.CL_INVALID_COMMAND_QUEUE)
        mem = _expect(buf, rt.MemObject, types.CL_INVALID_MEM_OBJECT)
        check(ptr is not None, types.CL_INVALID_VALUE, "ptr is NULL")
        _check_wait_list(num_events_in_wait_list, event_wait_list)
        payload, evt = rt.enqueue_read(
            queue, mem, int(offset), int(size), bool(blocking_read)
        )
        write_back(ptr, payload)
        set_box(event, evt)
        return types.CL_SUCCESS
    except CLError as err:
        return err.code


def clEnqueueWriteBuffer(command_queue: rt.CommandQueue, buf: rt.MemObject,
                         blocking_write: int, offset: int, size: int,
                         ptr: Any, num_events_in_wait_list: int = 0,
                         event_wait_list: Any = None,
                         event: Optional[OutBox] = None) -> int:
    _session()
    try:
        queue = _expect(command_queue, rt.CommandQueue,
                        types.CL_INVALID_COMMAND_QUEUE)
        mem = _expect(buf, rt.MemObject, types.CL_INVALID_MEM_OBJECT)
        check(ptr is not None, types.CL_INVALID_VALUE, "ptr is NULL")
        _check_wait_list(num_events_in_wait_list, event_wait_list)
        payload = borrow_bytes(ptr, limit=int(size))
        check(len(payload) >= int(size), types.CL_INVALID_VALUE,
              "host buffer smaller than write size")
        evt = rt.enqueue_write(
            queue, mem, int(offset), int(size), payload, bool(blocking_write)
        )
        set_box(event, evt)
        return types.CL_SUCCESS
    except CLError as err:
        return err.code


def clEnqueueCopyBuffer(command_queue: rt.CommandQueue, src: rt.MemObject,
                        dst: rt.MemObject, src_offset: int, dst_offset: int,
                        size: int, num_events_in_wait_list: int = 0,
                        event_wait_list: Any = None,
                        event: Optional[OutBox] = None) -> int:
    _session()
    try:
        queue = _expect(command_queue, rt.CommandQueue,
                        types.CL_INVALID_COMMAND_QUEUE)
        src_mem = _expect(src, rt.MemObject, types.CL_INVALID_MEM_OBJECT)
        dst_mem = _expect(dst, rt.MemObject, types.CL_INVALID_MEM_OBJECT)
        _check_wait_list(num_events_in_wait_list, event_wait_list)
        evt = rt.enqueue_copy(queue, src_mem, dst_mem, int(src_offset),
                              int(dst_offset), int(size))
        set_box(event, evt)
        return types.CL_SUCCESS
    except CLError as err:
        return err.code


def clEnqueueFillBuffer(command_queue: rt.CommandQueue, buf: rt.MemObject,
                        pattern: Any, pattern_size: int, offset: int,
                        size: int, num_events_in_wait_list: int = 0,
                        event_wait_list: Any = None,
                        event: Optional[OutBox] = None) -> int:
    _session()
    try:
        queue = _expect(command_queue, rt.CommandQueue,
                        types.CL_INVALID_COMMAND_QUEUE)
        mem = _expect(buf, rt.MemObject, types.CL_INVALID_MEM_OBJECT)
        _check_wait_list(num_events_in_wait_list, event_wait_list)
        pattern_bytes = borrow_bytes(pattern, limit=int(pattern_size))
        evt = rt.enqueue_fill(queue, mem, pattern_bytes, int(offset),
                              int(size))
        set_box(event, evt)
        return types.CL_SUCCESS
    except CLError as err:
        return err.code


# ---------------------------------------------------------------------------
# programs
# ---------------------------------------------------------------------------


def clCreateProgramWithSource(context: rt.Context, count: int, strings: Any,
                              lengths: Any,
                              errcode_ret: Optional[OutBox]) -> Optional[rt.Program]:
    _session()
    try:
        ctx = _expect(context, rt.Context, types.CL_INVALID_CONTEXT)
        if isinstance(strings, str):
            source = strings
        else:
            check(strings is not None and count >= 1, types.CL_INVALID_VALUE,
                  "no source strings")
            source = "".join(strings[:count])
        program = rt.Program(ctx, source)
        set_box(errcode_ret, types.CL_SUCCESS)
        return program
    except CLError as err:
        set_box(errcode_ret, err.code)
        return None


def clBuildProgram(program: rt.Program, num_devices: int, device_list: Any,
                   options: Optional[str], pfn_notify: Any,
                   user_data: Any) -> int:
    _session()
    try:
        prog = _expect(program, rt.Program, types.CL_INVALID_PROGRAM)
        try:
            prog.build(options or "")
        finally:
            # the notification callback fires on success AND failure,
            # carrying the build status (mirrors the vendor contract)
            if callable(pfn_notify):
                pfn_notify(prog.build_status)
        return types.CL_SUCCESS
    except CLError as err:
        return err.code


def clCompileProgram(program: rt.Program, num_devices: int, device_list: Any,
                     options: Optional[str], num_input_headers: int,
                     input_headers: Any, header_include_names: Any,
                     pfn_notify: Any, user_data: Any) -> int:
    """Separate compilation is a no-op distinct step in the mini runtime:
    it validates the source declares kernels but defers resolution."""
    _session()
    try:
        prog = _expect(program, rt.Program, types.CL_INVALID_PROGRAM)
        from repro.opencl.kernels import declared_kernels

        check(bool(declared_kernels(prog.source)),
              types.CL_BUILD_PROGRAM_FAILURE,
              "program declares no __kernel functions")
        return types.CL_SUCCESS
    except CLError as err:
        return err.code


def clRetainProgram(program: rt.Program) -> int:
    _session()
    try:
        _expect(program, rt.Program, types.CL_INVALID_PROGRAM).retain()
        return types.CL_SUCCESS
    except CLError as err:
        return err.code


def clReleaseProgram(program: rt.Program) -> int:
    _session()
    try:
        _expect(program, rt.Program, types.CL_INVALID_PROGRAM).release()
        return types.CL_SUCCESS
    except CLError as err:
        return err.code


def clGetProgramInfo(program: rt.Program, param_name: int,
                     param_value_size: int, param_value: Any,
                     param_value_size_ret: Optional[OutBox]) -> int:
    _session()
    try:
        prog = _expect(program, rt.Program, types.CL_INVALID_PROGRAM)
        value = {
            types.CL_PROGRAM_REFERENCE_COUNT: prog.refcount,
            types.CL_PROGRAM_NUM_KERNELS: len(prog.kernel_names),
            types.CL_PROGRAM_KERNEL_NAMES: ";".join(prog.kernel_names),
        }.get(param_name)
        if value is None:
            return types.CL_INVALID_VALUE
        return _return_info(value, param_value_size, param_value,
                            param_value_size_ret)
    except CLError as err:
        return err.code


def clGetProgramBuildInfo(program: rt.Program, device: SimulatedGPU,
                          param_name: int, param_value_size: int,
                          param_value: Any,
                          param_value_size_ret: Optional[OutBox]) -> int:
    _session()
    try:
        prog = _expect(program, rt.Program, types.CL_INVALID_PROGRAM)
        value = {
            types.CL_PROGRAM_BUILD_STATUS: prog.build_status,
            types.CL_PROGRAM_BUILD_LOG: prog.build_log,
        }.get(param_name)
        if value is None:
            return types.CL_INVALID_VALUE
        return _return_info(value, param_value_size, param_value,
                            param_value_size_ret)
    except CLError as err:
        return err.code


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def clCreateKernel(program: rt.Program, kernel_name: str,
                   errcode_ret: Optional[OutBox]) -> Optional[rt.Kernel]:
    _session()
    try:
        prog = _expect(program, rt.Program, types.CL_INVALID_PROGRAM)
        kernel = rt.Kernel(prog, kernel_name)
        set_box(errcode_ret, types.CL_SUCCESS)
        return kernel
    except CLError as err:
        set_box(errcode_ret, err.code)
        return None


def clCreateKernelsInProgram(program: rt.Program, num_kernels: int,
                             kernels: Optional[list],
                             num_kernels_ret: Optional[OutBox]) -> int:
    _session()
    try:
        prog = _expect(program, rt.Program, types.CL_INVALID_PROGRAM)
        check(prog.build_status == types.CL_BUILD_SUCCESS,
              types.CL_INVALID_PROGRAM_EXECUTABLE, "program is not built")
        names = prog.kernel_names
        if kernels is not None:
            check(num_kernels >= len(names), types.CL_INVALID_VALUE,
                  "kernels array too small")
            for i, name in enumerate(names):
                kernels[i] = rt.Kernel(prog, name)
        set_box(num_kernels_ret, len(names))
        return types.CL_SUCCESS
    except CLError as err:
        return err.code


def clSetKernelArg(kernel: rt.Kernel, arg_index: int, arg_size: int,
                   arg_value: Any) -> int:
    _session()
    try:
        kern = _expect(kernel, rt.Kernel, types.CL_INVALID_KERNEL)
        value = arg_value
        if isinstance(value, (bytes, bytearray)):
            # scalar passed C-style, as raw bytes of its representation
            if len(value) == 4:
                value = struct.unpack("<i", bytes(value))[0]
            elif len(value) == 8:
                value = struct.unpack("<q", bytes(value))[0]
            else:
                raise CLError(types.CL_INVALID_ARG_SIZE,
                              f"scalar of {len(value)} bytes unsupported")
        kern.set_arg(int(arg_index), value)
        return types.CL_SUCCESS
    except CLError as err:
        return err.code


def clRetainKernel(kernel: rt.Kernel) -> int:
    _session()
    try:
        _expect(kernel, rt.Kernel, types.CL_INVALID_KERNEL).retain()
        return types.CL_SUCCESS
    except CLError as err:
        return err.code


def clReleaseKernel(kernel: rt.Kernel) -> int:
    _session()
    try:
        _expect(kernel, rt.Kernel, types.CL_INVALID_KERNEL).release()
        return types.CL_SUCCESS
    except CLError as err:
        return err.code


def clGetKernelInfo(kernel: rt.Kernel, param_name: int, param_value_size: int,
                    param_value: Any,
                    param_value_size_ret: Optional[OutBox]) -> int:
    _session()
    try:
        kern = _expect(kernel, rt.Kernel, types.CL_INVALID_KERNEL)
        value = {
            types.CL_KERNEL_FUNCTION_NAME: kern.name,
            types.CL_KERNEL_NUM_ARGS: kern.impl.num_args,
            types.CL_KERNEL_REFERENCE_COUNT: kern.refcount,
        }.get(param_name)
        if value is None:
            return types.CL_INVALID_VALUE
        return _return_info(value, param_value_size, param_value,
                            param_value_size_ret)
    except CLError as err:
        return err.code


def clGetKernelWorkGroupInfo(kernel: rt.Kernel, device: SimulatedGPU,
                             param_name: int, param_value_size: int,
                             param_value: Any,
                             param_value_size_ret: Optional[OutBox]) -> int:
    _session()
    try:
        _expect(kernel, rt.Kernel, types.CL_INVALID_KERNEL)
        _expect(device, SimulatedGPU, types.CL_INVALID_DEVICE)
        value = {
            types.CL_KERNEL_WORK_GROUP_SIZE: device.spec.max_work_group_size,
            types.CL_KERNEL_PREFERRED_WORK_GROUP_SIZE_MULTIPLE: 32,
        }.get(param_name)
        if value is None:
            return types.CL_INVALID_VALUE
        return _return_info(value, param_value_size, param_value,
                            param_value_size_ret)
    except CLError as err:
        return err.code


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def clEnqueueNDRangeKernel(command_queue: rt.CommandQueue, kernel: rt.Kernel,
                           work_dim: int, global_work_offset: Any,
                           global_work_size: Sequence[int],
                           local_work_size: Optional[Sequence[int]] = None,
                           num_events_in_wait_list: int = 0,
                           event_wait_list: Any = None,
                           event: Optional[OutBox] = None) -> int:
    _session()
    try:
        queue = _expect(command_queue, rt.CommandQueue,
                        types.CL_INVALID_COMMAND_QUEUE)
        kern = _expect(kernel, rt.Kernel, types.CL_INVALID_KERNEL)
        check(global_work_offset is None, types.CL_INVALID_VALUE,
              "global work offsets are not supported by this subset")
        check(global_work_size is not None
              and len(global_work_size) == work_dim,
              types.CL_INVALID_WORK_DIMENSION,
              "global_work_size length must equal work_dim")
        _check_wait_list(num_events_in_wait_list, event_wait_list)
        evt = rt.enqueue_ndrange(queue, kern, list(global_work_size),
                                 list(local_work_size) if local_work_size
                                 else None)
        set_box(event, evt)
        return types.CL_SUCCESS
    except CLError as err:
        return err.code


def clEnqueueTask(command_queue: rt.CommandQueue, kernel: rt.Kernel,
                  num_events_in_wait_list: int = 0, event_wait_list: Any = None,
                  event: Optional[OutBox] = None) -> int:
    """A task is a 1×1×1 NDRange."""
    return clEnqueueNDRangeKernel(
        command_queue, kernel, 1, None, [1], None,
        num_events_in_wait_list, event_wait_list, event,
    )


def clFlush(command_queue: rt.CommandQueue) -> int:
    _session()
    try:
        _expect(command_queue, rt.CommandQueue,
                types.CL_INVALID_COMMAND_QUEUE)
        return types.CL_SUCCESS  # in-order eager execution: nothing to do
    except CLError as err:
        return err.code


def clFinish(command_queue: rt.CommandQueue) -> int:
    _session()
    try:
        queue = _expect(command_queue, rt.CommandQueue,
                        types.CL_INVALID_COMMAND_QUEUE)
        rt.finish(queue)
        return types.CL_SUCCESS
    except CLError as err:
        return err.code
