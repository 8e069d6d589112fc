"""Generator fuzz: random API specs, generated stacks, verified round trips.

The strongest correctness property CAvA can have: for *any* spec in the
language's space, the generated guest and server modules agree on the
wire protocol.  This fuzzer builds random function signatures (scalars,
strings, handles, in/out buffers, boxes), synthesizes an echo-style
native module whose behaviour is predictable from its arguments,
generates a full stack, runs calls through a real hypervisor, and checks
every output path.
"""

from __future__ import annotations

import itertools
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codegen.generator import generate_sources
from repro.hypervisor.hypervisor import ApiRegistration, Hypervisor
from repro.stack import resolve_codec
from repro.remoting.buffers import OutBox, read_bytes, write_back
from repro.spec.model import (
    ApiSpec,
    CType,
    Direction,
    FunctionSpec,
    ParamSpec,
    SyncMode,
    SyncPolicy,
    TypeSpec,
)
from repro.spec.expr import Name
from repro.spec.model import scalar_literal

_COUNTER = itertools.count()

PARAM_KINDS = ("scalar_int", "scalar_float", "string", "handle",
               "in_buffer", "out_buffer", "scalar_box", "new_handle")


def build_spec(kind_lists):
    """An ApiSpec with one function per kind-list."""
    spec = ApiSpec(name=f"fuzz{next(_COUNTER)}")
    spec.types["fz_status"] = TypeSpec(name="fz_status", success_value="0")
    spec.types["fz_handle"] = TypeSpec(name="fz_handle", is_handle=True,
                                       size_bytes=8)
    for index, kinds in enumerate(kind_lists):
        func = FunctionSpec(
            name=f"fzCall{index}",
            return_type=CType("fz_status"),
            sync_policy=SyncPolicy.always(SyncMode.SYNC),
        )
        for slot, kind in enumerate(kinds):
            name = f"p{slot}"
            if kind == "scalar_int":
                param = ParamSpec(name=name, ctype=CType("long"))
            elif kind == "scalar_float":
                param = ParamSpec(name=name, ctype=CType("double"))
            elif kind == "string":
                param = ParamSpec(name=name,
                                  ctype=CType("char", 1, is_const=True),
                                  is_string=True)
            elif kind == "handle":
                param = ParamSpec(name=name, ctype=CType("fz_handle"),
                                  is_handle=True)
            elif kind == "in_buffer":
                func.params.append(ParamSpec(name=f"{name}_size",
                                             ctype=CType("long")))
                param = ParamSpec(name=name,
                                  ctype=CType("void", 1, is_const=True),
                                  direction=Direction.IN,
                                  buffer_size=Name(f"{name}_size"))
            elif kind == "out_buffer":
                func.params.append(ParamSpec(name=f"{name}_size",
                                             ctype=CType("long")))
                param = ParamSpec(name=name, ctype=CType("void", 1),
                                  direction=Direction.OUT,
                                  buffer_size=Name(f"{name}_size"))
            elif kind == "scalar_box":
                param = ParamSpec(name=name, ctype=CType("long", 1),
                                  direction=Direction.OUT,
                                  buffer_size=scalar_literal(1),
                                  buffer_is_elements=True)
            elif kind == "new_handle":
                param = ParamSpec(name=name, ctype=CType("fz_handle", 1),
                                  direction=Direction.OUT,
                                  buffer_size=scalar_literal(1),
                                  buffer_is_elements=True,
                                  element_allocates=True)
            else:  # pragma: no cover
                raise AssertionError(kind)
            func.params.append(param)
        spec.add_function(func)
    spec.require_valid()
    return spec


class FuzzHandle:
    """Host object handed out by new_handle slots."""

    def __init__(self, tag):
        self.tag = tag


def build_native_module(spec):
    """An echo-style native implementation for ``spec``.

    Behaviour per parameter kind (deterministic, checkable guest-side):
    out_buffers are filled with the XOR of 0x5A and their size;
    scalar_boxes get the sum of all integer scalars; new_handles get a
    FuzzHandle tagged with the call's scalar sum.
    """
    module = types.ModuleType(f"_fuzz_native_{spec.name}")

    def make_impl(func):
        param_specs = {p.name: p for p in func.params}

        def impl(*args, _func=func, _specs=param_specs):
            named = dict(zip([p.name for p in _func.params], args))
            scalar_sum = sum(
                int(v) for n, v in named.items()
                if isinstance(v, (int, float)) and not isinstance(v, bool)
                and not _specs[n].is_handle
            )
            for name, value in named.items():
                param = _specs[name]
                if param.direction is Direction.OUT and value is not None:
                    if param.element_allocates:
                        value[0] = FuzzHandle(scalar_sum)
                    elif isinstance(value, OutBox):
                        value[0] = scalar_sum
                    else:  # out buffer
                        size = len(value)
                        write_back(value,
                                   bytes((0x5A ^ (size & 0xFF),) * size))
                if param.is_handle and value is not None:
                    if not isinstance(value, FuzzHandle):
                        return -7  # wrong translation
            return 0

        return impl

    for func in spec.functions.values():
        setattr(module, func.name, make_impl(func))
    sys.modules[module.__name__] = module
    return module


def deploy(spec, native_module):
    import tempfile

    from repro.codegen.generator import generate_api

    stack = generate_api(spec, tempfile.mkdtemp(prefix="cava_fuzz_"),
                         native_module.__name__)
    hv = Hypervisor(resolve_codec(None, [stack]))
    hv.register_api(ApiRegistration(
        name=spec.name,
        routing_table=stack.routing_table(),
        dispatch=stack.dispatch(),
        guest_module=stack.guest_module,
        # the native library is stateless: a placeholder session, with
        # a stack for the worker to push it on
        session_binder=lambda worker: types.SimpleNamespace(stack=[]),
    ))
    return hv


kind_lists_strategy = st.lists(
    st.lists(st.sampled_from(PARAM_KINDS), min_size=0, max_size=5),
    min_size=1, max_size=3,
)


def draw_call_plan(spec, kind_lists, data):
    """Pre-draw every free value so a plan can replay on several stacks."""
    plans = []
    for index in range(len(kind_lists)):
        func = spec.functions[f"fzCall{index}"]
        entry = {}
        for param in func.params:
            if param.is_handle and not param.ctype.is_pointer:
                continue
            if param.element_allocates:
                continue
            if param.direction is Direction.OUT and \
                    param.buffer_size is not None and param.buffer_is_elements:
                continue
            if param.direction is Direction.OUT:
                entry[param.name] = data.draw(
                    st.integers(min_value=1, max_value=64),
                    label=f"{func.name}.{param.name}.outsize")
            elif param.is_string:
                entry[param.name] = data.draw(
                    st.text(max_size=8), label=f"{param.name}.str")
            elif param.ctype.base == "double":
                entry[param.name] = 0.0
            elif param.direction is Direction.IN and \
                    param.buffer_size is not None:
                continue  # content derives from the preceding size scalar
            else:
                entry[param.name] = data.draw(
                    st.integers(0, 50), label=f"{param.name}.int")
        plans.append(entry)
    return plans


def replay_call(library, hv, vm, spec, func, plan_entry, handle_pool):
    """Build args from a pre-drawn plan and run one call.

    Returns every output path as plain bytes/ints so runs on different
    stacks can be diffed exactly.
    """
    args = []
    out_buffers = []
    scalar_boxes = []
    handle_boxes = []
    for param in func.params:
        if param.is_handle and not param.ctype.is_pointer:
            if not handle_pool:
                worker = hv.worker(vm.vm_id, spec.name)
                handle_pool.append(worker.handles.allocate(FuzzHandle(-1)))
            args.append(handle_pool[0])
        elif param.element_allocates:
            box = OutBox()
            handle_boxes.append(box)
            args.append(box)
        elif param.direction is Direction.OUT and \
                param.buffer_size is not None and param.buffer_is_elements:
            box = OutBox()
            scalar_boxes.append(box)
            args.append(box)
        elif param.direction is Direction.OUT:
            size_value = plan_entry[param.name]
            target = bytearray(size_value)
            out_buffers.append(target)
            args[-1] = size_value
            args.append(target)
        elif param.is_string:
            args.append(plan_entry[param.name])
        elif param.ctype.base == "double":
            args.append(plan_entry[param.name])
        elif param.direction is Direction.IN and \
                param.buffer_size is not None:
            size_value = args[-1]
            args.append(np.frombuffer(
                bytes(range(256))[:size_value], dtype=np.uint8
            ).copy() if size_value else np.zeros(0, np.uint8))
        else:
            args.append(plan_entry[param.name])
    code = getattr(library, func.name)(*args)
    for box in handle_boxes:
        handle_pool.append(box.value)
    return {
        "code": code,
        "out_buffers": [bytes(target) for target in out_buffers],
        "scalar_boxes": [box.value for box in scalar_boxes],
        # raw handle values are per-worker identities, not comparable
        # across stacks — only that a real handle came back is
        "handle_boxes": [isinstance(box.value, int)
                         for box in handle_boxes],
    }


class TestGeneratorFuzz:
    @settings(max_examples=25, deadline=None)
    @given(kind_lists_strategy, st.data())
    def test_round_trip_any_signature(self, kind_lists, data):
        spec = build_spec(kind_lists)
        native = build_native_module(spec)
        hv = deploy(spec, native)
        vm = hv.create_vm(f"vm-{spec.name}")
        library = vm.library(spec.name)

        # seed a handle for functions that take one
        handle_pool = []

        for index, kinds in enumerate(kind_lists):
            func = spec.functions[f"fzCall{index}"]
            args = []
            out_buffers = []
            scalar_boxes = []
            handle_boxes = []
            for param in func.params:
                kind = None
                if param.is_handle and not param.ctype.is_pointer:
                    if not handle_pool:
                        # mint one via a helper handle table entry
                        worker = hv.worker(vm.vm_id, spec.name)
                        handle_pool.append(
                            worker.handles.allocate(FuzzHandle(-1))
                        )
                    args.append(handle_pool[0])
                elif param.element_allocates:
                    box = OutBox()
                    handle_boxes.append(box)
                    args.append(box)
                elif param.direction is Direction.OUT and \
                        param.buffer_size is not None and \
                        param.buffer_is_elements:
                    box = OutBox()
                    scalar_boxes.append(box)
                    args.append(box)
                elif param.direction is Direction.OUT:
                    size_value = data.draw(
                        st.integers(min_value=1, max_value=64),
                        label=f"{func.name}.{param.name}.outsize",
                    )
                    target = bytearray(size_value)
                    out_buffers.append((target, size_value))
                    # the matching size scalar was appended *before* the
                    # buffer param; patch it retroactively
                    args[-1] = size_value
                    args.append(target)
                elif param.is_string:
                    args.append(data.draw(st.text(max_size=8),
                                          label=f"{param.name}.str"))
                elif param.ctype.base == "double":
                    args.append(0.0)
                elif param.direction is Direction.IN and \
                        param.buffer_size is not None:
                    size_value = args[-1]
                    args.append(np.frombuffer(
                        bytes(range(256))[:size_value], dtype=np.uint8
                    ).copy() if size_value else np.zeros(0, np.uint8))
                else:
                    value = data.draw(st.integers(0, 50),
                                      label=f"{param.name}.int")
                    args.append(value)
            # recompute the expected scalar sum honestly from args
            expected_sum = sum(
                int(v) for v, p in zip(args, func.params)
                if isinstance(v, (int, float)) and not isinstance(v, bool)
                and not p.is_handle
            )
            code = getattr(library, func.name)(*args)
            assert code == 0, f"{func.name} returned {code}"
            for target, size_value in out_buffers:
                assert bytes(target) == \
                    bytes((0x5A ^ (size_value & 0xFF),) * size_value)
            for box in scalar_boxes:
                assert box.value == expected_sum
            for box in handle_boxes:
                assert isinstance(box.value, int)
                handle_pool.append(box.value)

    @settings(max_examples=25, deadline=None)
    @given(kind_lists_strategy, st.data())
    def test_cache_on_off_outputs_byte_identical(self, kind_lists, data):
        """For any generated stack, arming the transfer cache changes
        nothing observable: every output path — return codes, out
        buffers, scalar boxes, minted handles — diffs byte-for-byte
        against the uncached run of the identical call plan.

        Each call runs twice per stack so the cached legs actually
        elide (the second send of every in-buffer and string re-sends
        unchanged payloads).
        """
        from repro.remoting.xfercache import CachePolicy

        spec = build_spec(kind_lists)
        native = build_native_module(spec)
        plans = draw_call_plan(spec, kind_lists, data)

        policies = {
            "off": None,
            "shared": CachePolicy(min_bytes=1),
            "local": CachePolicy(min_bytes=1, shared_index=False),
        }
        outputs = {}
        for label, policy in policies.items():
            hv = deploy(spec, native)
            vm = hv.create_vm(f"vm-{spec.name}-{label}",
                              cache_policy=policy)
            library = vm.library(spec.name)
            handle_pool = []
            run = []
            for index in range(len(kind_lists)):
                func = spec.functions[f"fzCall{index}"]
                for _ in range(2):  # second pass re-sends, cache bites
                    run.append(replay_call(library, hv, vm, spec, func,
                                           plans[index], handle_pool))
            outputs[label] = run

        assert outputs["shared"] == outputs["off"]
        assert outputs["local"] == outputs["off"]
