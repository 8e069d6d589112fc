"""CAvA orchestration: generate, write, compile, and load API stacks.

``generate_api(spec, out_dir, native_module)`` is the push-button step
of the paper's Figure 2: from a refined specification it writes the
guest library, server dispatch, and routing modules, byte-compiles them
(the "compiled using standard tools" step), and returns a
:class:`GeneratedStack` whose loaded modules plug directly into the
hypervisor.
"""

from __future__ import annotations

import importlib.util
import itertools
import os
import py_compile
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.codegen.codec_gen import generate_codec_module
from repro.codegen.guest_gen import generate_guest_module
from repro.codegen.routing_gen import generate_routing_module
from repro.codegen.server_gen import generate_server_module
from repro.spec.model import ApiSpec

_LOAD_COUNTER = itertools.count()


@dataclass
class GeneratedSources:
    """The generated module sources, before writing to disk."""

    api_name: str
    guest_source: str
    server_source: str
    routing_source: str
    #: specialized wire-codec module (marshaling fast path); empty for
    #: sources generated before the codec generator existed
    codec_source: str = ""
    #: per-function sync classification ("sync"/"async"/"conditional"),
    #: the happens-before contract the generated modules embed (the
    #: routing module's ORDERING constant mirrors it; CAVA309 checks
    #: they agree)
    ordering: Dict[str, str] = field(default_factory=dict)

    def total_lines(self) -> int:
        return sum(
            source.count("\n")
            for source in (self.guest_source, self.server_source,
                           self.routing_source, self.codec_source)
        )


@dataclass
class GeneratedStack:
    """A generated stack, loaded and ready to register."""

    api_name: str
    guest_module: Any
    server_module: Any
    routing_module: Any
    codec_module: Any = None
    out_dir: Optional[str] = None
    paths: Dict[str, str] = field(default_factory=dict)

    def routing_table(self):
        return self.routing_module.build_table()

    def dispatch(self) -> Dict[str, Any]:
        return self.server_module.DISPATCH


def generate_sources(spec: ApiSpec, native_module: str) -> GeneratedSources:
    """Generate all three module sources (pure; no filesystem access)."""
    spec.require_valid()
    return GeneratedSources(
        api_name=spec.name,
        guest_source=generate_guest_module(spec),
        server_source=generate_server_module(spec, native_module),
        routing_source=generate_routing_module(spec),
        codec_source=generate_codec_module(spec),
        ordering={
            name: func.sync_policy.classification()
            for name, func in sorted(spec.functions.items())
            if not func.unsupported
        },
    )


def _load_module(path: str, name: str) -> Any:
    module_spec = importlib.util.spec_from_file_location(name, path)
    if module_spec is None or module_spec.loader is None:
        raise ImportError(f"cannot load generated module from {path}")
    module = importlib.util.module_from_spec(module_spec)
    sys.modules[name] = module
    module_spec.loader.exec_module(module)
    return module


def write_api(
    spec: ApiSpec,
    out_dir: str,
    native_module: str,
    compile_check: bool = True,
) -> Dict[str, str]:
    """Generate and write the stack's modules; returns their paths.

    Byte-compiles each module (``compile_check``) so syntax errors in
    generated code surface at generation time, without importing them —
    the native module need not be installed on the generating machine.
    """
    sources = generate_sources(spec, native_module)
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for suffix, source in (
        ("guest", sources.guest_source),
        ("server", sources.server_source),
        ("routing", sources.routing_source),
        ("codec", sources.codec_source),
    ):
        path = os.path.join(out_dir, f"{spec.name}_{suffix}.py")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(source)
        if compile_check:
            py_compile.compile(path, doraise=True)
        paths[suffix] = path
    return paths


def generate_api(
    spec: ApiSpec,
    out_dir: str,
    native_module: str,
    compile_check: bool = True,
) -> GeneratedStack:
    """Generate, write, compile, and load the full stack for ``spec``."""
    paths = write_api(spec, out_dir, native_module, compile_check)
    return load_stack(spec.name, paths, out_dir)


def load_stack(api_name: str, paths: Dict[str, str],
               out_dir: Optional[str] = None) -> GeneratedStack:
    """Load previously generated modules from disk."""
    token = next(_LOAD_COUNTER)
    codec_module = None
    if "codec" in paths:
        codec_module = _load_module(
            paths["codec"], f"_cava_{api_name}_codec_{token}")
    return GeneratedStack(
        api_name=api_name,
        guest_module=_load_module(paths["guest"], f"_cava_{api_name}_guest_{token}"),
        server_module=_load_module(paths["server"], f"_cava_{api_name}_server_{token}"),
        routing_module=_load_module(paths["routing"], f"_cava_{api_name}_routing_{token}"),
        codec_module=codec_module,
        out_dir=out_dir,
        paths=dict(paths),
    )
