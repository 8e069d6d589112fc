"""Parser for the CAvA declarative specification language (Figure 4).

A ``.cava`` file contains:

* ``#include "header.h"`` directives — the referenced header is parsed
  for constants and typedefs so annotations can use them,
* ``api(name);`` naming the API,
* ``type(T) { success(CONST); handle; size(N); }`` type annotations,
* C function declarations whose bodies hold per-call annotations::

      cl_int clEnqueueReadBuffer(..., void *ptr, ...) {
          if (blocking_read == CL_TRUE) sync; else async;
          parameter(ptr) { out; buffer(size); }
          parameter(event) { out; element { allocates; } }
          consumes(bus_bytes, size);
          record(modify);
      }

Parameters without explicit annotations get the same inference the
preliminary-spec generator applies (const pointer → input buffer, opaque
handle detection, size-name conventions), so developers only write what
CAvA cannot infer — the paper's central usability claim.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

from repro.spec.cparser import (
    FunctionDecl,
    HeaderInfo,
    TypedefInfo,
    parse_header_file,
)
from repro.spec.errors import SpecSemanticError, SpecSyntaxError
from repro.spec.expr import Expr, parse_expr_tokens
from repro.spec.infer import SizeConvention, _FunctionInferrer
from repro.spec.lexer import (
    DIRECTIVE,
    EOF,
    IDENT,
    NUMBER,
    PUNCT,
    STRING,
    Token,
    tokenize,
)
from repro.spec.model import (
    ApiSpec,
    CType,
    Direction,
    FunctionSpec,
    ParamSpec,
    RecordKind,
    SyncMode,
    SyncPolicy,
    TypeSpec,
)


class _SpecParser:
    def __init__(
        self,
        tokens: List[Token],
        filename: Optional[str],
        include_dirs: Optional[List[str]] = None,
    ) -> None:
        self.tokens = tokens
        self.index = 0
        self.filename = filename
        self.include_dirs = list(include_dirs or [])
        if filename:
            self.include_dirs.append(os.path.dirname(os.path.abspath(filename)))
        self.spec = ApiSpec(name="api")
        self.header = HeaderInfo(filename=filename)
        self.convention = SizeConvention()

    # -- token helpers ----------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self.index + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def _advance(self) -> Token:
        token = self.tokens[self.index]
        if token.kind != EOF:
            self.index += 1
        return token

    def _error(self, message: str) -> SpecSyntaxError:
        token = self._peek()
        return SpecSyntaxError(
            f"{message} (found {token.value!r})",
            line=token.line,
            column=token.column,
            filename=self.filename,
        )

    def _expect_punct(self, value: str) -> Token:
        if not self._peek().is_punct(value):
            raise self._error(f"expected {value!r}")
        return self._advance()

    def _expect_ident(self, value: Optional[str] = None) -> Token:
        token = self._peek()
        if token.kind != IDENT or (value is not None and token.value != value):
            raise self._error(f"expected identifier {value or ''}".strip())
        return self._advance()

    # -- top level ----------------------------------------------------------

    def parse(self) -> ApiSpec:
        while self._peek().kind != EOF:
            token = self._peek()
            if token.kind == DIRECTIVE:
                self._advance()
                self._handle_directive(token.value)
            elif token.is_ident("api"):
                self._parse_api_decl()
            elif token.is_ident("type") and self._peek(1).is_punct("("):
                self._parse_type_decl()
            elif token.is_punct(";"):
                self._advance()
            else:
                self._parse_function_spec()
        self.spec.constants.update(self.header.constants)
        return self.spec

    def _handle_directive(self, text: str) -> None:
        parts = text.split(None, 1)
        if parts[0] != "#include" or len(parts) < 2:
            return
        target = parts[1].strip()
        if target.startswith("<") and target.endswith(">"):
            name = target[1:-1]
        else:
            name = target.strip('"')
        self.spec.includes.append(name)
        self._load_header(name)

    def _load_header(self, name: str) -> None:
        basename = os.path.basename(name)
        candidates = [name] + [
            os.path.join(directory, option)
            for directory in self.include_dirs
            for option in (name, basename)
        ]
        for candidate in candidates:
            if os.path.isfile(candidate):
                info = parse_header_file(candidate)
                self.header.constants.update(info.constants)
                self.header.typedefs.update(info.typedefs)
                for typedef in info.typedefs.values():
                    self.spec.types.setdefault(
                        typedef.name,
                        TypeSpec(
                            name=typedef.name,
                            is_handle=typedef.is_struct_pointer,
                            size_bytes=typedef.size_bytes,
                        ),
                    )
                return
        self.spec.guidance.append(
            f"include {name!r} not found; constants from it are unavailable"
        )

    def _parse_api_decl(self) -> None:
        self._advance()  # 'api'
        self._expect_punct("(")
        token = self._peek()
        if token.kind not in (IDENT, STRING):
            raise self._error("expected API name")
        self.spec.name = self._advance().value
        self._expect_punct(")")
        self._expect_punct(";")

    def _parse_type_decl(self) -> None:
        self._advance()  # 'type'
        self._expect_punct("(")
        name = self._expect_ident().value
        self._expect_punct(")")
        self._expect_punct("{")
        type_spec = self.spec.types.setdefault(name, TypeSpec(name=name))
        while not self._peek().is_punct("}"):
            ann = self._expect_ident().value
            if ann == "success":
                self._expect_punct("(")
                token = self._advance()
                if token.kind not in (IDENT, NUMBER):
                    raise self._error("expected success constant")
                type_spec.success_value = token.value
                self._expect_punct(")")
            elif ann == "handle":
                type_spec.is_handle = True
            elif ann == "size":
                self._expect_punct("(")
                token = self._advance()
                if token.kind != NUMBER:
                    raise self._error("expected size in bytes")
                type_spec.size_bytes = int(float(token.value))
                self._expect_punct(")")
            else:
                raise self._error(f"unknown type annotation {ann!r}")
            self._expect_punct(";")
        self._expect_punct("}")
        if type_spec.is_handle:
            self.header.typedefs.setdefault(
                name,
                TypedefInfo(
                    name=name,
                    underlying=CType(f"struct _{name}", 1),
                    is_struct_pointer=True,
                ),
            )

    # -- function specs ------------------------------------------------------

    def _parse_ctype_and_name(self) -> Tuple[CType, Optional[str]]:
        is_const = False
        while self._peek().is_ident("const"):
            is_const = True
            self._advance()
        if self._peek().kind != IDENT:
            raise self._error("expected type name")
        words = [self._advance().value]
        continuations = {"int", "char", "long", "short", "double", "float"}
        while (
            words[-1] in ("unsigned", "signed", "long", "short")
            and self._peek().kind == IDENT
            and self._peek().value in continuations
        ):
            words.append(self._advance().value)
        while self._peek().is_ident("const"):
            is_const = True
            self._advance()
        depth = 0
        while self._peek().is_punct("*"):
            depth += 1
            self._advance()
            while self._peek().is_ident("const"):
                self._advance()
        name = None
        if self._peek().kind == IDENT:
            name = self._advance().value
        while self._peek().is_punct("["):
            self._advance()
            while not self._peek().is_punct("]"):
                if self._peek().kind == EOF:
                    raise self._error("unterminated array suffix")
                self._advance()
            self._advance()
            depth += 1
        return CType(" ".join(words), depth, is_const), name

    def _parse_function_spec(self) -> None:
        return_type, name = self._parse_ctype_and_name()
        if name is None:
            raise self._error("expected function name")
        self._expect_punct("(")
        decl = FunctionDecl(name=name, return_type=return_type)
        if not self._peek().is_punct(")"):
            while True:
                if self._peek().is_ident("void") and self._peek(1).is_punct(")"):
                    self._advance()
                    break
                ptype, pname = self._parse_ctype_and_name()
                if pname is None:
                    pname = f"arg{len(decl.params)}"
                decl.params.append((pname, ptype))
                if self._peek().is_punct(","):
                    self._advance()
                    continue
                break
        self._expect_punct(")")

        # Run inference first so annotations only need to state the deltas.
        inferrer = _FunctionInferrer(
            self.header, decl, self.convention, guidance=[]
        )
        func = inferrer.infer()

        if self._peek().is_punct(";"):
            self._advance()
        else:
            self._expect_punct("{")
            while not self._peek().is_punct("}"):
                self._parse_annotation(func)
            self._expect_punct("}")
        self.spec.add_function(func)

    def _parse_annotation(self, func: FunctionSpec) -> None:
        token = self._peek()
        if token.is_ident("sync") or token.is_ident("async"):
            mode = SyncMode(self._advance().value)
            self._expect_punct(";")
            func.sync_policy = SyncPolicy.always(mode)
        elif token.is_ident("if"):
            self._parse_conditional_sync(func)
        elif token.is_ident("parameter"):
            self._parse_parameter_block(func)
        elif token.is_ident("consumes"):
            self._advance()
            self._expect_punct("(")
            resource = self._expect_ident().value
            self._expect_punct(",")
            expr, self.index = parse_expr_tokens(self.tokens, self.index)
            self._expect_punct(")")
            self._expect_punct(";")
            func.resources[resource] = expr
        elif token.is_ident("record"):
            self._advance()
            self._expect_punct("(")
            kind_name = self._expect_ident().value
            try:
                func.record_kind = RecordKind(kind_name)
            except ValueError:
                raise self._error(
                    f"unknown record category {kind_name!r} "
                    f"(expected one of {[k.value for k in RecordKind]})"
                )
            self._expect_punct(")")
            self._expect_punct(";")
        elif token.is_ident("norecord"):
            self._advance()
            self._expect_punct(";")
            func.record_kind = None
        elif token.is_ident("supersedes"):
            self._advance()
            self._expect_punct("(")
            names = [self._expect_ident().value]
            while self._peek().is_punct(","):
                self._advance()
                names.append(self._expect_ident().value)
            self._expect_punct(")")
            self._expect_punct(";")
            func.supersedes = tuple(names)
        elif token.is_ident("unsupported"):
            self._advance()
            self._expect_punct(";")
            func.unsupported = True
        else:
            raise self._error("unknown function annotation")

    def _parse_conditional_sync(self, func: FunctionSpec) -> None:
        self._advance()  # 'if'
        self._expect_punct("(")
        condition, self.index = parse_expr_tokens(self.tokens, self.index)
        self._expect_punct(")")
        first = self._expect_ident().value
        if first not in ("sync", "async"):
            raise self._error("expected sync or async after condition")
        self._expect_punct(";")
        mode_if_true = SyncMode(first)
        default = SyncMode.SYNC if mode_if_true is SyncMode.ASYNC else SyncMode.ASYNC
        if self._peek().is_ident("else"):
            self._advance()
            second = self._expect_ident().value
            if second not in ("sync", "async"):
                raise self._error("expected sync or async after else")
            self._expect_punct(";")
            default = SyncMode(second)
        func.sync_policy = SyncPolicy(
            default=default, condition=condition, mode_if_true=mode_if_true
        )

    def _parse_parameter_block(self, func: FunctionSpec) -> None:
        self._advance()  # 'parameter'
        self._expect_punct("(")
        param_name = self._expect_ident().value
        self._expect_punct(")")
        try:
            param = func.param(param_name)
        except SpecSemanticError:
            raise self._error(
                f"function {func.name!r} has no parameter {param_name!r}"
            )
        param.inferred = False
        self._expect_punct("{")
        while not self._peek().is_punct("}"):
            self._parse_param_annotation(param)
        self._expect_punct("}")

    def _parse_param_annotation(self, param: ParamSpec) -> None:
        ann = self._expect_ident().value
        if ann in ("in", "out", "inout"):
            param.direction = Direction(ann)
            self._expect_punct(";")
        elif ann == "buffer":
            self._expect_punct("(")
            expr, self.index = parse_expr_tokens(self.tokens, self.index)
            self._expect_punct(")")
            self._expect_punct(";")
            param.buffer_size = expr
            param.buffer_is_elements = (
                param.ctype.is_pointer and param.ctype.base != "void"
            )
        elif ann == "bytes":
            self._expect_punct(";")
            param.buffer_is_elements = False
        elif ann == "elements":
            self._expect_punct(";")
            param.buffer_is_elements = True
        elif ann == "element":
            self._expect_punct("{")
            while not self._peek().is_punct("}"):
                inner = self._expect_ident().value
                if inner == "allocates":
                    param.element_allocates = True
                elif inner == "deallocates":
                    param.element_deallocates = True
                else:
                    raise self._error(f"unknown element annotation {inner!r}")
                self._expect_punct(";")
            self._expect_punct("}")
            if param.buffer_size is None:
                from repro.spec.model import scalar_literal

                param.buffer_size = scalar_literal(1)
                param.buffer_is_elements = True
        elif ann == "handle":
            param.is_handle = True
            self._expect_punct(";")
        elif ann == "deallocates":
            param.element_deallocates = True
            self._expect_punct(";")
        elif ann == "nullable":
            param.nullable = True
            self._expect_punct(";")
        elif ann == "anyvalue":
            param.is_anyvalue = True
            self._expect_punct(";")
        elif ann == "intarray":
            param.is_scalar_array = True
            self._expect_punct(";")
        elif ann == "callback":
            param.is_callback = True
            self._expect_punct(";")
        elif ann == "shrinks":
            self._expect_punct("(")
            param.shrinks_to = self._expect_ident().value
            self._expect_punct(")")
            self._expect_punct(";")
        elif ann == "string":
            param.is_string = True
            param.direction = Direction.IN
            self._expect_punct(";")
        else:
            raise self._error(f"unknown parameter annotation {ann!r}")


def parse_spec(
    text: str,
    filename: Optional[str] = None,
    include_dirs: Optional[List[str]] = None,
) -> ApiSpec:
    """Parse spec source text into an :class:`ApiSpec`."""
    tokens = tokenize(text, filename=filename)
    return _SpecParser(tokens, filename, include_dirs).parse()


def parse_spec_file(
    path: str, include_dirs: Optional[List[str]] = None
) -> ApiSpec:
    """Parse a ``.cava`` spec from disk (includes resolve relative to it)."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_spec(handle.read(), filename=path, include_dirs=include_dirs)
