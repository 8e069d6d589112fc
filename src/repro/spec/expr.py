"""C-like expressions used inside CAvA specifications.

Specs embed expressions in three places: buffer-size formulas
(``buffer(count * sizeof(cl_event))``), synchronization conditions
(``if (blocking_read == CL_TRUE) sync; else async;``) and resource-cost
estimates (``consumes(bus_bytes, size);``).  This module provides the
expression AST and a Pratt parser over the shared token stream.
Nothing interprets the tree at run time: :mod:`repro.codegen.pyexpr`
compiles it into the generated guest stubs and routing table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set

from repro.spec.errors import ExprError
from repro.spec.lexer import EOF, IDENT, NUMBER, PUNCT, Token


class Expr:
    """Base class for expression nodes."""

    def names(self) -> Set[str]:
        """All free identifiers referenced by this expression."""
        raise NotImplementedError

    def to_source(self) -> str:
        """Render back to spec-language source."""
        raise NotImplementedError


@dataclass(frozen=True)
class Literal(Expr):
    value: float

    def names(self) -> Set[str]:
        return set()

    def to_source(self) -> str:
        if float(self.value).is_integer():
            return str(int(self.value))
        return repr(self.value)


@dataclass(frozen=True)
class Name(Expr):
    identifier: str

    def names(self) -> Set[str]:
        return {self.identifier}

    def to_source(self) -> str:
        return self.identifier


@dataclass(frozen=True)
class SizeOf(Expr):
    type_name: str

    def names(self) -> Set[str]:
        return set()

    def to_source(self) -> str:
        return f"sizeof({self.type_name})"


@dataclass(frozen=True)
class Unary(Expr):
    op: str
    operand: Expr

    def names(self) -> Set[str]:
        return self.operand.names()

    def to_source(self) -> str:
        return f"{self.op}({self.operand.to_source()})"


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr

    def names(self) -> Set[str]:
        return self.left.names() | self.right.names()

    def to_source(self) -> str:
        return f"({self.left.to_source()} {self.op} {self.right.to_source()})"


@dataclass(frozen=True)
class Conditional(Expr):
    """Ternary ``cond ? a : b``."""

    condition: Expr
    if_true: Expr
    if_false: Expr

    def names(self) -> Set[str]:
        return (
            self.condition.names()
            | self.if_true.names()
            | self.if_false.names()
        )

    def to_source(self) -> str:
        return (
            f"({self.condition.to_source()} ? "
            f"{self.if_true.to_source()} : {self.if_false.to_source()})"
        )


_BINARY_PRECEDENCE: Dict[str, int] = {
    "||": 1,
    "&&": 2,
    "==": 3,
    "!=": 3,
    "<": 4,
    ">": 4,
    "<=": 4,
    ">=": 4,
    "+": 5,
    "-": 5,
    "*": 6,
    "/": 6,
    "%": 6,
}


class _ExprParser:
    """Pratt parser over a token window.

    Consumes tokens from ``tokens`` starting at ``index``; the final index
    is exposed so the enclosing statement parser can resume.
    """

    def __init__(self, tokens: Sequence[Token], index: int) -> None:
        self.tokens = tokens
        self.index = index

    def _peek(self) -> Token:
        return self.tokens[self.index]

    def _advance(self) -> Token:
        token = self.tokens[self.index]
        if token.kind != EOF:
            self.index += 1
        return token

    def _error(self, message: str) -> ExprError:
        token = self._peek()
        return ExprError(
            f"{message} at line {token.line} (near {token.value!r})"
        )

    def parse(self, min_precedence: int = 0) -> Expr:
        left = self._parse_unary()
        while True:
            token = self._peek()
            if token.kind == PUNCT and token.value == "?":
                if min_precedence > 0:
                    break
                self._advance()
                if_true = self.parse()
                if not self._peek().is_punct(":"):
                    raise self._error("expected ':' in conditional")
                self._advance()
                if_false = self.parse()
                left = Conditional(left, if_true, if_false)
                continue
            if token.kind != PUNCT:
                break
            precedence = _BINARY_PRECEDENCE.get(token.value)
            if precedence is None or precedence < min_precedence:
                break
            self._advance()
            right = self.parse(precedence + 1)
            left = Binary(token.value, left, right)
        return left

    def _parse_unary(self) -> Expr:
        token = self._peek()
        if token.kind == PUNCT and token.value in ("!", "-", "+"):
            self._advance()
            operand = self._parse_unary()
            if token.value == "+":
                return operand
            return Unary(token.value, operand)
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        token = self._peek()
        if token.kind == NUMBER:
            self._advance()
            text = token.value
            value = float(int(text, 16)) if text.lower().startswith("0x") else float(text)
            return Literal(value)
        if token.kind == IDENT and token.value == "sizeof":
            self._advance()
            if not self._peek().is_punct("("):
                raise self._error("expected '(' after sizeof")
            self._advance()
            parts: List[str] = []
            while not self._peek().is_punct(")"):
                inner = self._advance()
                if inner.kind == EOF:
                    raise self._error("unterminated sizeof")
                parts.append(inner.value)
            self._advance()
            return SizeOf(" ".join(parts))
        if token.kind == IDENT:
            self._advance()
            return Name(token.value)
        if token.is_punct("("):
            self._advance()
            inner = self.parse()
            if not self._peek().is_punct(")"):
                raise self._error("expected ')'")
            self._advance()
            return inner
        raise self._error("expected expression")


def parse_expr_tokens(tokens: Sequence[Token], index: int) -> "tuple[Expr, int]":
    """Parse an expression starting at ``tokens[index]``.

    Returns the expression and the index of the first unconsumed token.
    """
    parser = _ExprParser(tokens, index)
    expr = parser.parse()
    return expr, parser.index


def parse_expr(source: str) -> Expr:
    """Parse a standalone expression from source text."""
    from repro.spec.lexer import tokenize

    tokens = tokenize(source)
    expr, index = parse_expr_tokens(tokens, 0)
    if tokens[index].kind != EOF:
        raise ExprError(
            f"trailing input after expression: {tokens[index].value!r}"
        )
    return expr


#: sizeof() results for the C types used by the shipped APIs, in bytes.
DEFAULT_SIZEOF: Dict[str, int] = {
    "char": 1,
    "unsigned char": 1,
    "short": 2,
    "int": 4,
    "unsigned int": 4,
    "long": 8,
    "size_t": 8,
    "float": 4,
    "double": 8,
    "void *": 8,
    "cl_int": 4,
    "cl_uint": 4,
    "cl_bool": 4,
    "cl_ulong": 8,
    "cl_float": 4,
    "cl_event": 8,
    "cl_mem": 8,
    "cl_device_id": 8,
    "cl_platform_id": 8,
    "cl_context": 8,
    "cl_command_queue": 8,
    "cl_program": 8,
    "cl_kernel": 8,
    "mvncStatus": 4,
    "float16": 2,
}
