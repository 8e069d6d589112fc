"""Compiling spec expressions to Python source.

Size formulas and sync conditions from the spec are inlined into the
generated stubs as plain Python expressions: parameter names become the
stub's local variables, spec constants become numeric literals, and
``sizeof(T)`` is resolved at generation time from the API's type-size
table.  Inlining (rather than interpreting the expression tree at call
time) is what makes the generated code readable and the per-call
overhead flat — the same reason the real CAvA emits C rather than
carrying the spec to run time.
"""

from __future__ import annotations

from typing import Mapping, Set

from repro.spec.errors import SpecSemanticError
from repro.spec.expr import (
    Binary,
    Conditional,
    Expr,
    Literal,
    Name,
    SizeOf,
    Unary,
)

_PY_BINARY = {
    "+": "+", "-": "-", "*": "*", "/": "/", "%": "%",
    "==": "==", "!=": "!=", "<": "<", ">": ">", "<=": "<=", ">=": ">=",
}

#: C's logical operators yield 0 or 1, never an operand (Python's
#: ``2 and 3`` is 3); both short-circuit as in C
_PY_LOGICAL = {"&&": "and", "||": "or"}


def _literal(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(value)


def expr_to_python(
    expr: Expr,
    param_names: Set[str],
    constants: Mapping[str, float],
    sizeof_table: Mapping[str, int],
    coerce: str = "",
) -> str:
    """Render ``expr`` as Python source.

    ``param_names`` may appear as variables; other names must be known
    constants (inlined) or generation fails — an unbound name in a spec
    is a bug the developer must see at generation time, not at call
    time.
    """

    def render(node: Expr) -> str:
        if isinstance(node, Literal):
            return _literal(node.value)
        if isinstance(node, Name):
            if node.identifier in param_names:
                return f"{coerce}({node.identifier})" if coerce else node.identifier
            if node.identifier in constants:
                return _literal(constants[node.identifier])
            raise SpecSemanticError(
                f"expression references {node.identifier!r}, which is "
                "neither a parameter nor a known constant"
            )
        if isinstance(node, SizeOf):
            if node.type_name not in sizeof_table:
                raise SpecSemanticError(
                    f"sizeof({node.type_name}) has no known size"
                )
            return str(int(sizeof_table[node.type_name]))
        if isinstance(node, Unary):
            if node.op == "!":
                return f"int(not {render(node.operand)})"
            return f"({node.op}{render(node.operand)})"
        if isinstance(node, Binary):
            if node.op in _PY_LOGICAL:
                return (f"int(bool({render(node.left)} "
                        f"{_PY_LOGICAL[node.op]} {render(node.right)}))")
            op = _PY_BINARY.get(node.op)
            if op is None:
                raise SpecSemanticError(f"operator {node.op!r} not supported")
            return f"({render(node.left)} {op} {render(node.right)})"
        if isinstance(node, Conditional):
            return (
                f"({render(node.if_true)} if {render(node.condition)} "
                f"else {render(node.if_false)})"
            )
        raise SpecSemanticError(f"cannot compile {type(node).__name__}")

    return render(expr)
