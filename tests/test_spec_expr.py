"""Unit and property tests for spec expressions: the parser, and the
compiled Python the routing table runs for each `consumes` estimate."""

import pytest
from hypothesis import given, strategies as st

from repro.codegen.pyexpr import expr_to_python
from repro.spec.errors import ExprError, SpecSemanticError
from repro.spec.expr import (
    DEFAULT_SIZEOF,
    Binary,
    Literal,
    Name,
    SizeOf,
    parse_expr,
)


def evaluate(expr, env, sizeof_table=None):
    """``expr`` compiled as the routing table compiles an estimate (names
    coerced to float, the result wrapped in ``float``), run with ``env``
    bound as its parameters."""
    sizes = {**DEFAULT_SIZEOF, **(sizeof_table or {})}
    code = "float(%s)" % expr_to_python(expr, set(env), {}, sizes,
                                        coerce="float")
    return eval(code, {}, dict(env))


class TestParsing:
    def test_literal(self):
        assert evaluate(parse_expr("42"), {}) == 42

    def test_hex_literal(self):
        assert evaluate(parse_expr("0x10"), {}) == 16

    def test_name_lookup(self):
        assert evaluate(parse_expr("size"), {"size": 128}) == 128

    def test_unbound_name_raises(self):
        with pytest.raises(SpecSemanticError):
            evaluate(parse_expr("ghost"), {})

    def test_arithmetic_precedence(self):
        assert evaluate(parse_expr("2 + 3 * 4"), {}) == 14

    def test_parentheses(self):
        assert evaluate(parse_expr("(2 + 3) * 4"), {}) == 20

    def test_unary_minus(self):
        assert evaluate(parse_expr("-5 + 10"), {}) == 5

    def test_unary_not(self):
        assert evaluate(parse_expr("!0"), {}) == 1
        assert evaluate(parse_expr("!3"), {}) == 0

    def test_comparison(self):
        env = {"a": 1, "b": 2}
        assert evaluate(parse_expr("a < b"), env) == 1
        assert evaluate(parse_expr("a >= b"), env) == 0
        assert evaluate(parse_expr("a != b"), env) == 1

    def test_logical_short_circuit_style(self):
        env = {"x": 1, "y": 0}
        assert evaluate(parse_expr("x && y"), env) == 0
        assert evaluate(parse_expr("x || y"), env) == 1

    def test_ternary(self):
        env = {"blocking": 1}
        assert evaluate(parse_expr("blocking ? 10 : 20"), env) == 10
        assert evaluate(parse_expr("blocking ? 10 : 20"), {"blocking": 0}) == 20

    def test_sizeof_known_type(self):
        assert evaluate(parse_expr("sizeof(cl_event)"), {}) == 8
        assert evaluate(parse_expr("4 * sizeof(float)"), {}) == 16

    def test_sizeof_unknown_type_raises(self):
        with pytest.raises(SpecSemanticError):
            evaluate(parse_expr("sizeof(struct nothing)"), {})

    def test_sizeof_custom_table(self):
        assert evaluate(parse_expr("sizeof(weird)"), {}, {"weird": 3}) == 3

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ExprError):
            parse_expr("1 + 2 }")

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            evaluate(parse_expr("1 / 0"), {})

    def test_modulo(self):
        assert evaluate(parse_expr("7 % 3"), {}) == 1

    def test_figure4_condition(self):
        expr = parse_expr("blocking_read == CL_TRUE")
        assert evaluate(expr, {"blocking_read": 1, "CL_TRUE": 1}) == 1
        assert evaluate(expr, {"blocking_read": 0, "CL_TRUE": 1}) == 0


class TestNamesAndSource:
    def test_names_collected(self):
        expr = parse_expr("a * b + sizeof(int) + 3")
        assert expr.names() == {"a", "b"}

    def test_to_source_round_trips(self):
        source = "(a + b) * sizeof(cl_event)"
        expr = parse_expr(source)
        again = parse_expr(expr.to_source())
        env = {"a": 2, "b": 3}
        assert evaluate(expr, env) == evaluate(again, env)

    def test_ternary_names(self):
        expr = parse_expr("c ? x : y")
        assert expr.names() == {"c", "x", "y"}


class TestProperties:
    @given(st.integers(min_value=-10**6, max_value=10**6))
    def test_literal_round_trip(self, value):
        expr = parse_expr(str(value))
        assert evaluate(expr, {}) == value

    @given(
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=0, max_value=1000),
    )
    def test_addition_matches_python(self, a, b):
        assert evaluate(parse_expr("a + b"), {"a": a, "b": b}) == a + b

    @given(
        st.integers(min_value=-100, max_value=100),
        st.integers(min_value=-100, max_value=100),
        st.integers(min_value=-100, max_value=100),
    )
    def test_precedence_matches_python(self, a, b, c):
        env = {"a": a, "b": b, "c": c}
        assert evaluate(parse_expr("a + b * c"), env) == a + b * c
        assert evaluate(parse_expr("(a + b) * c"), env) == (a + b) * c

    @given(st.sampled_from(["<", ">", "<=", ">=", "==", "!="]),
           st.integers(-50, 50), st.integers(-50, 50))
    def test_comparisons_match_python(self, op, a, b):
        expected = {
            "<": a < b, ">": a > b, "<=": a <= b,
            ">=": a >= b, "==": a == b, "!=": a != b,
        }[op]
        result = evaluate(parse_expr(f"a {op} b"), {"a": a, "b": b})
        assert bool(result) == expected

    def test_round_trip_source_stable(self):
        expr = parse_expr("n * sizeof(float) + (blocking ? 4 : 0)")
        once = expr.to_source()
        twice = parse_expr(once).to_source()
        assert once == twice


class TestEvaluatorEdgeCases:
    def test_none_env_value_is_not_a_number(self):
        """The router binds only numeric arguments: a None scalar leaves
        the estimate unbound, and the router leaves it out."""
        with pytest.raises(TypeError):
            evaluate(parse_expr("x + 1"), {"x": None})

    def test_result_is_a_float(self):
        for source in ("1", "a && b", "a < b", "sizeof(int)"):
            assert type(evaluate(parse_expr(source), {"a": 1, "b": 2})) \
                is float

    def test_direct_nodes(self):
        expr = Binary("+", Literal(1), Name("n"))
        assert evaluate(expr, {"n": 2}) == 3

    def test_sizeof_node_names_empty(self):
        assert SizeOf("float").names() == set()
