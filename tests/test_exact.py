"""The exact rational layer: one fraction-free elimination, int-only code."""

import ast
import inspect
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkplat import exact

import oracles

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def rational_matrix(draw):
    """An n x n rational matrix, 1 <= n <= 12; some draws are singular (a
    repeated or scaled row), and zero leading entries force row swaps."""
    n = draw(st.integers(1, 12))
    rows = [draw(st.lists(rationals, min_size=n, max_size=n)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        c = draw(rationals)
        rows[i] = [c * v for v in rows[j]]  # singular
    for row in rows[:draw(st.integers(0, n))]:
        row[0] = Fraction(0)  # zero pivots: the elimination must swap rows
    return exact.freeze(rows)


class TestElimination:
    @settings(max_examples=150, deadline=None)
    @given(a=rational_matrix())
    def test_matches_fraction_oracle(self, a):
        det = exact.determinant(a)
        assert det == oracles.determinant(a)
        if det == 0:
            with pytest.raises(ValueError, match="singular"):
                exact.inverse(a)
            with pytest.raises(ValueError, match="singular"):
                oracles.inverse(a)
        else:
            inv = exact.inverse(a)
            assert inv == oracles.inverse(a)
            assert exact.mat_mul(inv, a) == exact.identity(len(a))

    def test_row_swap_sign(self):
        assert exact.determinant(exact.freeze([[0, 1], [1, 0]])) == -1
        assert exact.inverse(exact.freeze([[0, 2], ["1/3", 0]])) == exact.freeze(
            [[0, 3], ["1/2", 0]])

    def test_singular_inverse_refused(self):
        with pytest.raises(ValueError, match="matrix is singular"):
            exact.inverse(exact.freeze([[1, 2], [2, 4]]))


class TestIntegerForm:
    def test_clears_to_lcm(self):
        rows, den = exact.integer_form(exact.freeze([["1/2", "2/3"], [0, 5]]))
        assert (rows, den) == (((3, 4), (0, 30)), 6)

    def test_content(self):
        assert exact.content(exact.freeze([["2/3", "4/9"], [0, 0]])) == Fraction(2, 9)
        with pytest.raises(ValueError, match="all-zero matrix has no content"):
            exact.content(exact.freeze([[0, 0], [0, 0]]))


@pytest.mark.parametrize("rows,message", [
    ([], "matrix must be nonempty"),
    ([[1, 2], [3]], "matrix rows must be nonempty and rectangular"),
    ([[]], "matrix rows must be nonempty and rectangular"),
])
def test_freeze_refuses_empty_or_ragged(rows, message):
    with pytest.raises(ValueError, match=message):
        exact.freeze(rows)


def test_module_is_int_only():
    """No float literal, no float(...) call, and from math only gcd, isqrt
    and lcm: nothing in the exact layer touches a float."""
    tree = ast.parse(inspect.getsource(exact))
    for node in ast.walk(tree):
        assert not (isinstance(node, ast.Constant) and isinstance(node.value, float)), \
            f"float literal at line {node.lineno}"
        assert not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "float"), f"float() call at line {node.lineno}"
        if isinstance(node, ast.Import):
            assert all(alias.name != "math" for alias in node.names), "import math"
        if isinstance(node, ast.ImportFrom) and node.module == "math":
            assert {alias.name for alias in node.names} <= {"gcd", "isqrt", "lcm"}
