"""Exact rational matrix helpers for the lattice algebra.

Code-validity predicates (symplectic integrality, duals, code dimensions)
must be decidable with no floating tolerance, so matrices are stored as
tuples of Fractions and nothing here ever touches a float. Products and
eliminations run in Python ints over cleared denominators (integer_form).
Sizes are desk scale (n <= 12).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul

Matrix = tuple[tuple[Fraction, ...], ...]


def as_fraction(value) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' string to a Fraction.

    Floats are rejected: they would silently launder rounding error into
    the exact layer. Bools are rejected too: a JSON true is not the number 1.
    """
    if isinstance(value, (bool, float)):
        raise TypeError("exact matrices cannot be built from floats or bools")
    return Fraction(value)


def freeze(rows) -> Matrix:
    """Deep-copy rows into an immutable Fraction matrix."""
    mat = tuple(tuple(as_fraction(v) for v in row) for row in rows)
    if not mat:
        raise ValueError("matrix must be nonempty")
    width = len(mat[0])
    if width == 0 or any(len(row) != width for row in mat):
        raise ValueError("matrix rows must be nonempty and rectangular")
    return mat


def identity(n: int) -> Matrix:
    one, zero = Fraction(1), Fraction(0)
    return tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def integer_form(a: Matrix) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(rows, den) with a = rows / den: den the lcm of the denominators,
    rows Python ints. The one place a rational matrix is cleared."""
    den = lcm(*(v.denominator for row in a for v in row))
    return tuple(tuple(v.numerator * (den // v.denominator) for v in row) for row in a), den


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact a @ b: int products over cleared denominators, one division per entry."""
    (na, da), (nb, db) = integer_form(a), integer_form(b)
    cols = tuple(zip(*nb))
    return tuple(tuple(Fraction(sum(map(mul, row, col)), da * db) for col in cols) for row in na)


def scale(a: Matrix, c) -> Matrix:
    c = as_fraction(c)
    return tuple(tuple(c * v for v in row) for row in a)


def _gauss_jordan(a: Matrix) -> tuple[Fraction, Matrix | None]:
    """det(a) and a^-1 (None if singular) by one fraction-free Gauss-Jordan
    pass over [den a | I] (Bareiss, Math. Comp. 22, 1968): each entry stays a
    minor, so every division by the last pivot is exact. It ends at
    [p I | p (den a)^-1], p the determinant of the row-swapped den a."""
    rows, den = integer_form(a)
    n = len(rows)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k]), None)
        if pivot is None:
            return Fraction(0), None
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        top, p = m[k], m[k][k]
        for i in range(n):
            if i != k:
                f = m[i][k]
                m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], top)]
        prev = p
    inv = tuple(tuple(Fraction(den * x, prev) for x in row[n:]) for row in m)
    return Fraction(sign * prev, den ** n), inv


def determinant(a: Matrix) -> Fraction:
    """Exact determinant of a square matrix."""
    return _gauss_jordan(a)[0]


def inverse(a: Matrix) -> Matrix:
    """Exact inverse; raises ValueError on singular input."""
    inv = _gauss_jordan(a)[1]
    if inv is None:
        raise ValueError("matrix is singular")
    return inv


def is_integral(a: Matrix) -> bool:
    return all(v.denominator == 1 for row in a for v in row)


def content(a: Matrix) -> Fraction:
    """The largest rational c with a / c integral: the gcd of the cleared
    entries over their common denominator. An all-zero matrix has none."""
    rows, den = integer_form(a)
    g = gcd(*(v for row in rows for v in row))
    if g == 0:
        raise ValueError("all-zero matrix has no content")
    return Fraction(g, den)


def fraction_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if x < 0:
        return None
    p, q = x.numerator, x.denominator
    sp, sq = isqrt(p), isqrt(q)
    if sp * sp == p and sq * sq == q:
        return Fraction(sp, sq)
    return None
