"""Exact rational matrix helpers for the lattice algebra.

Code-validity predicates (symplectic integrality, duals, code dimensions)
must be decidable with no floating tolerance, so matrices are stored as
tuples of Fractions and nothing here ever touches a float. Sizes are desk
scale (n <= 12); plain Gaussian elimination is plenty.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

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


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def scale(a: Matrix, c) -> Matrix:
    c = as_fraction(c)
    return tuple(tuple(c * v for v in row) for row in a)


def determinant(a: Matrix) -> Fraction:
    """Exact determinant by fraction Gaussian elimination."""
    n = len(a)
    m = [list(row) for row in a]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col] * inv
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return det


def inverse(a: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan; raises ValueError on singular input."""
    n = len(a)
    m = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * p for v, p in zip(m[r], m[col])]
    return tuple(tuple(row[n:]) for row in m)


def is_integral(a: Matrix) -> bool:
    return all(v.denominator == 1 for row in a for v in row)


def content(a: Matrix) -> Fraction:
    """gcd of all entries: gcd of numerators over lcm of denominators.

    Zero entries are ignored; an all-zero matrix has no content.
    """
    nonzero = [v for row in a for v in row if v]
    if not nonzero:
        raise ValueError("all-zero matrix has no content")
    return Fraction(gcd(*(v.numerator for v in nonzero)), lcm(*(v.denominator for v in nonzero)))


def fraction_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if x < 0:
        return None
    p, q = x.numerator, x.denominator
    sp, sq = isqrt(p), isqrt(q)
    if sp * sp == p and sq * sq == q:
        return Fraction(sp, sq)
    return None
