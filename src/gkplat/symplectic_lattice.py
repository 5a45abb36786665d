"""Stabilizer lattices in 2N-dimensional phase space, with exact algebra.

A lattice is stored as a rational generator matrix ``basis`` (rows are
generator vectors v = (alpha, beta) in dimensionless symplectic
coordinates) together with a rational scale factor ``scale_sq`` = lambda;
the effective generator matrix is M = sqrt(lambda) * basis.  Keeping the
sqrt(lambda) symbolic means every algebraic predicate -- symplectic
integrality, duals, standard forms, code dimensions -- is exact rational
arithmetic with no tolerance anywhere.

Conventions: coordinates are ordered (q-like..., p-like...), so the
symplectic form omega is the block matrix [[0, I], [-I, 0]]. Two
phase-space translations commute exactly when their symplectic form is an
integer, which is why integrality of A = M omega M^T characterizes a valid
stabilizer group. No omega is formed (the test oracles hold one).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import exact
from .exact import Matrix


@dataclass(frozen=True)
class Lattice:
    """A full-rank lattice sqrt(scale_sq) * (integer row span of basis): basis
    a nonsingular rational n x n matrix, n = 2N even; scale_sq > 0 rational."""

    basis: Matrix
    scale_sq: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "basis", exact.freeze(self.basis))
        object.__setattr__(self, "scale_sq", exact.as_fraction(self.scale_sq))
        if self.n % 2 or len(self.basis[0]) != self.n:
            raise ValueError("basis must be a square matrix of even size")
        if self.scale_sq <= 0:
            raise ValueError("scale_sq must be positive")
        if exact.determinant(self.basis) == 0:
            raise ValueError("basis is singular")

    @property
    def n(self) -> int:
        return len(self.basis)

    @property
    def num_modes(self) -> int:
        return self.n // 2

    def effective_matrix(self) -> np.ndarray:
        """Float generator matrix M = sqrt(scale_sq) * basis. A lambda or
        basis entry whose float64 value, or entry of M, overflows or is
        nonzero and underflows to 0 is a ValueError naming its field."""
        def to_float(field, exact, scale=1.0):
            try:
                value = scale * float(exact)
            except OverflowError:  # a ratio of ints too large for a float
                value = math.inf
            if abs(value) == math.inf or (value == 0) != (exact == 0):
                verb = "overflows" if value else "underflows to 0"
                raise ValueError(f"lattice field {field!r} is beyond float64 in "
                                 f"sqrt(lambda) * basis: it {verb}")
            return value
        root = math.sqrt(to_float("lambda", self.scale_sq))
        return np.array([[to_float("basis", v, root) for v in row] for row in self.basis])

    def normalized(self) -> "Lattice":
        """Fold the rational content of the basis into scale_sq.

        The returned lattice generates the identical point set; entries of
        the new basis have no common rational factor.
        """
        c = exact.content(self.basis)
        if c == 1:
            return self
        basis = exact.scale(self.basis, 1 / c)
        return Lattice(basis, self.scale_sq * c * c)


lattice_from_rows = Lattice  # the public name the demos and the catalog build with


@dataclass(frozen=True)
class SymplecticGram:
    """A = M omega M^T; antisymmetric, exact rational."""

    entries: Matrix

    def __post_init__(self):
        object.__setattr__(self, "entries", exact.freeze(self.entries))
        a = self.entries
        n = len(a)
        if any(len(row) != n for row in a):
            raise ValueError("gram matrix must be square")
        if any(a[i][j] != -a[j][i] for i in range(n) for j in range(n)):
            raise ValueError("gram matrix must be antisymmetric")

    @property
    def n(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class StandardForm:
    """Unimodular R and positive diagonal D, each entry dividing the next,
    with R A R^T = [[0,D],[-D,0]]."""

    r: Matrix
    diag: tuple[int, ...]

    def block_form(self) -> Matrix:
        """The antisymmetric matrix [[0, D], [-D, 0]] this form certifies,
        D = diag(diag)."""
        half = len(self.diag)
        rows = [[0] * (2 * half) for _ in range(2 * half)]
        for i, d in enumerate(self.diag):
            rows[i][half + i], rows[half + i][i] = d, -d
        return exact.freeze(rows)


@lru_cache(maxsize=128)
def symplectic_gram(lat: Lattice) -> SymplecticGram:
    """Exact A = scale_sq * basis omega basis^T, the pairing of lat with
    itself; cached, so each lattice's A is formed once."""
    return SymplecticGram(symplectic_pairing(lat, lat))


def is_symplectically_integral(lat: Lattice) -> bool:
    """True iff every symplectic product of generators is an integer."""
    return exact.is_integral(symplectic_gram(lat).entries)


def dual_lattice(lat: Lattice) -> Lattice:
    """Symplectic dual, generated by A^-1 M (the normalizer lattice)."""
    return _dual(lat, exact.inverse(symplectic_gram(lat).entries))  # ValueError on singular A


def _dual(lat: Lattice, a_inv: Matrix) -> Lattice:
    """A^-1 M, normalized (basis content folded into scale_sq), with the
    defining identity M_dual omega M^T = I re-checked exactly."""
    dual = Lattice(exact.mat_mul(a_inv, lat.basis), lat.scale_sq).normalized()
    if symplectic_pairing(dual, lat) != exact.identity(lat.n):
        raise AssertionError("dual lattice failed the pairing identity")
    return dual


def symplectic_pairing(lat1: Lattice, lat2: Lattice) -> Matrix:
    """Exact M1 omega M2^T: one product of basis1 with the rotated rows
    (beta, -alpha) of basis2, times sqrt(scale_sq(1) * scale_sq(2)); no
    omega matrix is formed. An irrational root raises ValueError.
    """
    if lat1.n != lat2.n:
        raise ValueError("dimension mismatch")
    root = exact.fraction_sqrt(lat1.scale_sq * lat2.scale_sq)
    if root is None:
        raise ValueError("pairing scale is irrational")
    half = lat2.num_modes
    rotated = tuple(row[half:] + tuple(-x for x in row[:half]) for row in lat2.basis)
    return exact.scale(exact.mat_mul(lat1.basis, exact.transpose(rotated)), root)


def standard_form(gram: SymplecticGram) -> StandardForm:
    """Reduce an integral antisymmetric A to [[0,D],[-D,0]] by a unimodular R.

    Integer congruence transformations only (paired row/column additions,
    swaps): a gcd-descent pivot loop, the antisymmetric analogue of Smith
    reduction. D is positive and each entry divides the next (the
    invariant factors of A, each appearing twice).
    """
    if not exact.is_integral(gram.entries):
        raise ValueError("standard form requires an integral gram matrix")
    n = gram.n
    entries = [[int(v) for v in row] for row in gram.entries]
    a = [row[:] for row in entries]
    r = [[int(i == j) for j in range(n)] for i in range(n)]

    def add(i, j, c):
        # generator op v_i += c * v_j, applied congruently to A
        if c == 0:
            return
        ai, aj, ri, rj = a[i], a[j], r[i], r[j]
        for t in range(n):
            ai[t] += c * aj[t]
        for row in a:
            row[i] += c * row[j]
        for t in range(n):
            ri[t] += c * rj[t]

    def swap(i, j):
        a[i], a[j] = a[j], a[i]
        for row in a:
            row[i], row[j] = row[j], row[i]
        r[i], r[j] = r[j], r[i]

    s = 0
    while s < n:
        while True:
            pivot = min(((abs(a[i][j]), i, j) for i in range(s, n) for j in range(i + 1, n)
                         if a[i][j]), default=None)
            if pivot is None:
                raise ValueError("gram matrix is singular")
            _, pi, pj = pivot
            swap(s, pi)
            swap(s + 1, pi if pj == s else pj)
            if a[s][s + 1] < 0:
                swap(s, s + 1)
            d = a[s][s + 1]
            for i in range(s + 2, n):
                add(i, s, -(a[i][s + 1] // d))
                add(i, s + 1, a[i][s] // d)
            if any(a[i][s] or a[i][s + 1] for i in range(s + 2, n)):
                continue  # nonzero remainder < d; re-pivot
            # d must divide the rest; else pull a row it does not divide
            # into pair s, leaving a remainder < d to re-pivot on
            row = next((i for i in range(s + 2, n)
                        if any(a[i][j] % d for j in range(s + 2, n))), None)
            if row is None:
                break
            add(s, row, 1)
        s += 2

    # interleaved symplectic pairs -> block form; each pivot divides every
    # later one, so the pairs are already in ascending order
    order = list(range(0, n, 2)) + list(range(1, n, 2))
    r = [r[i] for i in order]
    diag = tuple(a[k][k + 1] for k in range(0, n, 2))

    form = StandardForm(exact.freeze(r), diag)
    check = exact.mat_mul(exact.mat_mul(r, entries), exact.transpose(r))  # in Python ints
    if check != form.block_form() or abs(exact.determinant(form.r)) != 1:
        raise AssertionError("standard form reduction failed verification")
    return form


def cell_volume(lat: Lattice) -> Fraction:
    """Exact unit-cell volume |det M| = |det basis| * lambda^N."""
    return abs(exact.determinant(lat.basis)) * lat.scale_sq ** lat.num_modes


def code_dimension(lat: Lattice) -> int:
    """Code-space dimension m = det D = |Pf A| of an integral lattice."""
    gram = symplectic_gram(lat)
    if not exact.is_integral(gram.entries):
        raise ValueError("lattice is not symplectically integral")
    m = math.prod(standard_form(gram).diag)
    if cell_volume(lat) != m:  # |det M| must agree exactly
        raise AssertionError("code dimension disagrees with |det M|")
    return m


def rescale(lat: Lattice, lam: int) -> Lattice:
    """Scale a self-dual lattice by sqrt(lam), giving code dimension lam^N."""
    if lam < 1 or int(lam) != lam:
        raise ValueError("rescale factor must be a positive integer")
    if not is_symplectically_integral(lat) or code_dimension(lat) != 1:
        raise ValueError("rescale requires a symplectically self-dual lattice")
    if lam == 1:
        return lat
    return Lattice(lat.basis, lat.scale_sq * lam)


def gram_matrix(lat: Lattice) -> Matrix:
    """Euclidean Gram matrix G = M M^T = scale_sq * basis basis^T."""
    return exact.scale(exact.mat_mul(lat.basis, exact.transpose(lat.basis)), lat.scale_sq)


@dataclass(frozen=True)
class LatticeCode:
    """A stabilizer lattice, its normalizer, and the code it defines."""

    stabilizer: Lattice
    normalizer: Lattice
    dimension: int
    rate_qubits: float
    transition: Matrix  # A^-1: normalizer coefficients -> stabilizer coefficients

    @cached_property
    def coset_test(self) -> tuple[np.ndarray, int]:
        """(num, den) with transition = num / den, built once per code:
        coefficients c are a stabilizer translation iff den divides c @ num."""
        den = math.lcm(*(v.denominator for row in self.transition for v in row))
        num = np.array([[int(v * den) for v in row] for row in self.transition],
                       dtype=np.int64)
        num.setflags(write=False)
        return num, den


def make_code(lat: Lattice) -> LatticeCode:
    """Build the code defined by a symplectically integral lattice.

    A is formed, reduced to standard form and inverted once each. A^-1 M
    generates the normalizer, and A^-1 is also the coefficient transition:
    c M_perp = (c A^-1) M for normalizer coefficients c.
    """
    m = code_dimension(lat)  # validates integrality; certifies |det M| = m
    a = symplectic_gram(lat).entries
    a_inv = exact.inverse(a)
    normalizer = _dual(lat, a_inv)
    # M = A M_perp with A integral: every stabilizer generator is in the normalizer
    root = exact.fraction_sqrt(normalizer.scale_sq / lat.scale_sq)
    if exact.scale(exact.mat_mul(a, normalizer.basis), root) != lat.basis:
        raise AssertionError("stabilizer generator escapes the normalizer")
    # unit-cell volume ratio |det M| / |det M_dual| must equal m^2 (|det M| = m, certified)
    if m != m * cell_volume(normalizer) * m:
        raise AssertionError("unit-cell volume ratio disagrees with m^2")
    rate = math.log2(m) / lat.num_modes
    return LatticeCode(lat, normalizer, m, rate, a_inv)


def coeff_transition(src: Lattice, dst: Lattice) -> Matrix:
    """Exact change of coordinates: src-basis coefficients -> dst-basis.

    A row vector c of src coefficients denotes the point c M_src; the
    returned T satisfies c M_src = (c T) M_dst.
    """
    root = exact.fraction_sqrt(src.scale_sq / dst.scale_sq)
    if root is None:
        raise ValueError("lattice scales are incompatible")
    t = exact.mat_mul(src.basis, exact.inverse(dst.basis))
    return exact.scale(t, root)


def logical_class(code: LatticeCode, coeffs) -> tuple[Fraction, ...]:
    """Class of a normalizer point (by basis coefficients) in L_perp / L.

    The label is the fractional part of its stabilizer-basis coordinates
    c @ num / den (see LatticeCode.coset_test), in Python ints; all zeros
    means the point is a stabilizer translation.
    """
    num, den = code.coset_test
    c = [int(x) for x in coeffs]
    return tuple(Fraction(sum(x * y for x, y in zip(c, col)) % den, den)
                 for col in num.T.tolist())


def orthogonal_scale_sq(lat: Lattice) -> Fraction | None:
    """c^2 when the effective generator rows are orthogonal with equal
    norm c (G = c^2 I exactly); None otherwise.

    Such lattices are scaled rotations of the cubic lattice, for which
    nearest-point decoding is coordinatewise rounding.
    """
    g = gram_matrix(lat)
    c_sq = g[0][0]
    return c_sq if g == exact.scale(exact.identity(lat.n), c_sq) else None


# ---------------------------------------------------------------------------
# JSON interchange: rationals as "p/q" strings so exactness survives a trip
# through a file.

def lattice_from_dict(data: dict) -> Lattice:
    """The lattice of a {"n", "lambda", "basis"} record whose n fits the basis.
    A record that is not an object, or a field that is missing or of the
    wrong type (a float, a bool, a nested list), is a ValueError."""
    fields = {}
    for key, read in (("basis", exact.freeze), ("lambda", exact.as_fraction),
                      ("n", exact.as_fraction)):
        if not isinstance(data, dict) or key not in data:
            raise ValueError(f"lattice record has no {key!r} field")
        try:
            fields[key] = read(data[key])
        except TypeError as exc:
            raise ValueError(f"lattice field {key!r}: {exc}") from exc
    lat = Lattice(fields["basis"], fields["lambda"])
    if fields["n"] != lat.n:
        raise ValueError(f"n = {data['n']} does not match the {lat.n} x {lat.n} basis")
    return lat


def load_lattice(path) -> Lattice:
    with open(path) as fh:
        return lattice_from_dict(json.load(fh))
