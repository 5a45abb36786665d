"""Named lattices with exact generator matrices.

These serve as code substrates and as decoder fixtures.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .decoder import MAX_DIM
from .symplectic_lattice import Lattice, lattice_from_rows


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    lattice: Lattice
    notes: str


def _zn(n: int) -> CatalogEntry:
    if n <= 0 or n % 2:
        raise ValueError("Zn requires an even positive dimension")
    if n > MAX_DIM:  # refused before the n x n basis is built
        raise ValueError(f"Zn supports dimensions up to {MAX_DIM}, the decoder's limit; got {n}")
    basis = [[int(i == j) for j in range(n)] for i in range(n)]
    return CatalogEntry(
        name=f"Zn({n})",
        lattice=lattice_from_rows(basis, 1),
        notes="Cubic lattice; symplectically self-dual (A = omega), |det basis| = 1.",
    )


def _grid_qudit(d: int) -> CatalogEntry:
    if d < 1:
        raise ValueError("grid_qudit requires d >= 1")
    return CatalogEntry(
        name=f"grid_qudit({d})",
        lattice=lattice_from_rows([[1, 0], [0, 1]], d),
        notes=(
            "Single-mode grid code: stabilizer sqrt(d) Z^2, normalizer "
            "(1/sqrt(d)) Z^2, code dimension d."
        ),
    )


def _d4() -> CatalogEntry:
    basis = [
        [1, -1, 0, 0],
        [0, 1, -1, 0],
        [0, 0, 1, -1],
        [0, 0, 1, 1],
    ]
    return CatalogEntry(
        name="D4",
        lattice=lattice_from_rows(basis, 1),
        notes="Checkerboard lattice (integer vectors with even sum); |det basis| = 2.",
    )


def _e8() -> CatalogEntry:
    h = Fraction(1, 2)
    basis = [
        [2, 0, 0, 0, 0, 0, 0, 0],
        [-1, 1, 0, 0, 0, 0, 0, 0],
        [0, -1, 1, 0, 0, 0, 0, 0],
        [0, 0, -1, 1, 0, 0, 0, 0],
        [0, 0, 0, -1, 1, 0, 0, 0],
        [0, 0, 0, 0, -1, 1, 0, 0],
        [0, 0, 0, 0, 0, -1, 1, 0],
        [h, h, h, h, h, h, h, h],
    ]
    return CatalogEntry(
        name="E8",
        lattice=lattice_from_rows(basis, 1),
        notes=(
            "Even coordinate system: D8 plus the all-halves glue vector; "
            "unimodular (|det basis| = 1)."
        ),
    )


_PARAMETRIC = re.compile(r"^(Zn|grid_qudit)[(:]([0-9]+)\)?$")


def get(name: str) -> CatalogEntry:
    """Look up a catalog entry: Zn(n), D4, E8, or grid_qudit(d).

    Parametric names also accept a colon separator (e.g. grid_qudit:2),
    which is friendlier on a command line.
    """
    name = name.strip()
    if name == "D4":
        return _d4()
    if name == "E8":
        return _e8()
    m = _PARAMETRIC.match(name)
    if m:
        kind, arg = m.group(1), int(m.group(2))
        return _zn(arg) if kind == "Zn" else _grid_qudit(arg)
    raise KeyError(f"unknown lattice name: {name!r}")
