"""Named lattices with exact generator matrices.

These serve as code substrates and as decoder fixtures.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .decoder import MAX_DIM
from .exact import identity
from .symplectic_lattice import Lattice


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    lattice: Lattice
    notes: str


# Fixed lattices: name -> (basis, notes), each at scale 1.
_NAMED = {
    "D4": ([[1, -1, 0, 0],
            [0, 1, -1, 0],
            [0, 0, 1, -1],
            [0, 0, 1, 1]],
           "Checkerboard lattice (integer vectors with even sum); |det basis| = 2."),
    "E8": ([[2, 0, 0, 0, 0, 0, 0, 0],
            [-1, 1, 0, 0, 0, 0, 0, 0],
            [0, -1, 1, 0, 0, 0, 0, 0],
            [0, 0, -1, 1, 0, 0, 0, 0],
            [0, 0, 0, -1, 1, 0, 0, 0],
            [0, 0, 0, 0, -1, 1, 0, 0],
            [0, 0, 0, 0, 0, -1, 1, 0],
            ["1/2"] * 8],
           "Even coordinate system: D8 plus the all-halves glue vector; "
           "unimodular (|det basis| = 1)."),
}


_PARAMETRIC = re.compile(r"(Zn|grid_qudit)(?:\(([0-9]+)\)|:([0-9]+))")


def get(name: str) -> CatalogEntry:
    """Look up a catalog entry: Zn(n), D4, E8, or grid_qudit(d).

    Parametric names also accept a colon separator (e.g. grid_qudit:2),
    which is friendlier on a command line.
    """
    name = name.strip()
    if name in _NAMED:
        basis, notes = _NAMED[name]
        return CatalogEntry(name=name, lattice=Lattice(basis, 1), notes=notes)
    m = _PARAMETRIC.fullmatch(name)
    if m is None:
        raise ValueError(f"unknown lattice name: {name!r}")
    kind, arg = m.group(1), int(m.group(2) or m.group(3))
    # both are identity bases: Zn(n) is n x n at scale 1, grid_qudit(d) 2 x 2 at scale d
    if kind == "Zn":
        if arg <= 0 or arg % 2:
            raise ValueError("Zn requires an even positive dimension")
        if arg > MAX_DIM:  # refused before the n x n basis is built
            raise ValueError(f"Zn supports dimensions up to {MAX_DIM}, the decoder's limit; "
                             f"got {arg}")
        n, scale = arg, 1
        notes = "Cubic lattice; symplectically self-dual (A = omega), |det basis| = 1."
    else:
        if arg < 1:
            raise ValueError("grid_qudit requires d >= 1")
        n, scale = 2, arg
        notes = ("Single-mode grid code: stabilizer sqrt(d) Z^2, normalizer "
                 "(1/sqrt(d)) Z^2, code dimension d.")
    return CatalogEntry(f"{kind}({arg})", Lattice(identity(n), scale), notes)
