"""Catalog lattices: constants and structural claims."""

import math
import re

import numpy as np
import pytest

from gkplat import exact
from gkplat.catalog import get
from gkplat.decoder import MAX_DIM, shortest_vector
from gkplat.symplectic_lattice import (
    code_dimension,
    dual_lattice,
    is_symplectically_integral,
    symplectic_gram,
)

from oracles import _delta_box, omega

# squared shortest-vector lengths of the catalog lattices, known in closed form
KNOWN_SHORTEST_SQ = {"Zn(2)": 1, "Zn(4)": 1, "D4": 2, "E8": 2, "grid_qudit(3)": 3}


def test_zn_entry():
    entry = get("Zn(2)")
    assert entry.lattice.basis == exact.identity(2)
    assert entry.lattice.scale_sq == 1
    assert shortest_vector(entry.lattice)[1] == KNOWN_SHORTEST_SQ["Zn(2)"]


def test_zn_self_dual():
    for n in [2, 4, 6]:
        lat = get(f"Zn({n})").lattice
        assert symplectic_gram(lat) == omega(n)
        assert code_dimension(lat) == 1


def test_grid_qudit_code():
    entry = get("grid_qudit(2)")
    assert code_dimension(entry.lattice) == 2
    _, length_sq = shortest_vector(dual_lattice(entry.lattice))
    assert length_sq == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_grid_qudit_physical_min_distance(d):
    """Normalizer spacing in physical units is sqrt(2 pi hbar / d)."""
    hbar = 1.0
    normalizer = dual_lattice(get(f"grid_qudit({d})").lattice)
    _, length_sq = shortest_vector(normalizer)
    physical = math.sqrt(2.0 * math.pi * hbar) * math.sqrt(length_sq)
    assert physical == pytest.approx(math.sqrt(2.0 * math.pi * hbar / d), rel=1e-12)


def test_e8_shortest_by_enumeration():
    lat = get("E8").lattice
    m = lat.effective_matrix()
    coeffs = _delta_box(8, 2)
    vecs = coeffs @ m
    norms = np.einsum("ij,ij->i", vecs, vecs)
    nonzero = norms[norms > 1e-9]
    assert nonzero.min() == pytest.approx(2.0, abs=1e-12)
    assert KNOWN_SHORTEST_SQ["E8"] == pytest.approx(nonzero.min())


def test_d4_shortest_by_enumeration():
    lat = get("D4").lattice
    m = lat.effective_matrix()
    coeffs = _delta_box(4, 3)
    vecs = coeffs @ m
    norms = np.einsum("ij,ij->i", vecs, vecs)
    nonzero = norms[norms > 1e-9]
    assert nonzero.min() == pytest.approx(2.0, abs=1e-12)


def test_dets_match_notes():
    assert abs(exact.determinant(get("D4").lattice.basis)) == 2
    assert abs(exact.determinant(get("E8").lattice.basis)) == 1
    assert is_symplectically_integral(get("D4").lattice)
    assert is_symplectically_integral(get("E8").lattice)


def test_known_shortest_matches_enumeration():
    for name, known in KNOWN_SHORTEST_SQ.items():
        _, length_sq = shortest_vector(get(name).lattice)
        assert length_sq == pytest.approx(known, rel=1e-12)


def test_colon_syntax():
    assert get("grid_qudit:4").lattice == get("grid_qudit(4)").lattice
    assert get("Zn:6").lattice == get("Zn(6)").lattice


def test_unknown_name():
    with pytest.raises(ValueError, match="unknown lattice name: 'Leech'"):
        get("Leech")
    with pytest.raises(ValueError):
        get("Zn(3)")
    with pytest.raises(ValueError, match="grid_qudit requires d >= 1"):
        get("grid_qudit(0)")


@pytest.mark.parametrize("name", ["Zn:4)", "Zn(4", "grid_qudit:2)", "grid_qudit(2",
                                  "Zn(4))", "Zn:(4)", "Zn:4:", "Zn4", "Zn()", "Zn:"])
def test_unbalanced_or_mixed_parametric_name_refused(name):
    # exactly name(n) or name:n
    with pytest.raises(ValueError, match=f"unknown lattice name: {re.escape(repr(name))}"):
        get(name)


def test_zn_limited_to_decoder_dimensions():
    assert get(f"Zn({MAX_DIM})").lattice.n == MAX_DIM
    for n in [MAX_DIM + 2, 10**9]:  # refused before an n x n basis is built
        with pytest.raises(ValueError, match=f"up to {MAX_DIM}"):
            get(f"Zn({n})")
