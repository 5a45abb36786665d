"""Closest-point and shortest-vector search against brute-force references."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkplat import decoder, exact
from gkplat.catalog import get
from gkplat.decoder import (
    MAX_DIM,
    closest_point,
    closest_points,
    packing_radius,
    shortest_vector,
)
from gkplat.symplectic_lattice import (
    Lattice,
    dual_lattice,
    lattice_from_rows,
    make_code,
    rescale,
)

from oracles import BruteForceCVP, reference_closest


def _dist_sq(m, x, coeffs) -> float:
    """|x - coeffs @ m|^2, computed as closest_point computes dist_sq."""
    delta = x - coeffs.astype(float) @ m
    return float(delta @ delta)


class TestClosestPoint:
    def test_plane_interior(self):
        res = closest_point(get("Zn(2)").lattice, [0.4, -0.3])
        assert np.array_equal(res.closest, [0.0, 0.0])
        assert res.dist_sq == pytest.approx(0.25)
        assert not res.tie

    def test_plane_boundary_tie(self):
        res = closest_point(get("Zn(2)").lattice, [0.5, 0.0])
        assert res.tie

    def test_d4_boundary_tie(self):
        # (1/2, 1/2, 0, 0) is equidistant from 0 and (1, 1, 0, 0)
        res = closest_point(get("D4").lattice, [0.5, 0.5, 0.0, 0.0])
        assert res.tie
        assert res.dist_sq == 0.5

    def test_lattice_points_decode_to_themselves(self):
        rng = np.random.default_rng(3)
        for name in ["Zn(4)", "D4", "E8", "grid_qudit(3)"]:
            lat = get(name).lattice
            m = lat.effective_matrix()
            coeffs = rng.integers(-3, 4, size=(20, lat.n))
            vs = coeffs.astype(float) @ m
            got, tie = closest_points(lat, vs)
            assert np.array_equal(got, coeffs)
            assert not tie.any()
            for v, c in zip(vs, got):
                assert _dist_sq(m, v, c) <= 1e-18 * (1.0 + float(v @ v))

    @pytest.mark.parametrize("name", ["Zn(2)", "Zn(4)", "D4", "E8"])
    def test_matches_reference_decoders(self, name):
        lat = get(name).lattice
        m = lat.effective_matrix()
        rng = np.random.default_rng(17)
        xs = rng.uniform(-2.0, 2.0, size=(1000, lat.n))
        coeffs, _ = closest_points(lat, xs)
        for x, c in zip(xs, coeffs):
            _, ref_d = reference_closest(name, x)
            assert _dist_sq(m, x, c) == ref_d

    @pytest.mark.parametrize("name", ["Zn(2)", "D4"])
    def test_matches_coefficient_box(self, name):
        # small lattices also admit a direct exhaustive box search
        lat = get(name).lattice
        m = lat.effective_matrix()
        brute = BruteForceCVP(m, 2)
        xs = np.random.default_rng(29).uniform(-2.0, 2.0, size=(200, lat.n))
        coeffs, _ = closest_points(lat, xs)
        for x, c in zip(xs, coeffs):
            _, brute_d = brute.closest(x)
            assert _dist_sq(m, x, c) == brute_d

    def test_dimension_bound(self):
        n = MAX_DIM + 2
        big = lattice_from_rows([[int(i == j) for j in range(n)] for i in range(n)], 1)
        with pytest.raises(ValueError):
            closest_point(big, [0.0] * (MAX_DIM + 2))

    @pytest.mark.parametrize("name, row", [
        *(pytest.param(name, [bad], id=f"{bad}-{name}")
          for bad in (math.nan, math.inf, 1e300, 2.0 ** 27) for name in ("Zn(2)", "D4")),
        # x @ M^-1 meets inf - inf = NaN: refused, with no RuntimeWarning
        pytest.param("E8", [1e308] * 6 + [-1e308, 1e308], id="overflow-E8"),
    ])
    def test_refuses_undecodable_targets(self, name, row):
        lat = get(name).lattice
        x = np.zeros((3, lat.n))
        x[1, :len(row)] = row
        for block in (x, x[1:2]):  # a batch of one is a vector-matrix product in numpy
            with pytest.raises(ValueError):
                closest_points(lat, block)

    def test_refuses_undecodable_basis(self):
        # Z^4 in a basis so skewed that LLL would need transform entries beyond int64
        lat = lattice_from_rows([[1, 0, 0, 0], [10**15, 1, 0, 0], [3, 10**12, 1, 0],
                                 [7, 5, 10**9, 1]])
        with pytest.raises(ValueError, match="basis is beyond the decoder's int64/float64"):
            closest_points(lat, np.zeros((2, 4)))
        with pytest.raises(ValueError, match="basis"):
            shortest_vector(lat)

    def test_memory_bounded(self):
        # two enumeration blocks of far-off targets on the E8x2 normalizer
        lat = make_code(rescale(get("E8").lattice, 2)).normalizer
        xs = np.random.default_rng(3).standard_normal((8192, 8)) * 1e3
        closest_points(lat, xs[:1])  # build the cached frame outside the count
        tracemalloc.start()
        try:
            coeffs, _ = closest_points(lat, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2**20
        assert coeffs.any(axis=1).all()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            closest_points(get("D4").lattice, np.zeros((2, 3)))


def rounding_reference(lat, xs):
    """The rounding branch of closest_points written with reductions along
    axis 1, the form it had before it went column by column: the reference
    it must match bit for bit."""
    _, m_inv, _, _, c_sq, *_ = decoder._frame(lat)
    c_sq = float(c_sq)
    u = np.asarray(xs, dtype=float) @ m_inv
    k = np.rint(u)
    frac = u - k
    d1 = c_sq * np.einsum("ij,ij->i", frac, frac)
    gap = c_sq * (1.0 - 2.0 * np.abs(frac)).min(axis=1)
    return k.astype(np.int64), gap <= decoder.TIE_REL * (1.0 + d1)


def rounding_targets(lat, rng, rows=600):
    """Gaussian targets at three scales, and exact half- and quarter-integer
    targets, both as ambient coordinates and as basis coefficients."""
    m = lat.effective_matrix()
    exact_points = [rng.integers(-4 * s, 4 * s + 1, size=(rows, lat.n)) / s for s in (2, 4)]
    return np.vstack([rng.standard_normal((rows, lat.n)) * s for s in (0.05, 0.5, 5.0)]
                     + exact_points + [x @ m for x in exact_points])


ORTHOGONAL_FRAMES = {
    **{f"Zn({n})": get(f"Zn({n})").lattice for n in range(2, MAX_DIM + 1, 2)},
    **{f"grid_qudit({d})": get(f"grid_qudit({d})").lattice for d in range(2, 6)},
    "rotated_Z2": lattice_from_rows([[1, 1], [1, -1]], 3),
    "hadamard_Z4": lattice_from_rows([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1],
                                      [1, -1, -1, 1]]),
}


class TestColumnwiseRounding:
    @pytest.mark.parametrize("name", list(ORTHOGONAL_FRAMES))
    def test_equals_axis_reductions(self, name):
        lat = ORTHOGONAL_FRAMES[name]
        assert decoder._frame(lat)[4] is not None  # the rounding branch runs
        xs = rounding_targets(lat, np.random.default_rng(41))
        coeffs, tie = closest_points(lat, xs)
        ref_coeffs, ref_tie = rounding_reference(lat, xs)
        assert coeffs.dtype == ref_coeffs.dtype and np.array_equal(coeffs, ref_coeffs)
        assert np.array_equal(tie, ref_tie)
        assert 0 < tie.sum() < len(tie)  # the exact targets include ties


def _inside(lat, x) -> bool:
    """Strictly closer to the origin than to any other lattice point."""
    res = closest_point(lat, x)
    return not res.tie and not res.coeffs.any()


class TestVoronoi:
    def test_origin_inside(self):
        for name in ["Zn(2)", "D4", "E8"]:
            assert _inside(get(name).lattice, [0.0] * get(name).lattice.n)

    def test_outside_point(self):
        assert not _inside(get("Zn(2)").lattice, [0.6, 0.2])

    def test_near_corner_inside(self):
        assert _inside(get("Zn(2)").lattice, [0.49, 0.49])

    def test_central_symmetry(self):
        rng = np.random.default_rng(23)
        for name in ["Zn(2)", "D4", "E8"]:
            lat = get(name).lattice
            xs = rng.uniform(-1.0, 1.0, size=(200, lat.n))
            inside = [~tie & ~coeffs.any(axis=1)
                      for coeffs, tie in (closest_points(lat, xs), closest_points(lat, -xs))]
            assert np.array_equal(inside[0], inside[1])


class TestShortestVector:
    def test_cubic(self):
        for n in [2, 4, 8]:
            _, length_sq = shortest_vector(get(f"Zn({n})").lattice)
            assert length_sq == pytest.approx(1.0)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_grid_qudit_normalizer(self, d):
        normalizer = dual_lattice(get(f"grid_qudit({d})").lattice)
        _, length_sq = shortest_vector(normalizer)
        assert length_sq == pytest.approx(1.0 / d, rel=1e-12)

    def test_d4(self):
        vec, length_sq = shortest_vector(get("D4").lattice)
        assert length_sq == pytest.approx(2.0)
        assert float(vec @ vec) == pytest.approx(2.0)

    def test_returned_vector_is_lattice_point(self):
        lat = get("E8").lattice
        vec, length_sq = shortest_vector(lat)
        coeffs = vec @ np.linalg.inv(lat.effective_matrix())
        assert np.allclose(coeffs, np.rint(coeffs), atol=1e-9)

    @pytest.mark.parametrize("name, first", [("D4", [1, 1]), ("E8", [1, 1]),
                                             ("Zn(2)", [1]), ("Zn(4)", [1]),
                                             ("Zn(12)", [1]), ("grid_qudit(2)", [math.sqrt(2)]),
                                             ("grid_qudit(3)", [math.sqrt(3)])])
    def test_pinned_vector(self, name, first):
        # which minimal vector is reported shows in `gkplat lattice-info`
        lat = get(name).lattice
        vec, _ = shortest_vector(lat)
        assert vec.tolist() == first + [0.0] * (lat.n - len(first))


class TestPackingRadius:
    def test_cubic(self):
        assert packing_radius(get("Zn(6)").lattice) == pytest.approx(0.5)

    def test_e8(self):
        assert packing_radius(get("E8").lattice) == pytest.approx(math.sqrt(2) / 2)

    def test_rescaled_plane(self):
        lat = rescale(get("Zn(2)").lattice, 4)
        assert packing_radius(lat) == pytest.approx(1.0)

    def test_scaling_law(self):
        base = get("Zn(4)").lattice
        for lam in [2, 3, 5]:
            scaled = rescale(base, lam)
            assert packing_radius(scaled) == pytest.approx(
                math.sqrt(lam) * packing_radius(base), rel=1e-12)


def _skewed(lat: Lattice, rng) -> Lattice:
    """The same lattice in a random unimodular basis."""
    u = np.eye(lat.n, dtype=int)
    for _ in range(2 * lat.n):
        i, j = rng.choice(lat.n, size=2, replace=False)
        u[i] += int(rng.integers(-2, 3)) * u[j]
    return Lattice(exact.mat_mul(exact.freeze(u.tolist()), lat.basis), lat.scale_sq)


def _box_radius(m) -> int:
    """A coefficient radius for which BruteForceCVP(m, radius) is exact.

    The nearest point's coefficients differ from x @ M^-1 by at most
    rho * |column i of M^-1| with rho^2 <= sum r_kk^2 / 4 (Gram-Schmidt)."""
    r = np.linalg.qr(m.T, mode="r")
    rho = math.sqrt(float(np.sum(np.diag(r) ** 2))) / 2.0
    return math.floor(rho * np.linalg.norm(np.linalg.inv(m), axis=0).max() + 0.5)


def _random_basis(n: int, rng) -> tuple[Lattice, int]:
    """A random integer basis whose box oracle is exact at a small radius."""
    limit = 2 if n == 6 else 3
    while True:
        b = rng.integers(-1, 2, size=(n, n)) + np.diag(rng.integers(2, 4, size=n))
        if abs(np.linalg.det(b)) > 0.5 and _box_radius(b.astype(float)) <= limit:
            return lattice_from_rows(b.tolist()), limit


_SEEDS = st.integers(0, 2**32 - 1)
_SCALES = st.sampled_from([0.05, 0.5, 3.0])


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=_SEEDS, scale=_SCALES, which=st.sampled_from(["Zn(4)", "D4", 2, 4, 6]))
    def test_batch_rows_equal_single_points(self, seed, scale, which):
        rng = np.random.default_rng(seed)
        if isinstance(which, str):
            lat = _skewed(get(which).lattice, rng)
        else:
            lat, _ = _random_basis(which, rng)
        xs = rng.standard_normal((12, lat.n)) * scale * 4.0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(decoder, "_BLOCK", 5)  # rows must not depend on their block
            coeffs, tie = closest_points(lat, xs)
        for x, c, t in zip(xs, coeffs, tie):
            res = closest_point(lat, x)
            assert np.array_equal(res.coeffs, c)
            assert res.tie == t

    @settings(max_examples=25, deadline=None)
    @given(seed=_SEEDS, scale=_SCALES, name=st.sampled_from(["Zn(4)", "D4"]))
    def test_skewed_bases_match_box_oracle(self, seed, scale, name):
        rng = np.random.default_rng(seed)
        base = get(name).lattice
        lat = _skewed(base, rng)
        brute = BruteForceCVP(base.effective_matrix(), 2)
        xs = rng.standard_normal((20, lat.n)) * scale * 4.0
        coeffs, _ = closest_points(lat, xs)
        m = lat.effective_matrix()
        for x, c in zip(xs, coeffs):
            ref_c, ref_d = brute.closest(x)
            assert np.allclose(c @ m, ref_c @ brute.m, atol=1e-12)
            assert _dist_sq(m, x, c) == pytest.approx(ref_d, rel=1e-12, abs=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(seed=_SEEDS, scale=_SCALES, n=st.sampled_from([2, 4, 6]))
    def test_random_bases_match_box_oracle(self, seed, scale, n):
        rng = np.random.default_rng(seed)
        lat, radius = _random_basis(n, rng)
        m = lat.effective_matrix()
        brute = BruteForceCVP(m, radius)
        xs = rng.standard_normal((20, n)) * scale * 4.0
        coeffs, _ = closest_points(lat, xs)
        for x, c in zip(xs, coeffs):
            ref_c, ref_d = brute.closest(x)
            assert np.array_equal(c, ref_c)
            assert _dist_sq(m, x, c) == ref_d
