"""Closest-point and shortest-vector search against brute-force references."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkplat import decoder, exact
from gkplat.catalog import get
from gkplat.rates import NoiseModel
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
    make_code,
    orthogonal_scale_sq,
    rescale,
)

import oracles
from oracles import BruteForceCVP, reference_closest, reference_search


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
        big = Lattice([[int(i == j) for j in range(n)] for i in range(n)], 1)
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
        lat = Lattice([[1, 0, 0, 0], [10**15, 1, 0, 0], [3, 10**12, 1, 0],
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

    @pytest.mark.parametrize("name", ["D4", "E8"])
    @pytest.mark.parametrize("scale", [1, Fraction(1, 10**12), Fraction(1, 10**20)])
    def test_scale_invariant(self, name, scale):
        # the tie test and the search margin are relative to the lattice's
        # scale: targets scaled with the lattice decode alike, ties included
        unit = get(name).lattice
        lat = Lattice(unit.basis, scale)
        rng = np.random.default_rng(7)
        m = unit.effective_matrix()
        halves = rng.integers(-4, 5, size=(200, unit.n)) / 2 @ m  # many on cell boundaries
        xs = np.vstack([rng.standard_normal((2000, unit.n)) * 0.4, halves])
        want, want_tie = closest_points(unit, xs)
        got, tie = closest_points(lat, xs * math.sqrt(scale))
        assert np.array_equal(tie, want_tie) and 0 < tie.sum() < len(xs)
        assert np.array_equal(got[~tie], want[~tie])


def rounding_reference(lat, xs):
    """Nearest points on an orthogonal frame (G = c^2 I) by coordinatewise
    rounding of the basis coefficients (Conway & Sloane, ch. 20), with the
    tie gap c^2 (1 - 2 max_i |frac_i|): the closed form the enumeration
    must agree with."""
    c_sq = float(orthogonal_scale_sq(lat))
    u = np.asarray(xs, dtype=float) @ np.linalg.inv(lat.effective_matrix())
    k = np.rint(u)
    frac = u - k
    d1 = c_sq * np.einsum("ij,ij->i", frac, frac)
    gap = c_sq * (1.0 - 2.0 * np.abs(frac)).min(axis=1)
    return k.astype(np.int64), gap <= decoder.TIE_REL * (c_sq + d1)


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
    "rotated_Z2": Lattice([[1, 1], [1, -1]], 3),
    "hadamard_Z4": Lattice([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1],
                            [1, -1, -1, 1]]),
}


class TestColumnwiseRounding:
    @pytest.mark.parametrize("name", list(ORTHOGONAL_FRAMES))
    def test_equals_axis_reductions(self, name):
        lat = ORTHOGONAL_FRAMES[name]
        assert orthogonal_scale_sq(lat) is not None
        xs = rounding_targets(lat, np.random.default_rng(41))
        coeffs, tie = closest_points(lat, xs)
        ref_coeffs, ref_tie = rounding_reference(lat, xs)
        # at an exact tie either tied point may be reported
        assert coeffs.dtype == ref_coeffs.dtype and np.array_equal(coeffs[~tie], ref_coeffs[~tie])
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


def full_search(lat, xs):
    """closest_points with the bounded search run on every row, as it ran
    before rows inside the packing-radius margin kept their nearest-plane
    point: the reference the shortcut must match bit for bit."""
    frame = decoder._frame(lat)
    y = np.asarray(xs, dtype=float) @ frame.q
    _, near, _ = decoder._search(frame.lower, y)
    bound = near * (1.0 + decoder._SLACK_REL) + decoder._SLACK_REL * frame.box
    c, d1, d2 = decoder._search(frame.lower, y, bound)
    return c @ frame.u, (d2 - d1) <= decoder.TIE_REL * (frame.box + d1)


def midpoints(lat, rng, rows=500):
    """Exact midpoints of lattice points one basis vector apart: ties."""
    m = lat.effective_matrix()
    c = rng.integers(-3, 4, size=(rows, lat.n))
    step = np.zeros_like(c)
    step[np.arange(rows), rng.integers(0, lat.n, size=rows)] = rng.choice([-1, 1], size=rows)
    return (c @ m + (c + step) @ m) / 2


SHORTCUT_LATTICES = {
    "D4": get("D4").lattice,
    "E8": get("E8").lattice,
    "E8x2": rescale(get("E8").lattice, 2),
}


def unimodular_frames(n):
    """Zn(n) in three random unimodular bases, each with its targets:
    Gaussian at three scales, then exact midpoints."""
    rng = np.random.default_rng(n)
    for _ in range(3):
        lat = _skewed(get(f"Zn({n})").lattice, rng)
        yield lat, np.vstack([rng.standard_normal((1000, n)) * s for s in (0.1, 0.3, 1.0)]
                             + [midpoints(lat, rng)])


class TestPackingRadiusShortcut:
    @pytest.mark.parametrize("name", sorted(SHORTCUT_LATTICES) + ["Zn(4)", "Zn(6)", "Zn(8)"])
    def test_min_len_is_the_shortest_nonzero_search(self, name):
        # _frame takes 2 rho as the least nonzero distance of every vector that
        # its one search around the origin keeps: the same bits as the minimum
        # of a search that leaves the zero vector out
        if name in SHORTCUT_LATTICES:
            lats = [SHORTCUT_LATTICES[name], make_code(SHORTCUT_LATTICES[name]).normalizer]
        else:
            lats = [lat for lat, _ in unimodular_frames(int(name[3:-1]))]
        for lat in lats:
            frame = decoder._frame(lat)
            shortest_row = float(np.einsum("ij,ij->i", frame.lower, frame.lower).min())
            bound = np.array([shortest_row * (1.0 + decoder._SLACK_REL)])
            _, d, _ = reference_search(frame.lower, np.zeros((1, lat.n)), bound, nonzero=True)
            assert math.isfinite(frame.min_len)
            assert frame.min_len.hex() == math.sqrt(d[0]).hex()

    @pytest.mark.parametrize("name", sorted(SHORTCUT_LATTICES))
    @pytest.mark.parametrize("sigma_sq", [0.1, 0.3])
    def test_equals_full_search(self, name, sigma_sq):
        rng = np.random.default_rng(17)
        lat = SHORTCUT_LATTICES[name]
        for target in (lat, make_code(lat).normalizer):
            xs = rng.standard_normal((2000, lat.n)) * NoiseModel(sigma_sq).lattice_sigma
            coeffs, tie = closest_points(target, xs)
            want, want_tie = full_search(target, xs)
            assert np.array_equal(coeffs, want) and np.array_equal(tie, want_tie)

    @pytest.mark.parametrize("name", sorted(SHORTCUT_LATTICES))
    def test_exact_ties_equal_full_search(self, name):
        lat = SHORTCUT_LATTICES[name]
        xs = midpoints(lat, np.random.default_rng(5))
        coeffs, tie = closest_points(lat, xs)
        want, want_tie = full_search(lat, xs)
        assert tie.all() and np.array_equal(coeffs, want) and np.array_equal(tie, want_tie)

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_unimodular_frames_equal_full_search(self, n):
        for lat, xs in unimodular_frames(n):
            assert orthogonal_scale_sq(lat) is None  # not a rotated cubic frame
            coeffs, tie = closest_points(lat, xs)
            want, want_tie = full_search(lat, xs)
            assert np.array_equal(coeffs, want) and np.array_equal(tie, want_tie)

    def test_most_rows_skip_the_bounded_search(self, monkeypatch):
        lat = make_code(get("D4").lattice).normalizer
        decoder._frame(lat)  # its shortest-vector search is not counted
        searched = []
        search = decoder._search

        def counting(lower, ys, bound=None, every=False):
            if bound is not None:
                searched.append(len(ys))
            return search(lower, ys, bound, every)

        monkeypatch.setattr(decoder, "_search", counting)
        rows = 4000
        xs = np.random.default_rng(2).standard_normal((rows, 4)) * NoiseModel(0.1).lattice_sigma
        closest_points(lat, xs)
        assert sum(searched) <= 0.1 * rows


def search_frames(n, rng):
    """A Gaussian lower-triangular frame, and a dyadic one with a power-of-two
    diagonal, on which targets at half-integer coefficients are exact and so
    meet the nearer-child test at mu - floor(mu) = 0.5 exactly."""
    gauss = np.tril(rng.standard_normal((n, n)) * 0.5)
    gauss[np.diag_indices(n)] = rng.uniform(0.5, 1.5, n)
    dyadic = np.tril(rng.integers(-8, 9, (n, n)) / 8.0)
    dyadic[np.diag_indices(n)] = 2.0 ** rng.integers(-1, 2, n)
    return gauss, dyadic


def search_outcome(search, *args, **kwargs):
    """A search's (c, d1, d2), or (c, d) with every=True, or its ValueError message."""
    try:
        return search(*args, **kwargs)
    except ValueError as err:
        return str(err)


def assert_same_search(*args, **kwargs):
    """decoder._search and reference_search agree bit for bit, or refuse alike."""
    got = search_outcome(decoder._search, *args, **kwargs)
    want = search_outcome(reference_search, *args, **kwargs)
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
    else:
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
    return want


class TestLevelMajorSearch:
    @pytest.mark.parametrize("n", range(2, MAX_DIM + 1))
    def test_bitwise_equals_reference_search(self, n):
        rng = np.random.default_rng(100 + n)
        slack, ties = 1.0 + decoder._SLACK_REL, 0
        for lower in search_frames(n, rng):
            box = float(np.sum(np.diag(lower) ** 2)) / 4.0
            shortest = float(np.einsum("ij,ij->i", lower, lower).min())
            c, _ = assert_same_search(lower, np.zeros((1, n)), np.array([shortest * slack]),
                                      every=True)
            assert len(c) > 1 and not c[0].any()  # the origin's first child is the origin
            for rows in (1, 300):
                halves = rng.integers(-4, 5, size=(rows, n)) / 2
                for ys in (rng.standard_normal((rows, n)) * 0.5, halves @ lower):
                    _, near, _ = assert_same_search(lower, ys)
                    bound = near * slack + decoder._SLACK_REL * box
                    _, d1, d2 = assert_same_search(lower, ys, bound)
                    ties += int((d1 == d2).sum())
                    # a wider bound: b the nearest-plane point, one of b +- e_i @ lower
                    # is within near + shortest, so each row keeps at least two points
                    assert_same_search(lower, ys, (near + shortest) * slack)
        assert ties  # the dyadic frame's half-integer targets include exact ties

    @pytest.mark.parametrize("cap", [None, 1 << 17], ids=["default_cap", "cap_2**17"])
    def test_chunked_expansion(self, monkeypatch, cap):
        # one target's bound reaches 20 steps out, the other 19,999 barely past their
        # nearest-plane points: a level's rectangle of every node by the widest node's
        # 43 children would hold about 900,000 cells. It is expanded in chunks of
        # _CHUNK_CELLS cells of consecutive nodes, and the peak stays far below the
        # 40 MB of one rectangle (chunks of 2**20 cells reach 43 MB). A cap of 2**17
        # is below the rectangle but above the sum of the nodes' own widths, so the
        # search goes on past the exact count rather than refusing on the rectangle
        rng = np.random.default_rng(3)
        lower = np.array([[1.0, 0.0, 0.0], [0.3, 1.0, 0.0], [-0.2, 0.4, 1.0]])
        ys = rng.standard_normal((20000, 3))
        _, near, _ = reference_search(lower, ys)
        bound = near * (1.0 + decoder._SLACK_REL) + decoder._SLACK_REL
        bound[0] = 20.0 ** 2
        want = reference_search(lower, ys, bound)
        if cap is not None:
            for module in (decoder, oracles):
                monkeypatch.setattr(module, "_MAX_NODES", cap)
        tracemalloc.start()
        try:
            got = decoder._search(lower, ys, bound)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
        assert peak < 16 * 2**20
        # the cap still refuses on the sum of the nodes' own widths, 71,359 here
        for module in (decoder, oracles):
            monkeypatch.setattr(module, "_MAX_NODES", 1 << 16)
        message = assert_same_search(lower, ys, bound)
        assert "needs 71359 nodes at one level, above 2**20" in message


class TestEdgeBlocks:
    @pytest.mark.parametrize("name", ["D4", "grid_qudit(2)"])
    def test_empty_block(self, name):
        lat = get(name).lattice
        coeffs, tie = closest_points(lat, np.empty((0, lat.n)))
        assert coeffs.dtype == np.int64 and coeffs.shape == (0, lat.n)
        assert tie.dtype == bool and tie.shape == (0,)

    def test_block_inside_the_margin_skips_the_bounded_search(self, monkeypatch):
        lat = get("D4").lattice
        decoder._frame(lat)  # its shortest-vector search is not counted
        bounded = []
        search = decoder._search

        def counting(lower, ys, bound=None, every=False):
            bounded.append(bound is not None)
            return search(lower, ys, bound, every)

        monkeypatch.setattr(decoder, "_search", counting)
        xs = np.random.default_rng(4).standard_normal((500, 4)) * 0.05
        coeffs, tie = closest_points(lat, xs)
        assert bounded == [False]
        assert not coeffs.any() and not tie.any()


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

    @pytest.mark.parametrize("name", ["D4", "E8", "Zn(4)", "Zn(8)"])
    def test_same_vector_in_every_basis(self, name):
        # the lexicographic rule makes the reported vector the lattice's, not its basis's
        lat = get(name).lattice
        want = shortest_vector(lat)
        rng = np.random.default_rng(11)
        for _ in range(20):
            vec, length_sq = shortest_vector(_skewed(lat, rng, 4 * lat.n, 3))
            assert vec.tolist() == want[0].tolist() and length_sq == want[1]

    def test_same_point_in_every_basis_at_an_irrational_scale(self):
        lat = get("grid_qudit(3)").lattice
        rng = np.random.default_rng(11)
        for _ in range(20):
            vec, length_sq = shortest_vector(_skewed(lat, rng, 8, 3))
            assert np.allclose(vec, [math.sqrt(3), 0.0], rtol=0, atol=1e-9)
            assert length_sq == pytest.approx(3.0, rel=1e-9)

    def test_skewed_cubic_frames_answer(self):
        # Z^n in 100 skewed bases that closest_points decodes: shortest_vector
        # answers wherever the decoder can decode
        rng = np.random.default_rng(5)
        for i in range(100):
            lat = _skewed(get(f"Zn({2 + 2 * (i % 4)})").lattice, rng, 30, 3)
            _, length_sq = shortest_vector(lat)
            assert length_sq == pytest.approx(1.0, rel=1e-9)
            assert packing_radius(lat) == pytest.approx(0.5, rel=1e-9)

    @pytest.mark.parametrize("lat, want", [
        pytest.param(make_code(get("E8").lattice).normalizer, [1, 1, 0, 0, 0, 0, 0, 0],
                     id="E8-normalizer"),
        pytest.param(make_code(get("grid_qudit(2)").lattice).normalizer, [math.sqrt(0.5), 0],
                     id="grid_qudit(2)-normalizer"),
        pytest.param(dual_lattice(get("grid_qudit(3)").lattice), [math.sqrt(1 / 3), 0],
                     id="grid_qudit(3)-dual"),
        pytest.param(make_code(rescale(get("E8").lattice, 2)).normalizer,
                     [math.sqrt(0.5), math.sqrt(0.5), 0, 0, 0, 0, 0, 0], id="E8x2-normalizer"),
    ])
    def test_canonical_vector_off_the_catalog(self, lat, want):
        # the lexicographically greatest minimal vector, at irrational scales
        # up to float rounding
        vec, length_sq = shortest_vector(lat)
        assert np.allclose(vec, want, rtol=0, atol=1e-12)
        assert length_sq == pytest.approx(float(np.dot(want, want)), rel=1e-12)

    def test_one_origin_search_per_lattice(self, monkeypatch):
        # a cold frame and shortest_vector share one bounded search around the origin
        bounded, search = [], decoder._search

        def counting(lower, ys, bound=None, every=False):
            bounded.append(bound is not None)
            return search(lower, ys, bound, every)

        monkeypatch.setattr(decoder, "_search", counting)
        decoder._frame.cache_clear()
        lat = make_code(get("D4").lattice).normalizer
        shortest_vector(lat)
        packing_radius(lat)
        assert bounded == [True]


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


def _skewed(lat: Lattice, rng, ops=None, k=2) -> Lattice:
    """The same lattice in a random unimodular basis, made by ops (default 2n)
    row operations u[i] += a u[j] with a in -k..k."""
    u = np.eye(lat.n, dtype=int)
    for _ in range(ops or 2 * lat.n):
        i, j = rng.choice(lat.n, size=2, replace=False)
        u[i] += int(rng.integers(-k, k + 1)) * u[j]
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
            return Lattice(b.tolist()), limit


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
