"""Exact symplectic lattice algebra."""

import collections
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkplat import exact, symplectic_lattice
from gkplat.catalog import get
from gkplat.symplectic_lattice import (
    Lattice,
    SymplecticGram,
    cell_volume,
    code_dimension,
    coeff_transition,
    dual_lattice,
    is_symplectically_integral,
    lattice_from_dict,
    lattice_from_rows,
    logical_class,
    make_code,
    rescale,
    standard_form,
    symplectic_gram,
    symplectic_pairing,
)

from oracles import coset_member, omega, pfaffian

I2 = [[1, 0], [0, 1]]
I4 = [[1 if i == j else 0 for j in range(4)] for i in range(4)]


def frac_mat(rows):
    return exact.freeze(rows)


class TestSymplecticGram:
    def test_identity_basis(self):
        a = symplectic_gram(lattice_from_rows(I2, 1)).entries
        assert a == omega(2)

    def test_scaling_law(self):
        a = symplectic_gram(lattice_from_rows(I2, 2)).entries
        assert a == exact.scale(omega(2), 2)

    def test_two_modes(self):
        a = symplectic_gram(lattice_from_rows(I4, 1)).entries
        assert a == omega(4)

    def test_antisymmetry_random(self):
        rng = random.Random(5)
        for _ in range(25):
            rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                     for _ in range(4)] for _ in range(4)]
            try:
                lat = lattice_from_rows(rows, Fraction(3, 2))
            except ValueError:
                continue  # singular draw
            a = symplectic_gram(lat).entries
            assert a == exact.scale(exact.transpose(a), -1)


    def test_matches_basis_product(self):
        for lat in (get("D4").lattice, get("E8").lattice,
                    lattice_from_rows([[1, 0], [1, 1]], Fraction(3, 2))):
            prod = exact.mat_mul(exact.mat_mul(lat.basis, omega(lat.n)),
                                 exact.transpose(lat.basis))
            assert symplectic_gram(lat).entries == exact.scale(prod, lat.scale_sq)


class TestIntegrality:
    def test_scaled_grid_integral(self):
        assert is_symplectically_integral(lattice_from_rows(I2, 2))

    def test_half_scale_not_integral(self):
        assert not is_symplectically_integral(lattice_from_rows(I2, Fraction(1, 2)))

    def test_unimodular_symplectic_basis(self):
        # det-1 integer basis of Z^2 gives A = omega exactly
        lat = lattice_from_rows([[2, 1], [1, 1]], 1)
        assert symplectic_gram(lat).entries == omega(2)
        assert is_symplectically_integral(lat)


class TestDual:
    def test_self_dual_plane(self):
        lat = lattice_from_rows(I2, 1)
        dual = dual_lattice(lat)
        # same point set as Z^2
        for row in dual.basis:
            assert coset_member(lat, row, dual.scale_sq)
        for row in lat.basis:
            assert coset_member(dual, row, lat.scale_sq)

    def test_grid_qudit_dual_scale(self):
        dual = dual_lattice(lattice_from_rows(I2, 2))
        assert dual.scale_sq == Fraction(1, 2)

    def test_pairing_identity(self):
        for name in ["Zn(2)", "Zn(4)", "grid_qudit(3)", "D4", "E8"]:
            lat = get(name).lattice
            dual = dual_lattice(lat)
            assert symplectic_pairing(dual, lat) == exact.identity(lat.n)

    def test_double_dual_same_points(self):
        for name in ["Zn(4)", "E8"]:
            lat = get(name).lattice
            dd = dual_lattice(dual_lattice(lat))
            for row in dd.basis:
                assert coset_member(lat, row, dd.scale_sq)
            for row in lat.basis:
                assert coset_member(dd, row, lat.scale_sq)


def random_integral_antisymmetric(rng, n, spread=9):
    while True:
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = rng.randint(-spread, spread)
                a[i][j] = v
                a[j][i] = -v
        if pfaffian(a) != 0:
            return a


class TestStandardForm:
    def test_omega_gives_unit(self):
        form = standard_form(SymplecticGram(omega(2)))
        assert form.diag == (1,)

    def test_two_omega(self):
        form = standard_form(SymplecticGram(exact.scale(omega(2), 2)))
        assert form.diag == (2,)

    @pytest.mark.parametrize("n", [4, 6])
    def test_random_matrices(self, n):
        rng = random.Random(n)
        for _ in range(40):
            a = random_integral_antisymmetric(rng, n)
            gram = SymplecticGram(frac_mat(a))
            form = standard_form(gram)
            lhs = exact.mat_mul(exact.mat_mul(form.r, gram.entries),
                                exact.transpose(form.r))
            assert lhs == form.block_form()
            assert abs(exact.determinant(form.r)) == 1
            prod = 1
            for d in form.diag:
                assert d > 0
                prod *= d
            assert prod == abs(pfaffian(a))
            assert list(form.diag) == sorted(form.diag)

    def test_unit_block_form_is_omega(self):
        form = standard_form(SymplecticGram(omega(6)))
        assert form.diag == (1, 1, 1)
        assert form.block_form() == omega(6)

    def test_rejects_non_integral(self):
        with pytest.raises(ValueError):
            standard_form(SymplecticGram(exact.scale(omega(2), Fraction(1, 2))))

    def test_rejects_singular(self):
        a = frac_mat([[0, 0], [0, 0]])
        with pytest.raises(ValueError):
            standard_form(SymplecticGram(a))


@st.composite
def integral_antisymmetric(draw):
    """A random integral antisymmetric matrix of size n <= 8."""
    n = draw(st.integers(1, 8))
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = draw(st.integers(-40, 40))
            a[j][i] = -a[i][j]
    return a


class TestStandardFormCertificate:
    @settings(max_examples=300, deadline=None)
    @given(a=integral_antisymmetric())
    def test_certificate(self, a):
        gram = SymplecticGram(frac_mat(a))
        if len(a) % 2 or pfaffian(a) == 0:  # singular
            with pytest.raises(ValueError):
                standard_form(gram)
            return
        form = standard_form(gram)
        n, half = len(a), len(a) // 2
        assert all(v.denominator == 1 for row in form.r for v in row)
        assert abs(exact.determinant(form.r)) == 1
        block = [[0] * n for _ in range(n)]
        for i, d in enumerate(form.diag):
            block[i][half + i], block[half + i][i] = d, -d
        assert exact.mat_mul(exact.mat_mul(form.r, gram.entries),
                             exact.transpose(form.r)) == frac_mat(block)
        assert len(form.diag) == half and all(d > 0 for d in form.diag)
        assert all(later % d == 0 for d, later in zip(form.diag, form.diag[1:]))
        assert math.prod(form.diag) == abs(pfaffian(a))


class TestCodeDimension:
    def test_self_dual(self):
        assert code_dimension(lattice_from_rows(I2, 1)) == 1

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_single_mode_qudit(self, d):
        assert code_dimension(lattice_from_rows(I2, d)) == d

    def test_two_mode_scaling(self):
        assert code_dimension(lattice_from_rows(I4, 2)) == 4

    def test_squared_equals_det(self):
        for name in ["grid_qudit(3)", "D4", "E8"]:
            lat = get(name).lattice
            m = code_dimension(lat)
            det_a = exact.determinant(symplectic_gram(lat).entries)
            assert Fraction(m) ** 2 == abs(det_a)

    def test_cell_volume(self):
        for name in ["grid_qudit(3)", "D4", "E8"]:
            lat = get(name).lattice
            volume = abs(np.linalg.det(lat.effective_matrix()))
            assert float(cell_volume(lat)) == pytest.approx(volume, rel=1e-12)
            m = code_dimension(lat)
            assert cell_volume(lat) == m * m * cell_volume(dual_lattice(lat))

    def test_rejects_non_integral(self):
        with pytest.raises(ValueError):
            code_dimension(lattice_from_rows(I2, Fraction(1, 3)))


class TestRescale:
    def test_z2_by_three(self):
        lat = rescale(lattice_from_rows(I2, 1), 3)
        assert code_dimension(lat) == 3
        assert make_code(lat).rate_qubits == pytest.approx(math.log2(3))

    def test_identity_rescale(self):
        lat = lattice_from_rows(I2, 1)
        assert rescale(lat, 1) == lat

    def test_z4_by_two(self):
        lat = rescale(lattice_from_rows(I4, 1), 2)
        assert code_dimension(lat) == 4
        assert make_code(lat).rate_qubits == pytest.approx(1.0)

    @pytest.mark.parametrize("lam", [2, 3, 4, 5])
    @pytest.mark.parametrize("modes", [1, 2, 3])
    def test_power_law(self, lam, modes):
        base = get(f"Zn({2 * modes})").lattice
        assert code_dimension(rescale(base, lam)) == lam ** modes

    @pytest.mark.parametrize("lam", [0, Fraction(3, 2), 2.0, True])
    def test_rejects_non_positive_integer_factor(self, lam):
        with pytest.raises(ValueError, match="rescale factor must be a positive integer"):
            rescale(lattice_from_rows(I2, 1), lam)

    def test_rejects_non_self_dual(self):
        with pytest.raises(ValueError):
            rescale(lattice_from_rows(I2, 2), 2)


def gram(lat):
    """Euclidean Gram matrix G = M M^T = scale_sq * basis basis^T."""
    return exact.scale(exact.mat_mul(lat.basis, exact.transpose(lat.basis)), lat.scale_sq)


class TestGramMatrix:
    def test_identity(self):
        assert gram(lattice_from_rows(I2, 1)) == exact.identity(2)

    def test_scaled(self):
        assert gram(lattice_from_rows(I2, 2)) == exact.scale(exact.identity(2), 2)

    def test_signed_permutation_invariance(self):
        base = get("D4").lattice
        perm = frac_mat([[0, 0, -1, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, -1, 0, 0]])
        rotated = Lattice(exact.mat_mul(base.basis, perm), base.scale_sq)
        assert gram(rotated) == gram(base)


class TestCosetMember:
    def test_generator_row(self):
        lat = get("E8").lattice
        assert coset_member(lat, lat.basis[0])

    def test_half_generator(self):
        lat = lattice_from_rows(I2, 1)
        assert not coset_member(lat, [Fraction(1, 2), 0])

    def test_sum_of_generators(self):
        lat = get("D4").lattice
        total = [a + b for a, b in zip(lat.basis[0], lat.basis[1])]
        assert coset_member(lat, total)

    def test_incompatible_scale(self):
        lat = lattice_from_rows(I2, 2)
        with pytest.raises(ValueError):
            coset_member(lat, [1, 0], Fraction(3))

    def test_compatible_square_ratio_scale(self):
        lat = lattice_from_rows(I2, 2)  # effective sqrt(2) Z^2
        # sqrt(8) * (1, 0) = sqrt(2) * (2, 0) is a lattice point
        assert coset_member(lat, [1, 0], 8)
        assert not coset_member(lat, [1, 1], Fraction(1, 2))


class TestLatticeCode:
    def test_stabilizer_inside_normalizer(self):
        for name in ["grid_qudit(2)", "grid_qudit(5)", "D4", "E8"]:
            code = make_code(get(name).lattice)
            for row in code.stabilizer.basis:
                assert coset_member(code.normalizer, row, code.stabilizer.scale_sq)

    def test_rate(self):
        code = make_code(get("grid_qudit(4)").lattice)
        assert code.dimension == 4
        assert code.rate_qubits == pytest.approx(2.0)

    def test_transition(self):
        for lat in (get("grid_qudit(3)").lattice, get("D4").lattice, rescale(get("E8").lattice, 2)):
            code = make_code(lat)
            assert code.transition == coeff_transition(code.normalizer, code.stabilizer)

    def test_logical_class_is_fractional_part(self):
        # against the fractional part of c @ transition in Fractions
        rng = random.Random(11)
        for lat in (get("grid_qudit(3)").lattice, get("grid_qudit(5)").lattice,
                    get("D4").lattice, rescale(get("E8").lattice, 2),
                    rescale(get("Zn(4)").lattice, 3)):
            code = make_code(lat)
            for _ in range(200):
                c = [rng.randint(-50, 50) for _ in range(lat.n)]
                coords = [sum(x * row[j] for x, row in zip(c, code.transition))
                          for j in range(lat.n)]
                assert logical_class(code, c) == tuple(v - math.floor(v) for v in coords)

    def test_one_derivation(self, derivations):
        lat = rescale(get("E8").lattice, 2)
        derivations.clear()  # rescale itself reduced E8 to standard form
        make_code(Lattice(lat.basis, lat.scale_sq))
        assert derivations == {"inverse": 1, "standard_form": 1}


@pytest.fixture
def derivations(monkeypatch):
    """Counter of the calls to exact.inverse, standard_form and
    coeff_transition."""
    calls = collections.Counter()

    def count(module, name):
        call = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a: calls.update([name]) or call(*a))
    count(exact, "inverse")
    for name in ("standard_form", "coeff_transition"):
        count(symplectic_lattice, name)
    return calls


@st.composite
def skewed_code_lattice(draw):
    """(lattice, m): rescale(Zn(2N), lambda) or rescale(E8, lambda) with its
    code dimension m = lambda^N, or D4 with m = None, in a basis skewed by
    a random unimodular integer transform; n <= 8."""
    name = draw(st.sampled_from(["Zn(2)", "Zn(4)", "Zn(6)", "Zn(8)", "D4", "E8"]))
    lam = 1 if name == "D4" else draw(st.integers(1, 4))
    lat = get(name).lattice
    lat = lat if lam == 1 else rescale(lat, lam)
    n = lat.n
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 2 * n))):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        c = draw(st.integers(-3, 3))
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]  # unimodular row operation
    if draw(st.booleans()):
        u[0] = [-x for x in u[0]]
    m = None if name == "D4" else lam ** (n // 2)
    return Lattice(exact.mat_mul(frac_mat(u), lat.basis), lat.scale_sq), m


class TestOneDerivationProperty:
    @settings(max_examples=40, deadline=None)
    @given(case=skewed_code_lattice())
    def test_code_facts(self, case):
        lat, m = case
        code = make_code(lat)
        normalizer, stabilizer = code.normalizer, code.stabilizer
        assert code.transition == coeff_transition(normalizer, stabilizer)
        for row in stabilizer.basis:
            assert coset_member(normalizer, row, stabilizer.scale_sq)
        assert symplectic_pairing(normalizer, stabilizer) == exact.identity(lat.n)
        assert code.dimension == abs(pfaffian(symplectic_gram(lat).entries))
        if m is not None:
            assert code.dimension == m
        for l1, l2 in ((normalizer, stabilizer), (stabilizer, normalizer), (lat, lat)):
            root = exact.fraction_sqrt(l1.scale_sq * l2.scale_sq)
            product = exact.mat_mul(exact.mat_mul(l1.basis, omega(lat.n)),
                                    exact.transpose(l2.basis))
            assert symplectic_pairing(l1, l2) == exact.scale(product, root)


class TestSerialization:
    def test_round_trip_preserves_exactness(self, tmp_path):
        lat = lattice_from_rows([[Fraction(1, 3), 2], [0, Fraction(5, 7)]],
                                Fraction(9, 2))
        data = {"n": 2, "lambda": "9/2", "basis": [["1/3", "2"], ["0", "5/7"]]}
        assert lattice_from_dict(data) == lat

    def test_file_round_trip(self, tmp_path):
        from gkplat.cli import _resolve_lattice  # the file path a --lattice option takes
        basis = ([["2"] + ["0"] * 7]
                 + [["0"] * i + ["-1", "1"] + ["0"] * (6 - i) for i in range(6)]
                 + [["1/2"] * 8])
        path = tmp_path / "e8.json"
        path.write_text(json.dumps({"n": 8, "lambda": "1", "basis": basis}))
        assert _resolve_lattice(str(path)) == get("E8").lattice

    def test_rejects_n_unlike_basis(self):
        for n in (4, 3):
            data = {"n": n, "lambda": "1", "basis": [["1", "0"], ["0", "1"]]}
            with pytest.raises(ValueError, match="does not match"):
                lattice_from_dict(data)


class TestValidation:
    def test_rejects_singular_basis(self):
        with pytest.raises(ValueError):
            lattice_from_rows([[1, 1], [1, 1]], 1)

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError):
            Lattice([[1, 0, 0], [0, 1, 0], [0, 0, 1]], Fraction(1))
        with pytest.raises(ValueError, match="square"):
            Lattice([[1, 0, 0], [0, 1, 0]], Fraction(1))

    def test_rejects_float_entries(self):
        with pytest.raises(TypeError):
            lattice_from_rows([[1.5, 0], [0, 1]], 1)

    @pytest.mark.parametrize("rows,message", [
        ([[0, 1, 0], [-1, 0, 0]], "gram matrix must be square"),
        ([[0, 1], [1, 0]], "gram matrix must be antisymmetric"),
    ])
    def test_gram_refuses_non_square_or_symmetric(self, rows, message):
        with pytest.raises(ValueError, match=message):
            SymplecticGram(rows)

    def test_pairing_refuses_mismatch_or_irrational_scale(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            symplectic_pairing(lattice_from_rows(I2, 1), lattice_from_rows(I4, 1))
        with pytest.raises(ValueError, match="pairing scale is irrational"):
            symplectic_pairing(lattice_from_rows(I2, 1), lattice_from_rows(I2, 2))

    def test_transition_refuses_incompatible_scales(self):
        with pytest.raises(ValueError, match="lattice scales are incompatible"):
            coeff_transition(lattice_from_rows(I2, 1), lattice_from_rows(I2, 3))

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            lattice_from_rows(I2, Fraction(-1))
