"""Walk through the exact symplectic algebra on a few lattices.

Everything below is rational arithmetic: integrality tests, standard
forms, duals, and code dimensions involve no floating point at all.
"""

from fractions import Fraction

from gkplat import (
    Lattice,
    code_dimension,
    dual_lattice,
    is_symplectically_integral,
    make_code,
    rescale,
    standard_form,
    symplectic_gram,
)
from gkplat.catalog import get


def show(matrix):
    return "[" + "; ".join(" ".join(str(v) for v in row) for row in matrix) + "]"


print("== The square lattice Z^2 ==")
z2 = Lattice([[1, 0], [0, 1]], 1)
gram = symplectic_gram(z2)
print("A = M omega M^T:", show(gram))
print("symplectically integral:", is_symplectically_integral(z2))
print("code dimension m:", code_dimension(z2), "(self-dual: trivial code space)")

print()
print("== Rescaling sqrt(lambda) Z^2 makes a qudit code ==")
for lam in (2, 3, 5):
    scaled = rescale(z2, lam)
    code = make_code(scaled)
    dual = dual_lattice(scaled)
    print(f"lambda={lam}: m={code.dimension}, rate={code.rate_qubits:.4f} qubits,"
          f" normalizer scale_sq={dual.scale_sq}")

print()
print("== A quarter-scale lattice fails integrality ==")
bad = Lattice([[1, 0], [0, 1]], Fraction(1, 2))
print("A:", show(symplectic_gram(bad)))
print("symplectically integral:", is_symplectically_integral(bad))

print()
print("== Standard form of a two-mode gram matrix ==")
lat = Lattice([[1, 0, 2, 0], [0, 1, 0, 0], [1, 1, 3, 1], [0, 2, 1, 2]], 1)
gram = symplectic_gram(lat)
print("A:", show(gram))
form = standard_form(gram)
print("diagonal D:", form.diag)
print("R A R^T:", show(form.block_form()))
print("m = det D =", code_dimension(lat))

print()
print("== E8 under the standard symplectic pairing ==")
e8 = get("E8").lattice
print("integral:", is_symplectically_integral(e8), "| m =", code_dimension(e8),
      "(symplectically self-dual)")
d4 = get("D4").lattice
print("D4: m =", code_dimension(d4), "-> a two-dimensional protected space")
