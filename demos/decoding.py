"""Closest-point decoding and Voronoi-cell membership on catalog lattices."""

import numpy as np

from gkplat import closest_point, packing_radius, shortest_vector
from gkplat.catalog import get

rng = np.random.default_rng(7)

print("== Shortest vectors and packing radii ==")
for name in ("Zn(2)", "Zn(8)", "D4", "E8"):
    lat = get(name).lattice
    vec, length_sq = shortest_vector(lat)
    print(f"{name:8s} shortest^2 = {length_sq:.6f}  packing radius = "
          f"{packing_radius(lat):.6f}  example {vec}")

print()
print("== Decoding a few points on E8 ==")
e8 = get("E8").lattice
for x in rng.uniform(-1.5, 1.5, size=(4, 8)):
    res = closest_point(e8, x)
    print(f"x = {np.round(x, 3)}")
    print(f"  -> {res.closest}, dist^2 = {res.dist_sq:.4f}, tie = {res.tie}")

print()
print("== Voronoi membership is a strict test; boundaries count as outside ==")
z2 = get("Zn(2)").lattice
for x in ([0.0, 0.0], [0.49, 0.49], [0.5, 0.0], [0.6, 0.2]):
    res = closest_point(z2, x)  # inside: the origin is the unique nearest point
    print(f"x = {x}: inside = {not res.tie and not res.coeffs.any()}")

print()
print("== Deep holes of E8 sit at distance 1 (covering radius) ==")
hole = np.zeros(8)
hole[0] = 1.0  # (1, 0, ..., 0) is equidistant from many E8 points
res = closest_point(e8, hole)
print(f"x = {hole}: dist^2 = {res.dist_sq:.4f}, tie = {res.tie}")
