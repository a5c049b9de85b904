"""Tour of the pseudohyperbolic geometry primitives.

Run:  python demos/geometry_tour.py
"""

import numpy as np

from blaschke_lab import hyperbolic_grid, moebius, psh_distance, psh_distance_pairwise

print("=" * 60)
print("Distances in the disk")
print("=" * 60)
pairs = [(0.0, 0.5), (0.3, 0.7), (0.9, 0.95), (0.5j, -0.5j)]
for z, w in pairs:
    print(f"  psh({z}, {w}) = {psh_distance(z, w):.6f}   (euclid {abs(z - w):.4f})")
print("Near the boundary small euclidean gaps are metrically huge:")
print(f"  psh(0.99, 0.999) = {psh_distance(0.99, 0.999):.6f}")

print()
print("=" * 60)
print("The involutive automorphism swapping 0 and c")
print("=" * 60)
c = 0.6 + 0.2j
phi = lambda z: moebius(c, z)
print(f"  c = {c}")
print(f"  phi(c) = {phi(c):.3e}  (maps its center to 0)")
print(f"  phi(0) = {phi(0.0):.6f}  (and 0 back to the center)")
z = 0.3 - 0.4j
print(f"  phi(phi(z)) - z = {abs(phi(phi(z)) - z):.2e}  (involution)")

rng = np.random.default_rng(1)
zs = rng.uniform(0, 0.95, 5) * np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
ws = rng.uniform(0, 0.95, 5) * np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
worst = max(
    abs(psh_distance(phi(z), phi(w)) - psh_distance(z, w))
    for z, w in zip(zs.tolist(), ws.tolist())
)
print(f"  metric distortion under phi over 5 random pairs: {worst:.2e}")

print()
print("=" * 60)
print("Area distortion (the kernel behind the division estimates)")
print("=" * 60)
for w in (0.0, 0.5, -0.6 + 0.3j):
    jacobian = (1 - abs(c) ** 2) ** 2 / abs(1 - c.conjugate() * w) ** 4
    print(f"  |phi'({w})|^2 = {jacobian:.6f}")

print()
print("=" * 60)
print("Diameters and metric grids")
print("=" * 60)
pts = np.array([0, 0.3, 0.7, 0.5j])
print(f"  diameter of {{0, 0.3, 0.7, 0.5j}} = {psh_distance_pairwise(pts, pts).max():.6f}")
grid = hyperbolic_grid(0.9, 0.25)
print(f"  hyperbolic grid to |z| <= 0.9 at pitch 0.25: {len(grid)} centers")
print(f"  deepest ring modulus: {np.abs(grid).max():.4f}")
