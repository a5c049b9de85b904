"""Blaschke products as separation meters.

The deleted product |B_j(z_j)| measures how isolated zero j is from the
rest of its sequence; its infimum is the uniform separation constant.
The same number falls out of the derivative, and a sequence that is not
separated can still split into finitely many separated parts.

Run:  python demos/blaschke_separation.py
"""

import numpy as np

from blaschke_lab import (
    BlaschkeProduct,
    compose_min_on_compact,
    derivative,
    evaluate,
    gen_radial_geometric,
    gen_union,
    max_local_count,
    partition_separated,
    separation_report,
)

print("=" * 60)
print("A geometric radial sequence and its product")
print("=" * 60)
s = gen_radial_geometric(0.5, 8)
b = BlaschkeProduct(s)
print("  zeros:", np.round(s.zs.real, 5))
for z in (0.0, 0.3j, 0.9):
    print(f"  |B({z})| = {abs(evaluate(b, z)):.6f}")
print(f"  |B| at a zero: {abs(evaluate(b, s.zs[3])):.1e}")

rep = separation_report(b)
print(f"  delta (min deleted product)  = {rep.delta:.6f}")
delta_prime = min((1 - abs(z) ** 2) * abs(derivative(b, z)) for z in s.zs)
print(f"  delta' (derivative form)     = {delta_prime:.6f}")
print(f"  discreteness (min pair dist) = {rep.discreteness:.6f}")
j = int(np.argmin(rep.per_point))
lhs = (1 - abs(s.zs[j]) ** 2) * abs(derivative(b, s.zs[j]))
print(f"  identity check at the worst zero: (1-|z|^2)|B'| = {lhs:.6f}")

print()
print("=" * 60)
print("Partition into separated parts")
print("=" * 60)
u = gen_union(3, gen_radial_geometric(0.5, 8), seed=2)
parts = partition_separated(u, 0.5)
bound = max_local_count(BlaschkeProduct(u), 0.5)
print(f"  union of 3 rotated rays, {len(u)} points")
print(f"  parts at separation 1/2: {len(parts)} (local count bound {bound})")
for i, part in enumerate(parts):
    pr = separation_report(BlaschkeProduct(part))
    print(f"    part {i}: {len(part)} points, delta = {pr.delta:.4f}")

print()
print("=" * 60)
print("The composition probe")
print("=" * 60)
print("Recentring the product at a zero and measuring its size on |z| <= 1/2:")
for z in s.zs[[0, 4, 7]]:
    val = compose_min_on_compact(b, z)
    print(f"  center {z.real:.5f}: sup |B o phi| on the half disk = {val:.4f}")
print("Small values would flag zeros piling up near the center; this")
print("separated family stays comfortably positive.")
