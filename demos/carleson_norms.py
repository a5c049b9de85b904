"""Carleson norms of sequence measures, and the embedding probe.

Each point z contributes an atom of mass 1 - |z|^2; the Carleson norm is
the largest mass-to-size ratio over boundary squares.  Bounded norm is
what lets point evaluations embed into Hardy-space integrals.

Run:  python demos/carleson_norms.py
"""

import numpy as np

from blaschke_lab import (
    FiniteSequence,
    carleson_norm,
    gen_radial_geometric,
    gen_random_carleson,
    hp_norm,
    uniform_blaschke_sup,
)


def weights(s):
    """The atoms' masses mult * (1 - |z|^2) of the measure mu_Z."""
    return s.mults * (1 - np.abs(s.zs) ** 2)


def embedding_ratio(s, p, family):
    """Max over test functions f of sum weights |f(z)|^p / ||f||_Hp^p."""
    return max((weights(s) * np.abs(f(s.zs)) ** p).sum() / hp_norm(f, p) ** p for f in family)


print("=" * 60)
print("Single atoms and radial families")
print("=" * 60)
one = FiniteSequence([0.5])
print(f"  point 0.5: mass {weights(one).sum():.4f}, "
      f"norm {carleson_norm(one):.4f}")
for n in (5, 10, 20, 40):
    s = gen_radial_geometric(0.5, n)
    print(f"  radial n={n:2d}: norm {carleson_norm(s):.4f}  "
          f"(bounded as the truncation grows)")

print()
print("=" * 60)
print("Norm-controlled random clouds")
print("=" * 60)
for seed in (1, 2):
    s = gen_random_carleson(seed, 150, 4.0)
    print(f"  seed {seed}: 150 points, norm {carleson_norm(s):.4f} "
          f"(target cap 4.0)")

print()
print("=" * 60)
print("Transformed zero masses")
print("=" * 60)
s = gen_radial_geometric(0.5, 20)
print(f"  sup over own points of the recentred mass: "
      f"{uniform_blaschke_sup(s, s.zs):.4f}")
print("  (stays near the Carleson norm for separated families)")

print()
print("=" * 60)
print("Embedding probe")
print("=" * 60)
small = FiniteSequence([0.2, 0.5 + 0.2j, -0.7, 0.85j])
mass = weights(small).sum()
flat = embedding_ratio(small, 2.0, [np.ones_like])
# normalised reproducing kernels ((1 - |a|^2)/(1 - conj(a) z))^(2/p) at p = 2
kernels = [lambda z, a=a: (1 - abs(a) ** 2) / (1 - a.conjugate() * z) for a in small.zs.tolist()]
peaked = embedding_ratio(small, 2.0, kernels)
print(f"  constant test function: ratio = total mass = {flat:.4f} ({mass:.4f})")
print(f"  kernel-shaped tests anchored at the points: ratio {peaked:.4f}")
print(f"  weighted value norm of (1,1,1,1): {np.sqrt(mass):.4f}")
