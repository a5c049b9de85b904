"""Carleson norms of sequence measures, and the embedding probe.

Each point z contributes an atom of mass 1 - |z|^2; the Carleson norm is
the largest mass-to-size ratio over boundary squares.  Bounded norm is
what lets point evaluations embed into Hardy-space integrals.

Run:  python demos/carleson_norms.py
"""

from blaschke_lab import (
    FiniteSequence,
    carleson_embedding_probe,
    carleson_norm,
    constant_fn,
    gen_radial_geometric,
    gen_random_carleson,
    lp_sequence_norm,
    mu_z_measure,
    reproducing_family,
    uniform_blaschke_sup,
)

print("=" * 60)
print("Single atoms and radial families")
print("=" * 60)
one = FiniteSequence.from_complex([0.5])
rep = carleson_norm(one)
print(f"  point 0.5: mass {mu_z_measure(one).sum():.4f}, "
      f"norm {rep.norm:.4f} ({rep.method})")
for n in (5, 10, 20, 40):
    s = gen_radial_geometric(0.5, n)
    print(f"  radial n={n:2d}: norm {carleson_norm(s).norm:.4f}  "
          f"(bounded as the truncation grows)")

print()
print("=" * 60)
print("Norm-controlled random clouds")
print("=" * 60)
for seed in (1, 2):
    s = gen_random_carleson(seed, 150, 4.0)
    print(f"  seed {seed}: 150 points, norm {carleson_norm(s).norm:.4f} "
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
small = FiniteSequence.from_complex([0.2, 0.5 + 0.2j, -0.7, 0.85j])
mass = mu_z_measure(small).sum()
flat = carleson_embedding_probe(small, 2.0, [constant_fn(1.0)])
peaked = carleson_embedding_probe(small, 2.0, reproducing_family(small, 2.0))
print(f"  constant test function: ratio = total mass = {flat:.4f} ({mass:.4f})")
print(f"  kernel-shaped tests anchored at the points: ratio {peaked:.4f}")
print(f"  weighted value norm of (1,1,1,1): "
      f"{lp_sequence_norm(small, [1, 1, 1, 1], 2):.4f}")
