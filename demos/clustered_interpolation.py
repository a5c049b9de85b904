"""Clustered interpolation end to end.

Points that sit close together are grouped into clusters; targets become
jets (value plus derivatives where points repeat), measured by the sup of
their polynomial representative over the cluster neighborhood.  The solver
assembles an explicit analytic function from separating multipliers and
exponential kernels, then re-extracts every jet through Cauchy-circle
quadrature as an independent check.

Run:  python demos/clustered_interpolation.py
"""

import numpy as np

from blaschke_lab import (
    BlaschkeProduct,
    ClusterPartition,
    InterpolationProblem,
    class_norms,
    cluster_sequence,
    gen_perturbed,
    gen_radial_geometric,
    hinf_bound_estimate,
    max_local_count,
    psh_distance_pairwise,
    vgh_interpolate,
    xp_norm,
)

rng = np.random.default_rng(7)

print("=" * 60)
print("Build a clustered sequence")
print("=" * 60)
base = gen_radial_geometric(0.5, 6, (0.0, 2 * np.pi / 3, 4 * np.pi / 3))
seq = gen_perturbed(base, n_satellites=3, n_doubles=1, seed=7)
part = cluster_sequence(seq, eps=0.05, R_max=0.6)
sizes = [c.total_count for c in part.clusters]
print(f"  {seq.total_count} points -> {len(part.clusters)} clusters, "
      f"sizes {sorted(sizes, reverse=True)[:5]}...")
print(f"  eps = {part.eps}, shallowest boundary gap = {max(part.d):.4f}")

print()
print("=" * 60)
print("Targets as jets")
print("=" * 60)
jets = []
for c in part.clusters:
    rows = []
    for z, m in zip(c.zs.tolist(), c.mults.tolist()):
        row = [complex(rng.standard_normal(), rng.standard_normal())]
        for i in range(1, m):
            row.append(complex(rng.standard_normal(), rng.standard_normal())
                       / (1 - abs(z) ** 2) ** i)
        rows.append(tuple(row))
    jets.append(tuple(rows))
jets = tuple(jets)
double = max(range(len(part.clusters)),
             key=lambda k: part.clusters[k].mults.max())
print(f"  cluster {double} carries a derivative target: "
      f"{np.round(jets[double][0], 3)}")
print(f"  class norm there: {class_norms(part, jets)[double]:.4f}")
print(f"  target sequence norm (p=2): {xp_norm(part, jets, 2.0):.4f}")

print()
print("=" * 60)
print("Solve and verify")
print("=" * 60)
for p in (0.5, 2.0, np.inf):
    sol = vgh_interpolate(InterpolationProblem(part, jets, p))
    label = "inf" if p == np.inf else p
    print(f"  p={label}: jet residual {sol.jet_residual:.2e}, "
          f"achieved norm {sol.achieved_norm:.4g}, ratio {sol.norm_ratio:.4g}")

sol = vgh_interpolate(InterpolationProblem(part, jets, np.inf))
bound = hinf_bound_estimate(part, BlaschkeProduct(part.all_points()))
sup_cn = max(class_norms(part, jets))
print(f"  sup-norm duality budget: {bound:.4g} x sup class norm {sup_cn:.4g} "
      f"= {bound * sup_cn:.4g} >= {sol.achieved_norm:.4g}")

print()
print("=" * 60)
print("Structural facts")
print("=" * 60)
points, labels = part.all_points(), part.labels()
dist = psh_distance_pairwise(points.zs, points.zs)
print(f"  inter-cluster margin above 2*eps: "
      f"{dist[labels[:, None] != labels].min() - 2 * part.eps:.4f}")
bound = max_local_count(BlaschkeProduct(points), min(0.999999, part.R_max * 1.001))
print(f"  max cardinality {max(sizes)} <= local bound {bound}: {max(sizes) <= bound}")
# restricting the targets to random subsets of clusters, against the full p = inf ratio
rng = np.random.default_rng(0)
factors = []
for _ in range(5):
    size = int(rng.integers(1, len(part.clusters)))
    chosen = np.sort(rng.choice(len(part.clusters), size=size, replace=False))
    sub = ClusterPartition(tuple(part.clusters[i] for i in chosen), part.eps, part.R_max)
    sub_sol = vgh_interpolate(InterpolationProblem(sub, tuple(jets[i] for i in chosen), np.inf))
    factors.append(sub_sol.norm_ratio / sol.norm_ratio)
print(f"  subsequence ratios within 1.5x of the full problem: "
      f"{max(factors) <= 1.5} (worst {max(factors):.3f})")
