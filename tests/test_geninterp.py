import numpy as np
import pytest

from blaschke_lab import geninterp as gi
from blaschke_lab.bergman import hp_norm
from blaschke_lab.blaschke import BlaschkeProduct, evaluate
from blaschke_lab.carleson import CircleArc, lp_sequence_norm
from blaschke_lab.disk import FiniteSequence, InvariantViolation, psh_distance_pairwise
from blaschke_lab.generators import gen_perturbed, gen_radial_geometric
from blaschke_lab.hermite import jet_exp
from oracles import HARDY_RADII, beta, circle_mean, summed_by_rows, zero_jet
from test_acceptance import _interpolation_problem


def ray_problem(seed, rays=4, levels=6, eps=0.05, r_max=0.6, satellites=3, doubles=1):
    rng = np.random.default_rng(seed)
    off = rng.uniform(0, 2 * np.pi)
    base = gen_radial_geometric(0.5, levels, tuple(off + 2 * np.pi * k / rays for k in range(rays)))
    s = gen_perturbed(base, n_satellites=satellites, n_doubles=doubles, seed=seed)
    part = gi.cluster_sequence(s, eps, r_max)
    jets = []
    for c in part.clusters:
        rows = []
        for p, m in zip(c.points.points, c.points.multiplicities):
            scale = 1.0 / (1 - abs(p.z) ** 2)
            row = [complex(rng.standard_normal(), rng.standard_normal())]
            for i in range(1, m):
                row.append(complex(rng.standard_normal(), rng.standard_normal()) * scale**i)
            rows.append(tuple(row))
        jets.append(gi.HermiteJet(tuple(rows)))
    return part, tuple(jets)


def test_cluster_sequence_examples():
    s = FiniteSequence.from_complex([0, 0.05, 0.9])
    part = gi.cluster_sequence(s, 0.1, 0.6)
    groups = [sorted(p.z.real for p in c.points.points) for c in part.clusters]
    assert groups == [[0.0, 0.05], [0.9]]
    assert part.eps == 0.1
    # all pairwise psh > 2 eps: every cluster a singleton
    s2 = FiniteSequence.from_complex([0, 0.5, -0.5])
    part2 = gi.cluster_sequence(s2, 0.05, 0.6)
    assert all(len(c.points) == 1 for c in part2.clusters)
    # anchors sorted by modulus
    mods = [abs(c.anchor.z) for c in part2.clusters]
    assert mods == sorted(mods)
    assert gi.cluster_sequence(FiniteSequence(), 0.1, 0.5).clusters == ()


def test_cluster_eps_halving_and_floor():
    # chain connected at eps but with too large a diameter: halving eps
    # must break it into admissible clusters
    pts = [0.0]
    z = 0.0
    for _ in range(12):
        z = (z + 0.18) / (1 + z * 0.18)
        pts.append(z)
    s = FiniteSequence.from_complex(pts)
    part = gi.cluster_sequence(s, 0.1, 0.4)
    assert part.eps < 0.1
    for c in part.clusters:
        if len(c.points) > 1:
            d = psh_distance_pairwise(c.points.zs, c.points.zs).max()
            assert d <= 0.4
    # chain spaced at the floor scale stays connected through every halving
    # and keeps an inadmissible diameter
    floor_gap = 0.9 * 2 * 0.1 / 2**gi.EPS_HALVINGS
    tight = [0.0]
    z = 0.0
    for _ in range(14):
        z = (z + floor_gap) / (1 + z * floor_gap)
        tight.append(z)
    with pytest.raises(InvariantViolation, match="eps floor"):
        gi.cluster_sequence(FiniteSequence.from_complex(tight), 0.1, 0.05)


def test_cluster_invariants():
    part, _ = ray_problem(0)
    assert all(0 < dk <= 1 for dk in part.d)
    for i in range(len(part.clusters)):
        for j in range(i + 1, len(part.clusters)):
            dij = psh_distance_pairwise(
                part.clusters[i].points.zs, part.clusters[j].points.zs
            ).min()
            assert dij > 2 * part.eps


def test_class_norm():
    part = gi.cluster_sequence(FiniteSequence.from_complex([0, 0.1]), 0.06, 0.6)
    cluster = part.clusters[0]
    assert gi.class_norm(cluster, zero_jet(cluster), part.eps) == 0.0
    single = gi.cluster_sequence(FiniteSequence.from_complex([0.4]), 0.05, 0.6)
    w = 2.0 - 1.0j
    assert gi.class_norm(
        single.clusters[0], gi.HermiteJet(((w,),)), single.eps
    ) == pytest.approx(abs(w))
    if len(cluster.points) == 2:
        val = gi.class_norm(cluster, gi.HermiteJet(((1.0,), (1.0,))), part.eps)
        assert val == pytest.approx(1.0, abs=0.15)  # 1 + O(eps)


def test_xp_norm():
    part, jets = ray_problem(1)
    zero = tuple(zero_jet(c) for c in part.clusters)
    assert gi.xp_norm(part, zero, 2.0) == 0.0
    assert gi.xp_norm(part, jets, np.inf) == max(
        gi.class_norm(c, j, part.eps) for c, j in zip(part.clusters, jets)
    )
    with pytest.raises(ValueError):
        gi.xp_norm(part, jets, 0.0)
    with pytest.raises(InvariantViolation):
        gi.xp_norm(part, jets[:-1], 2.0)


def test_singleton_xp_matches_weighted_lp():
    rng = np.random.default_rng(7)
    off = rng.uniform(0, 2 * np.pi)
    s = gen_radial_geometric(0.45, 7, tuple(off + np.pi * k / 2 for k in range(4)))
    part = gi.cluster_sequence(s, 0.02, 0.9)
    assert all(c.cardinality == 1 for c in part.clusters)
    vals = rng.standard_normal(len(part.clusters)) + 1j * rng.standard_normal(len(part.clusters))
    jets = tuple(gi.HermiteJet(((v,),)) for v in vals)
    anchor_vals = {c.points.points[0].z: v for c, v in zip(part.clusters, vals)}
    seq = part.all_points()
    ordered = [anchor_vals[p.z] for p in seq.points]
    for p in (1.0, 2.0):
        ratio = gi.xp_norm(part, jets, p) / lp_sequence_norm(seq, ordered, p)
        assert 0.5 <= ratio <= 2.0


def test_beta():
    part = gi.cluster_sequence(FiniteSequence.from_complex([0.0, 0.5]), 0.05, 0.6)
    val = beta(part, 0, 0.0)
    assert val.imag == pytest.approx(0.0)
    assert val == pytest.approx((1 - 0) + (1 - 0.25))
    single = gi.cluster_sequence(FiniteSequence.from_complex([0.3 + 0.2j]), 0.05, 0.6)
    a = 0.3 + 0.2j
    z = 0.2 + 0.1j
    expected = (1 - abs(a) ** 2) * (1 + np.conj(a) * z) / (1 - np.conj(a) * z)
    assert beta(single, 0, z) == pytest.approx(expected)
    with pytest.raises(IndexError):
        beta(part, 5, 0.0)
    # positive real part everywhere
    rng = np.random.default_rng(1)
    zs = rng.uniform(0, 0.98, 50) * np.exp(1j * rng.uniform(0, 2 * np.pi, 50))
    assert (beta(part, 0, zs).real > 0).all()


def test_anchor_tail_sums_bounded():
    # Re beta_k at its own anchor tracks the Carleson norm, stable in the
    # truncation length
    from blaschke_lab.carleson import carleson_norm

    for n in (10, 40):
        s = gen_radial_geometric(0.5, n)
        part = gi.cluster_sequence(s, 0.05, 0.6)
        cn = carleson_norm(s).norm
        worst = max(
            beta(part, k, complex(a)).real for k, a in enumerate(part.anchors)
        )
        assert worst <= 2.0 * (1.0 + cn)


def test_norm_ratio_stable_across_truncations():
    ratios = []
    for n in (6, 8, 10, 14):
        s = gen_radial_geometric(0.5, n, (0.0, 2.1, 4.2))
        part = gi.cluster_sequence(s, 0.05, 0.6)
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(len(part.clusters)) \
            + 1j * rng.standard_normal(len(part.clusters))
        jets = tuple(gi.HermiteJet(((v,),)) for v in vals)
        sol = gi.vgh_interpolate(gi.InterpolationProblem(part, jets, 2.0))
        ratios.append(sol.norm_ratio)
    med = float(np.median(ratios))
    assert all(r <= 3.0 * med and r >= med / 3.0 for r in ratios), ratios


def test_poisson_mean_and_kernel_bound():
    for a in (0.0, 0.5, 0.9 * np.exp(1.3j)):
        for r in (0.5, 0.9, 0.99):
            assert gi.poisson_angular_mean(a, r) <= 1.0 + 1e-8
    empty = gi.cluster_sequence(FiniteSequence(), 0.05, 0.6)
    assert gi.vgh_kernel_bound(empty, [0.1]) == 0.0
    single = gi.cluster_sequence(FiniteSequence.from_complex([0.0]), 0.05, 0.6)
    grid = 0.8 * np.exp(2j * np.pi * np.arange(64) / 64)
    assert gi.vgh_kernel_bound(single, grid) <= np.e


def summand_reference(problem, w):
    """The interpolant summed term by term: P_k times the Blaschke product
    of the other clusters' points times the kernel built from beta.  P_k
    comes from the solver's helper, fed with h_k at the listed points formed
    the same term-by-term way."""
    part = problem.partition
    q, s = gi._exponents(problem.p)
    anchors = part.anchors
    beta_anchor = np.array([beta(part, k, complex(a)) for k, a in enumerate(anchors)])

    def h(k, z):
        others = [c for j, c in enumerate(part.clusters) if j != k]
        b_other = BlaschkeProduct(FiniteSequence(
            tuple(p for c in others for p in c.points.points),
            tuple(m for c in others for m in c.points.multiplicities)))
        a = anchors[k]
        kernel = ((1 - abs(a) ** 2) / (1 - np.conj(a) * z)) ** q \
            * np.exp((beta_anchor[k] - beta(part, k, z)) / s)
        return evaluate(b_other, z) * kernel

    values = np.concatenate([h(k, c.points.zs) for k, c in enumerate(part.clusters)])
    polys = gi._multiplier_polynomials(problem, values)
    total = np.zeros(np.shape(w), dtype=complex)
    for k, poly in enumerate(polys):
        if poly is not None:
            total += poly(w) * h(k, w)
    return total


def test_evaluator_matches_summand_reference():
    part, jets = ray_problem(8, rays=3, levels=4, satellites=2, doubles=1)
    assert any(max(c.points.multiplicities) > 1 for c in part.clusters)
    jets = (zero_jet(part.clusters[0]),) + jets[1:]
    grid = np.outer([0.0, 0.3, 0.7, 0.95], np.exp(2j * np.pi * np.arange(16) / 16))
    points = part.all_points().zs
    for p in (0.5, 2.0, np.inf):
        problem = gi.InterpolationProblem(part, jets, p)
        ev = gi._solution_evaluator(problem)
        for w in (grid, points):
            got = ev(w)
            ref = summand_reference(problem, w)
            assert got.shape == w.shape
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        z = 0.2 - 0.35j
        assert isinstance(ev(z), complex)
        assert abs(ev(z) - summand_reference(problem, np.array([z]))[0]) \
            <= 1e-12 * abs(ev(z))
        # the zero-jet cluster's points are zeros of every summand
        first = part.clusters[0].points.zs
        assert np.all(ev(first) == 0)


def deep_clusters():
    """Clusters with multiplicities up to 4 at depths 1 - |z|^2 down to
    2^-14, next to a cluster holding the zero at 0."""
    d8, d14 = 2.0 ** -8, 2.0 ** -14
    r8, r14 = np.sqrt(1 - d8), np.sqrt(1 - d14)
    zs = [0.0, 0.3, 0.33, r8 * np.exp(1j), r8 * np.exp(1j * (1 + 0.04 * d8)),
          r14 * np.exp(2.5j), r14 * np.exp(1j * (2.5 + 0.05 * d14)), 0.7 * np.exp(-2j)]
    part = gi.cluster_sequence(FiniteSequence.from_complex(zs, [1, 2, 1, 3, 1, 4, 2, 4]), 0.05, 0.6)
    assert part.clusters[0].points.zs.tolist() == [0.0]
    return part


def mp_summand(part, k, q, s):
    """B~_k * kernel_k in mpmath arithmetic, straight from the formulas."""
    import mpmath

    def tail(a, z):
        return (1 - abs(a) ** 2) * (1 + mpmath.conj(a) * z) / (1 - mpmath.conj(a) * z)

    anchors = [mpmath.mpc(a.real, a.imag) for a in part.anchors]
    zeros = [(mpmath.mpc(p.z.real, p.z.imag), m) for j, c in enumerate(part.clusters)
             if j != k for p, m in zip(c.points.points, c.points.multiplicities)]
    ak = anchors[k]
    beta_anchor = sum(tail(a, ak) for a in anchors[k:])

    def h(z):
        out = ((1 - abs(ak) ** 2) / (1 - mpmath.conj(ak) * z)) ** q
        out *= mpmath.exp((beta_anchor - sum(tail(a, z) for a in anchors[k:])) / s)
        for a, m in zeros:
            factor = z if a == 0 else mpmath.conj(a) / abs(a) * (a - z) / (1 - mpmath.conj(a) * z)
            out *= factor ** m
        return out

    return h


def test_summand_jets_match_mpmath():
    """The jets h_k(z0) exp(L) the solver divides by agree with 50-digit
    Taylor coefficients of B~_k * kernel_k.  Each coefficient c_n is
    compared at the natural scale rho = 1 - |z0|^2: its error times rho^n,
    relative to the largest |c_j| rho^j."""
    mpmath = pytest.importorskip("mpmath")
    part = deep_clusters()
    seq = part.all_points()
    labels = np.repeat(np.arange(len(part.clusters)), [len(c.points) for c in part.clusters])
    assert max(seq.mults) == 4 and min(1 - np.abs(seq.zs) ** 2) < 2.0 ** -13
    ones = [np.ones_like] * len(part.clusters)
    for p in (0.5, 2.0, np.inf):
        q, s = gi._exponents(p)
        problem = gi.InterpolationProblem(part, tuple(zero_jet(c) for c in part.clusters), p)
        values = gi._summands(problem)(seq.zs, ones)
        L = gi._log_coefficients(part, q, s)
        for i, (z0, m) in enumerate(zip(seq.zs, seq.mults)):
            got = values[i] * jet_exp(np.concatenate([[0.0], L[: m - 1, i]]))
            with mpmath.workdps(50):
                want = np.array([complex(c) for c in mpmath.taylor(
                    mp_summand(part, labels[i], q, s), mpmath.mpc(z0.real, z0.imag), m - 1)])
            scale = (1 - abs(z0) ** 2) ** np.arange(m)
            err = (np.abs(got - want) * scale).max() / (np.abs(want) * scale).max()
            assert err <= 1e-10, (p, i, err)


def test_fused_pass_matches_per_cluster_reference():
    """_summands against the reverse pass in separate per-cluster steps, on
    hp_norm's circle r = 0.99999, the Cauchy rings of _extract_jets and the
    cluster points, at p = 1/2, 2/3, 0.7 (q = 4, 3, 20/7), 2 and inf: the
    bench-shaped problems (satellites, a double point, a cardinality-3
    cluster) and the first of them with a singleton at 0 (unit -1)."""
    problems = [_interpolation_problem(seed) for seed in range(3)]
    seq = problems[0][0].all_points()
    part = gi.cluster_sequence(FiniteSequence.from_complex(
        np.append(0.0, seq.zs), np.append(1, seq.mults)), 0.05, 0.6)
    assert part.clusters[0].points.zs.tolist() == [0.0]
    problems.append((part, tuple(zero_jet(c) for c in part.clusters)))
    circle = 0.99999 * np.exp(2j * np.pi * np.arange(1 << 14) / (1 << 14))
    ring = np.exp(2j * np.pi * np.arange(128) / 128)
    for part, jets in problems:
        points = part.all_points().zs
        rings = (points[:, None] + 0.1 * (1.0 - np.abs(points))[:, None] * ring).ravel()
        weights = [None if k % 4 == 1 else (lambda z, k=k: 1.0 + 0.5j * k * z)
                   for k in range(len(part.clusters))]
        for p in (0.5, 2.0 / 3.0, 0.7, 2.0, np.inf):
            problem = gi.InterpolationProblem(part, jets, p)
            summed = gi._summands(problem)
            for w in (circle, rings, points):
                got = summed(w, weights)
                want = summed_by_rows(problem, w, weights)
                err = np.abs(got - want).max() / np.abs(want).max()
                assert err <= 1e-13, (len(points), p, len(w), err)


def test_kernel_bound_matches_stacked_formula():
    grid = np.concatenate([
        r * np.exp(2j * np.pi * np.arange(128) / 128) for r in (0.3, 0.7, 0.9, 0.99)
    ])
    for rays in ((0.0,), (0.0, 2.1, 4.2)):
        for n in (10, 40):
            part = gi.cluster_sequence(gen_radial_geometric(0.5, n, rays), 0.05, 0.6)
            anchors = part.anchors
            terms = np.stack(
                [(1.0 - abs(a) ** 2) * (1.0 + a.conjugate() * grid)
                 / (1.0 - a.conjugate() * grid) for a in anchors]
            )
            suffix = np.cumsum(terms[::-1], axis=0)[::-1]
            total = np.zeros(grid.shape)
            for k, a in enumerate(anchors):
                beta_a = complex(np.sum(
                    (1.0 - np.abs(anchors[k:]) ** 2)
                    * (1.0 + np.conj(anchors[k:]) * a)
                    / (1.0 - np.conj(anchors[k:]) * a)
                ))
                kern = np.abs((1.0 - abs(a) ** 2) / (1.0 - a.conjugate() * grid)) ** 2
                total += kern * np.exp(np.real(beta_a - suffix[k]))
            assert gi.vgh_kernel_bound(part, grid) == pytest.approx(total.max(), rel=1e-12)


def cauchy_jet(fn, z0, order, n_nodes=128):
    """Derivatives at z0 from fn on its own circle of radius 0.1 (1 - |z0|)."""
    rho = 0.1 * (1.0 - abs(z0))
    ring = np.exp(1j * 2.0 * np.pi * np.arange(n_nodes) / n_nodes)
    vals = fn(z0 + rho * ring)
    return [np.mean(vals * ring ** (-i)) / rho**i * np.prod(np.arange(1, i + 1))
            for i in range(order)]


def test_stacked_jets_match_per_point_extraction():
    part, jets = ray_problem(4, satellites=4, doubles=2)
    ev = gi._solution_evaluator(gi.InterpolationProblem(part, jets, 2.0))
    centers = [p.z for c in part.clusters for p in c.points.points]
    orders = [m for c in part.clusters for m in c.points.multiplicities]
    assert max(orders) == 2
    for got, z0, m in zip(gi._extract_jets(ev, centers, orders), centers, orders):
        want = cauchy_jet(ev, z0, m)
        assert len(got) == m
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-13 * max(1.0, abs(w))


def test_hp_norm_is_max_over_radii():
    # Hardy's convexity theorem: M_p(f, r) is nondecreasing in r, so the
    # mean hp_norm reads at its one radius is the max over all six
    part, jets = _interpolation_problem(0)
    for p in (0.5, 1.0, 2.0, np.inf):
        fn = gi.vgh_interpolate(gi.InterpolationProblem(part, jets, p)).function
        means = [circle_mean(fn, p, r) for r in HARDY_RADII]
        assert means == sorted(means)
        assert hp_norm(fn, p) == max(means)


def test_interpolate_two_singletons():
    part = gi.cluster_sequence(FiniteSequence.from_complex([0.0, 0.5]), 0.05, 0.6)
    jets = (gi.HermiteJet(((1.0,),)), gi.HermiteJet(((0.0,),)))
    sol = gi.vgh_interpolate(gi.InterpolationProblem(part, jets, 2.0))
    assert sol.function(0.0 + 0j) == pytest.approx(1.0, abs=1e-10)
    assert abs(sol.function(0.5 + 0j)) < 1e-10
    assert sol.jet_residual <= 1e-8


def test_interpolate_single_cluster_all_p():
    part = gi.cluster_sequence(FiniteSequence.from_complex([0.3 + 0.2j]), 0.05, 0.6)
    jets = (gi.HermiteJet(((1.0,),)),)
    for p in (0.5, 1.0, 2.0, np.inf):
        sol = gi.vgh_interpolate(gi.InterpolationProblem(part, jets, p))
        assert sol.function(0.3 + 0.2j) == pytest.approx(1.0, abs=1e-10)
        assert np.isfinite(sol.norm_ratio)


def test_interpolate_zero_targets():
    part, _ = ray_problem(3, rays=3, levels=4)
    jets = tuple(zero_jet(c) for c in part.clusters)
    sol = gi.vgh_interpolate(gi.InterpolationProblem(part, jets, 2.0))
    assert sol.achieved_norm == 0.0
    assert sol.norm_ratio == 0.0


def test_interpolate_empty_partition():
    part = gi.cluster_sequence(FiniteSequence(), 0.05, 0.6)
    assert gi._log_coefficients(part, 2.0, 1.0).shape == (0, 0)
    sol = gi.vgh_interpolate(gi.InterpolationProblem(part, (), 2.0))
    assert sol.function(0.3j) == 0.0
    assert sol.achieved_norm == sol.target_norm == sol.norm_ratio == 0.0


def test_interpolate_with_multiplicity():
    s = FiniteSequence.from_complex([0.2, -0.5], [2, 1])
    part = gi.cluster_sequence(s, 0.05, 0.6)
    # find the double cluster and set value + derivative targets
    jets = []
    for c in part.clusters:
        if c.points.multiplicities[0] == 2:
            jets.append(gi.HermiteJet(((1.5 - 0.5j, 2.0 + 1.0j),)))
        else:
            jets.append(gi.HermiteJet(((0.7,),)))
    sol = gi.vgh_interpolate(gi.InterpolationProblem(part, tuple(jets), 2.0))
    assert sol.jet_residual <= 1e-8
    f = sol.function
    h = 1e-6
    df = (f(0.2 + h) - f(0.2 - h)) / (2 * h)
    assert df == pytest.approx(2.0 + 1.0j, rel=1e-4)
    assert f(0.2 + 0j) == pytest.approx(1.5 - 0.5j, rel=1e-9)
    assert f(-0.5 + 0j) == pytest.approx(0.7, rel=1e-9)


def test_interpolation_battery():
    part, jets = ray_problem(4)
    sol = gi.vgh_interpolate(gi.InterpolationProblem(part, jets, 2.0))
    assert sol.jet_residual <= 1e-8
    assert np.isfinite(sol.norm_ratio) and sol.norm_ratio > 0
    # problem metadata travels with the solution
    assert sol.problem.partition is part


def test_partition_rejects_overlapping_clusters():
    c1 = gi.Cluster(FiniteSequence.from_complex([0.0]), gi.DiskPoint(0.0, 0.0))
    c2 = gi.Cluster(FiniteSequence.from_complex([0.05]), gi.DiskPoint(0.05, 0.0))
    with pytest.raises(InvariantViolation, match="overlap"):
        gi.ClusterPartition((c1, c2), 0.1, (0.9, 0.85), 0.6)


def test_partition_rejects_oversized_cluster():
    wide = gi.Cluster(FiniteSequence.from_complex([0.0, 0.8]), gi.DiskPoint(0.0, 0.0))
    with pytest.raises(InvariantViolation, match="diameter"):
        gi.ClusterPartition((wide,), 0.01, (0.15,), 0.5)


def test_hinf_bound():
    part = gi.cluster_sequence(FiniteSequence.from_complex([0.0]), 0.5, 0.6)
    b = BlaschkeProduct(part.all_points())
    bound = gi.hinf_bound_estimate(part, b)
    assert bound == pytest.approx(np.pi / 0.5, rel=1e-2)
    empty = gi.cluster_sequence(FiniteSequence(), 0.05, 0.6)
    assert gi.hinf_bound_estimate(empty, BlaschkeProduct.from_complex([])) == 0.0


def test_hinf_contour_touching_zeros():
    from blaschke_lab.generators import gen_escalating_multiplicity

    # stacks at spacing 1e-4 with contour radius 2e-5: the product is
    # astronomically small on the contours
    s = gen_escalating_multiplicity(5, split=True)
    part = gi.cluster_sequence(s, 2e-5, 0.6)
    b = BlaschkeProduct(part.all_points())
    with pytest.raises(InvariantViolation, match="contour touches"):
        gi.hinf_bound_estimate(part, b)


def test_hinf_dominates_solution():
    part, jets = ray_problem(5, rays=4, levels=5, satellites=2, doubles=1)
    sol = gi.vgh_interpolate(gi.InterpolationProblem(part, jets, np.inf))
    bound = gi.hinf_bound_estimate(part, BlaschkeProduct(part.all_points()))
    sup_cn = max(gi.class_norm(c, j, part.eps) for c, j in zip(part.clusters, jets))
    assert sol.achieved_norm <= bound * sup_cn * 1.05


def arcs_by_loop(center, radius, theta, keep):
    """Reference: walk the samples one by one from a dropped one and close
    each run of kept samples into an arc."""
    n = len(theta)
    step = 2.0 * np.pi / n
    if keep.all():
        return [CircleArc(center, radius, 0.0, 2.0 * np.pi)]
    arcs = []
    start = int(np.argmin(keep))
    order = np.roll(np.arange(n), -start)
    run = []
    for idx in order:
        if keep[idx]:
            run.append(idx)
        elif run:
            t0 = theta[run[0]] - step / 2.0
            t1 = theta[run[-1]] + step / 2.0
            if t1 < t0:
                t1 += 2.0 * np.pi
            arcs.append(CircleArc(center, radius, t0, t1))
            run = []
    if run:
        t0 = theta[run[0]] - step / 2.0
        t1 = theta[run[-1]] + step / 2.0
        if t1 < t0:
            t1 += 2.0 * np.pi
        arcs.append(CircleArc(center, radius, t0, t1))
    return arcs


def test_arcs_from_mask_matches_loop():
    n = 16
    theta = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    masks = {
        "across index 0": np.isin(np.arange(n), [14, 15, 0, 1, 2, 6, 7]),
        "all but one": np.arange(n) != 5,
        "all but the first": np.arange(n) != 0,
        "all but the last": np.arange(n) != n - 1,
        "single sample": np.arange(n) == 9,
        "single at index 0": np.arange(n) == 0,
        "alternating": np.arange(n) % 2 == 0,
        "none": np.zeros(n, dtype=bool),
        "all": np.ones(n, dtype=bool),
    }
    rng = np.random.default_rng(2)
    for t in range(20):
        masks[f"random {t}"] = rng.random(n) < 0.6
    for name, keep in masks.items():
        want = arcs_by_loop(0.3 + 0.1j, 0.05, theta, keep)
        assert gi._arcs_from_mask(0.3 + 0.1j, 0.05, theta, keep) == want, name
    wrap = gi._arcs_from_mask(0.0, 1.0, theta, masks["across index 0"])
    assert [(a.t0, a.t1) for a in wrap] == [(theta[6] - np.pi / n, theta[7] + np.pi / n),
                                            (theta[14] - np.pi / n, theta[2] + np.pi / n + 2 * np.pi)]


def test_verify_facts():
    single = gi.cluster_sequence(FiniteSequence.from_complex([0.4]), 0.05, 0.6)
    rep = gi.verify_facts(single, [])
    assert rep.separation_ok and rep.cardinality_ok and rep.subsequence_ok
    part, jets = ray_problem(6, rays=3, levels=4, satellites=2, doubles=1)
    sol = gi.vgh_interpolate(gi.InterpolationProblem(part, jets, 2.0))
    rep2 = gi.verify_facts(part, [sol], n_subsets=4, seed=1)
    assert rep2.separation_ok
    assert rep2.cardinality_ok
    assert rep2.max_cardinality <= rep2.cardinality_bound
    assert rep2.subsequence_ok, rep2.violations
