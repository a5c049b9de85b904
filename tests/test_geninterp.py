import math

import numpy as np
import pytest

from blaschke_lab import blaschke
from blaschke_lab import geninterp as gi
from blaschke_lab.bergman import hp_norm
from blaschke_lab.blaschke import BlaschkeProduct, evaluate
from blaschke_lab.disk import (
    FiniteSequence,
    InvariantViolation,
    _one_minus_abs2,
    psh_distance_pairwise,
)
from blaschke_lab.generators import gen_perturbed, gen_radial_geometric
from blaschke_lab.hermite import HermiteInterpolant, jet_exp
from oracles import (
    HARDY_RADII,
    beta,
    circle_mean,
    lp_sequence_norm,
    poisson_angular_mean,
    summed_by_rows,
    vgh_kernel_bound,
    zero_jet,
)
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
        for z, m in zip(c.zs.tolist(), c.mults.tolist()):
            scale = 1.0 / (1 - abs(z) ** 2)
            row = [complex(rng.standard_normal(), rng.standard_normal())]
            for i in range(1, m):
                row.append(complex(rng.standard_normal(), rng.standard_normal()) * scale**i)
            rows.append(tuple(row))
        jets.append(tuple(rows))
    return part, tuple(jets)


def test_cluster_sequence_examples():
    s = FiniteSequence([0, 0.05, 0.9])
    part = gi.cluster_sequence(s, 0.1, 0.6)
    groups = [sorted(c.zs.real.tolist()) for c in part.clusters]
    assert groups == [[0.0, 0.05], [0.9]]
    assert part.eps == 0.1
    # all pairwise psh > 2 eps: every cluster a singleton
    s2 = FiniteSequence([0, 0.5, -0.5])
    part2 = gi.cluster_sequence(s2, 0.05, 0.6)
    assert all(len(c) == 1 for c in part2.clusters)
    # anchors sorted by modulus
    mods = np.abs(part2.anchors).tolist()
    assert mods == sorted(mods)
    assert gi.cluster_sequence(FiniteSequence([]), 0.1, 0.5).clusters == ()
    # eps is a pseudohyperbolic radius
    for eps in (0.0, 1.0, 1.5, np.nan):
        with pytest.raises(ValueError, match="eps"):
            gi.cluster_sequence(s, eps, 0.6)


def test_cluster_eps_halving_and_floor():
    # chain connected at eps but with too large a diameter: halving eps
    # must break it into admissible clusters
    pts = [0.0]
    z = 0.0
    for _ in range(12):
        z = (z + 0.18) / (1 + z * 0.18)
        pts.append(z)
    s = FiniteSequence(pts)
    part = gi.cluster_sequence(s, 0.1, 0.4)
    assert part.eps < 0.1
    for c in part.clusters:
        if len(c) > 1:
            d = psh_distance_pairwise(c.zs, c.zs).max()
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
        gi.cluster_sequence(FiniteSequence(tight), 0.1, 0.05)


def test_cluster_invariants():
    part, _ = ray_problem(0)
    assert all(0 < dk <= 1 for dk in part.d)
    for i in range(len(part.clusters)):
        for j in range(i + 1, len(part.clusters)):
            dij = psh_distance_pairwise(
                part.clusters[i].zs, part.clusters[j].zs
            ).min()
            assert dij > 2 * part.eps


def test_class_norm():
    part = gi.cluster_sequence(FiniteSequence([0, 0.1]), 0.06, 0.6)
    cluster = part.clusters[0]
    zero = tuple(zero_jet(c) for c in part.clusters)
    assert gi.class_norms(part, zero) == [0.0] * len(part.clusters)
    single = gi.cluster_sequence(FiniteSequence([0.4]), 0.05, 0.6)
    w = 2.0 - 1.0j
    assert gi.class_norms(single, (((w,),),)) == [pytest.approx(abs(w))]
    if len(cluster) == 2:
        (val,) = gi.class_norms(part, (((1.0,), (1.0,)),))
        assert val == pytest.approx(1.0, abs=0.15)  # 1 + O(eps)


def test_xp_norm():
    part, jets = ray_problem(1)
    zero = tuple(zero_jet(c) for c in part.clusters)
    assert gi.xp_norm(part, zero, 2.0) == 0.0
    assert gi.xp_norm(part, jets, np.inf) == max(gi.class_norms(part, jets))
    with pytest.raises(ValueError):
        gi.xp_norm(part, jets, 0.0)
    with pytest.raises(InvariantViolation):
        gi.xp_norm(part, jets[:-1], 2.0)


def test_singleton_xp_matches_weighted_lp():
    rng = np.random.default_rng(7)
    off = rng.uniform(0, 2 * np.pi)
    s = gen_radial_geometric(0.45, 7, tuple(off + np.pi * k / 2 for k in range(4)))
    part = gi.cluster_sequence(s, 0.02, 0.9)
    assert all(c.total_count == 1 for c in part.clusters)
    vals = rng.standard_normal(len(part.clusters)) + 1j * rng.standard_normal(len(part.clusters))
    jets = tuple(((v,),) for v in vals)
    anchor_vals = {c.zs[0]: v for c, v in zip(part.clusters, vals)}
    seq = part.all_points()
    ordered = [anchor_vals[z] for z in seq.zs]
    for p in (1.0, 2.0):
        ratio = gi.xp_norm(part, jets, p) / lp_sequence_norm(seq, ordered, p)
        assert 0.5 <= ratio <= 2.0


def test_beta():
    part = gi.cluster_sequence(FiniteSequence([0.0, 0.5]), 0.05, 0.6)
    val = beta(part, 0, 0.0)
    assert val.imag == pytest.approx(0.0)
    assert val == pytest.approx((1 - 0) + (1 - 0.25))
    single = gi.cluster_sequence(FiniteSequence([0.3 + 0.2j]), 0.05, 0.6)
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
        cn = carleson_norm(s)
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
        jets = tuple(((v,),) for v in vals)
        sol = gi.vgh_interpolate(gi.InterpolationProblem(part, jets, 2.0))
        ratios.append(sol.norm_ratio)
    med = float(np.median(ratios))
    assert all(r <= 3.0 * med and r >= med / 3.0 for r in ratios), ratios


def test_poisson_mean_and_kernel_bound():
    for a in (0.0, 0.5, 0.9 * np.exp(1.3j)):
        for r in (0.5, 0.9, 0.99):
            assert poisson_angular_mean(a, r) <= 1.0 + 1e-8
    empty = gi.cluster_sequence(FiniteSequence([]), 0.05, 0.6)
    assert vgh_kernel_bound(empty, [0.1]) == 0.0
    single = gi.cluster_sequence(FiniteSequence([0.0]), 0.05, 0.6)
    grid = 0.8 * np.exp(2j * np.pi * np.arange(64) / 64)
    assert vgh_kernel_bound(single, grid) <= np.e


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
            np.concatenate([c.zs for c in others]),
            np.concatenate([c.mults for c in others])))
        a = anchors[k]
        kernel = ((1 - abs(a) ** 2) / (1 - np.conj(a) * z)) ** q \
            * np.exp((beta_anchor[k] - beta(part, k, z)) / s)
        return evaluate(b_other, z) * kernel

    values = np.concatenate([h(k, c.zs) for k, c in enumerate(part.clusters)])
    polys = gi._multiplier_polynomials(problem, values)
    total = np.zeros(np.shape(w), dtype=complex)
    for k, poly in enumerate(polys):
        if poly is not None:
            total += poly(w) * h(k, w)
    return total


def test_evaluator_matches_summand_reference():
    part, jets = ray_problem(8, rays=3, levels=4, satellites=2, doubles=1)
    assert any(c.mults.max() > 1 for c in part.clusters)
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
        first = part.clusters[0].zs
        assert np.all(ev(first) == 0)


def deep_clusters():
    """Clusters with multiplicities up to 4 at depths 1 - |z|^2 down to
    2^-14, next to a cluster holding the zero at 0."""
    d8, d14 = 2.0 ** -8, 2.0 ** -14
    r8, r14 = np.sqrt(1 - d8), np.sqrt(1 - d14)
    zs = [0.0, 0.3, 0.33, r8 * np.exp(1j), r8 * np.exp(1j * (1 + 0.04 * d8)),
          r14 * np.exp(2.5j), r14 * np.exp(1j * (2.5 + 0.05 * d14)), 0.7 * np.exp(-2j)]
    part = gi.cluster_sequence(FiniteSequence(zs, [1, 2, 1, 3, 1, 4, 2, 4]), 0.05, 0.6)
    assert part.clusters[0].zs.tolist() == [0.0]
    return part


def mp_summand(part, k, q, s):
    """B~_k * kernel_k in mpmath arithmetic, straight from the formulas."""
    import mpmath

    def tail(a, z):
        return (1 - abs(a) ** 2) * (1 + mpmath.conj(a) * z) / (1 - mpmath.conj(a) * z)

    anchors = [mpmath.mpc(a.real, a.imag) for a in part.anchors]
    zeros = [(mpmath.mpc(z.real, z.imag), m) for j, c in enumerate(part.clusters)
             if j != k for z, m in zip(c.zs.tolist(), c.mults.tolist())]
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


def floor_partition(n, depth, mult, center):
    """n points of multiplicity mult at 1 - |z| = depth, angles 2 pi j / n,
    and a simple point at 0.5 when center is set, each a cluster of its
    own."""
    zs = (1.0 - depth) * np.exp(2j * np.pi * np.arange(n) / n)
    mults = [mult] * n
    if center:
        zs, mults = np.append(zs, 0.5), mults + [1]
    part = gi.cluster_sequence(FiniteSequence(zs, mults), 0.05, 0.6)
    assert len(part.clusters) == len(zs)
    return part


def floor_targets(part):
    """Targets N(0,1) + i N(0,1) from default_rng(0), the n-th derivative
    scaled by (1 - |z|^2)^-n."""
    rng = np.random.default_rng(0)
    return tuple(
        tuple(tuple(complex(rng.standard_normal(), rng.standard_normal())
                    / (1.0 - abs(z) ** 2) ** i for i in range(m))
              for z, m in zip(c.zs.tolist(), c.mults.tolist()))
        for c in part.clusters)


# seven simple points at depth 1e-13 with 0.5, and five double points at 1e-10
FLOOR_PROBLEMS = ((7, 1e-13, 1, True), (5, 1e-10, 2, False))


def test_summand_jets_match_mpmath():
    """The jets h_k(z0) exp(L) the solver divides by agree with 50-digit
    Taylor coefficients of B~_k * kernel_k.  Each coefficient c_n is
    compared at the natural scale rho = 1 - |z0|^2: its error times rho^n,
    relative to the largest |c_j| rho^j.  The second partition's double
    points lie at 1 - |z| = 1e-13, where a naive 1 - conj(a) z misses."""
    mpmath = pytest.importorskip("mpmath")
    part = deep_clusters()
    seq = part.all_points()
    assert max(seq.mults) == 4 and min(1 - np.abs(seq.zs) ** 2) < 2.0 ** -13
    # q = 4, 3 and 20/7 by products, products and np.power; 2 at p >= 1
    ps = (0.5, 2.0 / 3.0, 0.7, 2.0, np.inf)
    for part in (part, floor_partition(7, 1e-13, 2, True)):
        _check_summand_jets(mpmath, part, _closed_form_taylor, ps)


def test_extracted_summand_jets_match_mpmath():
    """The jet check's own extraction, on its Cauchy circles of twice the
    fitted powers (32 nodes a point), reads the Taylor coefficients of each
    summand h_k = B~_k * kernel_k at the points of cluster k as 50-digit
    arithmetic gives them, at the same natural scale as above."""
    mpmath = pytest.importorskip("mpmath")
    for part in (deep_clusters(), floor_partition(7, 1e-13, 2, True)):
        _check_summand_jets(mpmath, part, _extracted_taylor, (0.5, 2.0, np.inf))


def _closed_form_taylor(problem):
    """Taylor coefficients h_k(z0) exp(L) at every listed point z0."""
    part = problem.partition
    seq = part.all_points()
    values = gi._summands(problem)(seq.zs, [np.ones_like] * len(part.clusters))
    L = gi._log_coefficients(part, *gi._exponents(problem.p))
    return [values[i] * jet_exp(np.concatenate([[0.0], L[: m - 1, i]]))
            for i, m in enumerate(seq.mults)]


def _extracted_taylor(problem):
    """Taylor coefficients of h_k at the points of cluster k, from the jets
    that _extract_jets reads off the summand alone."""
    part = problem.partition
    summed = gi._summands(problem)
    out = []
    for k, c in enumerate(part.clusters):
        weights = [None] * len(part.clusters)
        weights[k] = np.ones_like

        def h(w, weights=weights):
            return summed(w.ravel(), weights).reshape(w.shape)

        for jet in gi._extract_jets(h, c.zs, c.mults.tolist(), gi._exponents(problem.p)[0]):
            out.append(jet / np.cumprod(np.r_[1.0, 1:len(jet)]))
    return out


def _check_summand_jets(mpmath, part, taylor, ps):
    """Compare taylor(problem), the coefficients at every listed point, with
    mpmath's for each p in ps."""
    seq = part.all_points()
    labels = part.labels()
    for p in ps:
        q, s = gi._exponents(p)
        problem = gi.InterpolationProblem(part, tuple(zero_jet(c) for c in part.clusters), p)
        for i, (z0, m, got) in enumerate(zip(seq.zs, seq.mults, taylor(problem))):
            assert len(got) == m
            with mpmath.workdps(50):
                want = np.array([complex(c) for c in mpmath.taylor(
                    mp_summand(part, labels[i], q, s), mpmath.mpc(z0.real, z0.imag), m - 1)])
            scale = (1 - abs(z0) ** 2) ** np.arange(m)
            err = (np.abs(got - want) * scale).max() / (np.abs(want) * scale).max()
            assert err <= 1e-10, (p, i, err)


@pytest.mark.parametrize("shape", FLOOR_PROBLEMS, ids=("simple-1e-13", "double-1e-10"))
def test_floor_problems_solve(shape):
    """Near the floor the Cauchy nodes z0 + rho e^(i theta) round by a fair
    share of rho; the jet check reads the nodes it sampled, so these
    solve with residuals of rounding size, far inside the 1e-6 check."""
    part = floor_partition(*shape)
    jets = floor_targets(part)
    for p in (0.5, 2.0, np.inf):
        sol = gi.vgh_interpolate(gi.InterpolationProblem(part, jets, p))
        assert sol.jet_residual <= 1e-8, (p, sol.jet_residual)


def test_jet_check_stops_once_a_pass_corrects_by_rounding(monkeypatch):
    """The refining passes of the jet check stop once one corrects no
    coefficient by more than eps max|vals| on any circle.  Measured: two
    passes on the bench-shaped problem at every p (the first corrects by
    about 1e-15 to 1e-14 of max|f|, the second by less than eps), and all
    four, the cap, on the seven simple points at 1 - |z| = 1e-13 with 0.5;
    the double points at 1e-10 take three."""
    polyval = np.polynomial.polynomial.polyval
    passes = []

    def counting(*args, **kwargs):
        passes.append(1)
        return polyval(*args, **kwargs)

    monkeypatch.setattr(np.polynomial.polynomial, "polyval", counting)
    floor = floor_partition(*FLOOR_PROBLEMS[0])
    for (part, jets), want in ((_interpolation_problem(0), 2),
                               ((floor, floor_targets(floor)), gi._JET_PASSES)):
        for p in (0.5, 2.0, np.inf):
            passes.clear()
            assert gi.vgh_interpolate(gi.InterpolationProblem(part, jets, p)).jet_residual <= 1e-8
            assert len(passes) == want, (len(part.clusters), p, len(passes))


def test_jet_check_past_the_default_node_count():
    """A multiplicity above the 16 fitted powers fits as many powers as
    its order, on twice as many nodes: the 130-fold point's circle gets
    260, so the solve ends in the check's refusal (its residual overflows,
    silently), not in a shape error."""
    part = gi.cluster_sequence(FiniteSequence([0.3], [130]), 0.05, 0.6)
    jets = (((1.0,) + (0.0,) * 129,),)
    with pytest.raises(RuntimeError, match="construction failed"):
        gi.vgh_interpolate(gi.InterpolationProblem(part, jets, 2.0))


def test_jet_check_refuses_a_perturbed_multiplier(monkeypatch):
    """The check stays independent of the construction and keeps its
    teeth at the floor: scaling the top Newton coefficient of one
    multiplier polynomial by 1 + 1e-5 is refused, for each of the first
    three clusters of both floor problems and of a bench-shaped one.  (The
    top coefficient carries the highest derivative; the value of a double
    point whose derivative targets are of size 5e9 sits below the check's
    floor of 1% of the largest target.)"""
    build = gi._multiplier_polynomials
    problems = [floor_partition(*shape) for shape in FLOOR_PROBLEMS]
    problems = [(part, floor_targets(part)) for part in problems]
    problems.append(_interpolation_problem(0))
    for part, jets in problems:
        problem = gi.InterpolationProblem(part, jets, 2.0)
        assert gi.vgh_interpolate(problem).jet_residual <= 1e-8
        for k in range(3):
            def mutated(problem, values, k=k):
                polys = build(problem, values)
                coeffs = polys[k].coeffs.copy()
                coeffs[-1] *= 1.0 + 1e-5
                polys[k] = HermiteInterpolant(polys[k].nodes, coeffs)
                return polys

            monkeypatch.setattr(gi, "_multiplier_polynomials", mutated)
            with pytest.raises(RuntimeError, match="construction failed"):
                gi.vgh_interpolate(problem)
            monkeypatch.setattr(gi, "_multiplier_polynomials", build)


def test_jet_check_refuses_a_wrong_jet_at_every_order(monkeypatch):
    """On a bench-shaped problem with unit-modulus targets, so that every
    order sits above the check's floor of 1% of the largest target, the
    check refuses the solution with 1e-5 |t_n| (z - z0)^n / n! added, which
    moves the n-th derivative at z0 by 1e-5 of its target: at every listed
    point z0 and for each order n below its multiplicity."""
    part, _ = _interpolation_problem(0)
    rng = np.random.default_rng(1)
    jets = tuple(tuple(tuple(np.exp(2j * np.pi * rng.random(m)))
                       for m in c.mults.tolist()) for c in part.clusters)
    problem = gi.InterpolationProblem(part, jets, 2.0)
    assert gi.vgh_interpolate(problem).jet_residual <= 1e-8
    seq = part.all_points()
    assert max(seq.mults) == 2
    ev = gi._solution_evaluator(problem)
    rows = [row for jet in jets for row in jet]
    for z0, row in zip(seq.zs.tolist(), rows):
        for n, t in enumerate(row):
            def perturbed(z, z0=z0, n=n, size=1e-5 * abs(t) / math.factorial(n)):
                return ev(z) + size * (z - z0) ** n

            monkeypatch.setattr(gi, "_solution_evaluator", lambda problem, f=perturbed: f)
            with pytest.raises(RuntimeError, match="construction failed"):
                gi.vgh_interpolate(problem)


@pytest.mark.parametrize("p", [0.007, 0.006, 0.005, 0.004])
def test_jet_check_accepts_right_answers_at_small_p(p):
    """At q = 2/p in the hundreds the kernel's Taylor coefficients about
    a point rise to n of about q/9 before they fall, so the check fits
    more powers (gi._jet_powers): on 16 powers these solves were refused
    with residuals 2.1e-5 to 1.5e4.  The accepted interpolant meets its
    targets 1 and 2 when evaluated at the points directly, with no circle."""
    part = gi.cluster_sequence(FiniteSequence([0.0, 0.5]), 0.05, 0.6)
    assert gi._jet_powers(2.0 / p, 1) > gi._JET_POWERS
    solution = gi.vgh_interpolate(gi.InterpolationProblem(part, (((1.0,),), ((2.0,),)), p))
    assert solution.jet_residual <= 1e-7
    got = solution.function(np.array([0.0, 0.5], dtype=complex))
    assert np.allclose(got, [1.0, 2.0], rtol=1e-9, atol=0.0)


def test_jet_powers_stay_at_the_default_from_p_one_half():
    # q = 2/p <= 4 keeps 16 powers (32 nodes), so no bench solve changes
    assert all(gi._jet_powers(q, m) == max(gi._JET_POWERS, m)
               for q in (1.0, 2.0, 20.0 / 7.0, 3.0, 4.0) for m in (1, 2, 16, 40))


def test_fused_pass_matches_per_cluster_reference():
    """_summands against the reverse pass in separate per-cluster steps, on
    hp_norm's circle r = 0.99999, 128-node Cauchy rings (every fourth node
    one of _extract_jets' 32, bit for bit) and the cluster points, at p = 1/2, 2/3, 0.7 (q = 4, 3, 20/7), 2 and inf: the
    bench-shaped problems (satellites, a double point, a cardinality-3
    cluster) and the first of them with a singleton at 0 (unit -1)."""
    problems = [_interpolation_problem(seed) for seed in range(3)]
    seq = problems[0][0].all_points()
    part = gi.cluster_sequence(FiniteSequence(
        np.append(0.0, seq.zs), np.append(1, seq.mults)), 0.05, 0.6)
    assert part.clusters[0].zs.tolist() == [0.0]
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


def test_pass_forms_each_anchor_denominator_once(monkeypatch):
    """In one summed call blaschke.evaluate runs only for the clusters with
    more than one listed point, on their points other than the anchor, and
    nothing outside the pass forms 1 - conj(a_k) w at an anchor: the pass
    forms it once per cluster and takes the tail term, the kernel and the
    anchor's own factor from it."""
    part, jets = _interpolation_problem(2)
    summed = gi._summands(gi.InterpolationProblem(part, jets, 2.0))
    evaluated, centres = [], []
    evaluate_, one_minus_conj = gi.evaluate, blaschke._one_minus_conj

    def counting_evaluate(b, z):
        evaluated.append(set(b.zeros.zs.tolist()))
        return evaluate_(b, z)

    def counting_one_minus_conj(c, dc, z):
        centres.extend(np.ravel(c).tolist())
        return one_minus_conj(c, dc, z)

    monkeypatch.setattr(gi, "evaluate", counting_evaluate)
    for module in (gi, blaschke):
        monkeypatch.setattr(module, "_one_minus_conj", counting_one_minus_conj)
    summed(0.9 * np.exp(2j * np.pi * np.arange(64) / 64), [np.ones_like] * len(part.clusters))
    others = [set(c.zs.tolist()) - {a}
              for c, a in zip(part.clusters, part.anchors.tolist()) if len(c) > 1]
    assert 0 < len(others) < len(part.clusters)
    assert evaluated == others[::-1]  # the pass runs from the last cluster
    assert not set(part.anchors.tolist()) & set(centres)


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
            assert vgh_kernel_bound(part, grid) == pytest.approx(total.max(), rel=1e-12)


def test_evaluator_bits_do_not_depend_on_the_call():
    """The interpolant at the nodes of hp_norm's circle, from calls of
    different sizes.  hp_norm's nested node sets (every 16th node, then the
    midpoints at steps 8, 4, 2 and 1) give what one call of 2^14 points
    gives, bit for bit: numpy's complex product is not commutative in the
    last bit, and from 2^14 points on numpy reuses an expression's
    temporary in place, so the Hermite factors keep the temporary as the
    left operand.  A scalar call runs on two copies of its point, since
    numpy rounds one-element in-place products like Python's complex
    product, so it gives the array call's bits too."""
    part, jets = _interpolation_problem(2)  # 6 rays x 7 levels, as the bench's clu6x7
    n = 1 << 14
    circle = 0.99999 * np.exp(2j * np.pi * np.arange(n) / n)
    calls = [np.arange(0, n, 16)] + [np.arange(step, n, 2 * step) for step in (8, 4, 2, 1)]
    for p in (0.5, 2.0, np.inf):
        ev = gi._solution_evaluator(gi.InterpolationProblem(part, jets, p))
        whole = ev(circle)
        parts = np.empty(n, dtype=complex)
        for k in calls:
            parts[k] = ev(circle[k])
        assert np.array_equal(parts, whole), p
        for z, want in zip(circle[::1024].tolist(), whole[::1024].tolist()):
            assert ev(z) == want, (p, z)


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
    centers = part.all_points().zs
    orders = part.all_points().mults.tolist()
    assert max(orders) == 2
    shapes = []

    def spy(w):
        shapes.append(w.shape)
        return ev(w)

    jets = gi._extract_jets(spy, centers, orders, 2.0)
    # one call, on twice the fitted powers' nodes a circle
    assert shapes == [(len(centers), 2 * gi._JET_POWERS)]
    for got, z0, m in zip(jets, centers, orders):
        want = cauchy_jet(ev, z0, m)
        assert len(got) == m
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-13 * max(1.0, abs(w))


def test_hp_norm_is_max_over_radii():
    # Hardy's convexity theorem: M_p(f, r) is nondecreasing in r, so the
    # mean hp_norm reads at its one radius is the max over all six; hp_norm
    # takes |f| from the FFT of fewer samples, so it meets the direct mean
    # to rounding, not bit for bit
    part, jets = _interpolation_problem(0)
    for p in (0.5, 1.0, 2.0, np.inf):
        fn = gi.vgh_interpolate(gi.InterpolationProblem(part, jets, p)).function
        means = [circle_mean(fn, p, r) for r in HARDY_RADII]
        assert means == sorted(means)
        assert abs(hp_norm(fn, p) / max(means) - 1) <= 1e-12


def test_interpolate_two_singletons():
    part = gi.cluster_sequence(FiniteSequence([0.0, 0.5]), 0.05, 0.6)
    jets = (((1.0,),), ((0.0,),))
    sol = gi.vgh_interpolate(gi.InterpolationProblem(part, jets, 2.0))
    assert sol.function(0.0 + 0j) == pytest.approx(1.0, abs=1e-10)
    assert abs(sol.function(0.5 + 0j)) < 1e-10
    assert sol.jet_residual <= 1e-8


def test_interpolate_single_cluster_all_p():
    part = gi.cluster_sequence(FiniteSequence([0.3 + 0.2j]), 0.05, 0.6)
    jets = (((1.0,),),)
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
    part = gi.cluster_sequence(FiniteSequence([]), 0.05, 0.6)
    assert gi._log_coefficients(part, 2.0, 1.0).shape == (0, 0)
    sol = gi.vgh_interpolate(gi.InterpolationProblem(part, (), 2.0))
    assert sol.function(0.3j) == 0.0
    assert sol.achieved_norm == sol.target_norm == sol.norm_ratio == 0.0


def test_interpolate_with_multiplicity():
    s = FiniteSequence([0.2, -0.5], [2, 1])
    part = gi.cluster_sequence(s, 0.05, 0.6)
    # find the double cluster and set value + derivative targets
    jets = []
    for c in part.clusters:
        if c.mults[0] == 2:
            jets.append(((1.5 - 0.5j, 2.0 + 1.0j),))
        else:
            jets.append(((0.7,),))
    sol = gi.vgh_interpolate(gi.InterpolationProblem(part, tuple(jets), 2.0))
    assert sol.jet_residual <= 1e-8
    f = sol.function
    h = 1e-6
    df = (f(0.2 + h) - f(0.2 - h)) / (2 * h)
    assert df == pytest.approx(2.0 + 1.0j, rel=1e-4)
    assert f(0.2 + 0j) == pytest.approx(1.5 - 0.5j, rel=1e-9)
    assert f(-0.5 + 0j) == pytest.approx(0.7, rel=1e-9)


def test_problem_converts_and_checks_targets():
    part = gi.cluster_sequence(FiniteSequence([0.2, -0.5], [2, 1]), 0.05, 0.6)
    rows = tuple(tuple((1,) * m for m in c.mults.tolist()) for c in part.clusters)
    assert rows == (((1, 1),), ((1,),))
    problem = gi.InterpolationProblem(part, rows, 2.0)
    assert problem.jets == (((1 + 0j, 1 + 0j),), ((1 + 0j,),))
    assert all(type(v) is complex for jet in problem.jets for row in jet for v in row)
    for p in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="positive or inf"):
            gi.InterpolationProblem(part, rows, p)
    with pytest.raises(InvariantViolation, match="parallel clusters"):
        gi.InterpolationProblem(part, rows[:1], 2.0)
    with pytest.raises(InvariantViolation, match="parallel cluster points"):
        gi.InterpolationProblem(part, (rows[0] * 2, rows[1]), 2.0)
    with pytest.raises(InvariantViolation, match="multiplicity"):
        gi.InterpolationProblem(part, (rows[0], ((1, 0),)), 2.0)


def test_interpolation_battery():
    part, jets = ray_problem(4)
    sol = gi.vgh_interpolate(gi.InterpolationProblem(part, jets, 2.0))
    assert sol.jet_residual <= 1e-8
    assert np.isfinite(sol.norm_ratio) and sol.norm_ratio > 0
    # problem metadata travels with the solution
    assert sol.problem.partition is part


def test_partition_rejects_overlapping_clusters():
    c1, c2 = FiniteSequence([0.0]), FiniteSequence([0.05])
    with pytest.raises(InvariantViolation, match="overlap"):
        gi.ClusterPartition((c1, c2), 0.1, 0.6)


def test_partition_rejects_oversized_cluster():
    wide = FiniteSequence([0.0, 0.8])
    with pytest.raises(InvariantViolation, match="diameter"):
        gi.ClusterPartition((wide,), 0.01, 0.5)


def test_partition_derives_anchors_and_gaps():
    """A partition works out its anchors, boundary gaps and points from its
    clusters and eps alone: rebuilt from cluster_sequence's clusters it
    gives the same bits, which are the least-modulus point, the least
    (1 - |z|)(1 - eps)/(1 + eps |z|) with 1 - |z| = (1 - |z|^2)/(1 + |z|)
    from the error-free depth, and the concatenated clusters; partitions of
    random subsets of the clusters carry the parent's values at their
    clusters."""
    part, _ = _interpolation_problem(0)
    assert max(c.total_count for c in part.clusters) == 3
    assert any(c.mults.max() == 2 for c in part.clusters)
    again = gi.ClusterPartition(part.clusters, part.eps, part.R_max)
    assert np.array_equal(again.anchors, part.anchors)
    assert again.d == part.d
    for a, b in ((again, part), (part, part)):
        assert np.array_equal(a.all_points().zs, np.concatenate([c.zs for c in b.clusters]))
        assert np.array_equal(a.all_points().mults,
                              np.concatenate([c.mults for c in b.clusters]))
    with pytest.raises(InvariantViolation, match="nonempty"):
        gi.ClusterPartition(part.clusters + (FiniteSequence([]),), part.eps, part.R_max)
    with pytest.raises(InvariantViolation, match="boundary gaps"):
        gi.ClusterPartition(part.clusters, 1.0, part.R_max)
    eps = part.eps
    for c, a, dk in zip(part.clusters, part.anchors.tolist(), part.d):
        zs = c.zs.tolist()
        assert a == min(zs, key=lambda z: (abs(z), np.angle(z)))
        r = np.abs(c.zs)
        assert dk == (_one_minus_abs2(c.zs) / (1.0 + r) * (1.0 - eps) / (1.0 + eps * r)).min()
    rng = np.random.default_rng(1)
    for _ in range(4):
        size = int(rng.integers(1, len(part.clusters)))
        ks = np.sort(rng.choice(len(part.clusters), size=size, replace=False))
        sub = gi.ClusterPartition(tuple(part.clusters[k] for k in ks), part.eps, part.R_max)
        assert sub.d == tuple(part.d[k] for k in ks)
        assert np.array_equal(sub.anchors, part.anchors[ks])


def test_eps_disk_geometry_against_mpmath():
    """The boundary gap d of a one-point cluster and the Euclidean radius of
    D(z, eps) against 50 digits, down to 1 - |z| = 2e-14 (formed from the
    naive 1 - |z| and 1 - |z|^2 they missed by up to 1.6e-3 and 3.2e-4 at
    1e-13, 7.4e-3 and 2.2e-3 at 2e-14)."""
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    for depth in (1e-3, 1e-8, 1e-13, 2e-14):
        for theta in (0.3, 1.9, 4.4):
            z = (1.0 - depth) * np.exp(1j * theta)
            for eps in (0.05, 0.3):
                d = gi.ClusterPartition((FiniteSequence([z]),), eps, 0.6).d[0]
                r = gi._euclid_disks(np.array([z]), eps)[1][0]
                with mpmath.workdps(50):
                    m2 = mpmath.mpf(z.real) ** 2 + mpmath.mpf(z.imag) ** 2
                    e = mpmath.mpf(eps)
                    want_d = 1 - (mpmath.sqrt(m2) + e) / (1 + e * mpmath.sqrt(m2))
                    want_r = e * (1 - m2) / (1 - e * e * m2)
                    worst = max(worst, float(abs(d / want_d - 1)), float(abs(r / want_r - 1)))
    assert worst <= 1e-15, worst


def test_hinf_bound():
    part = gi.cluster_sequence(FiniteSequence([0.0]), 0.5, 0.6)
    b = BlaschkeProduct(part.all_points())
    bound = gi.hinf_bound_estimate(part, b)
    assert bound == pytest.approx(np.pi / 0.5, rel=1e-2)
    empty = gi.cluster_sequence(FiniteSequence([]), 0.05, 0.6)
    assert gi.hinf_bound_estimate(empty, BlaschkeProduct(FiniteSequence([]))) == 0.0


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
    sup_cn = max(gi.class_norms(part, jets))
    assert sol.achieved_norm <= bound * sup_cn * 1.05


def arcs_by_loop(theta, keep):
    """Reference: walk the samples one by one from a dropped one and close
    each run of kept samples into an arc (t0, t1)."""
    n = len(theta)
    step = 2.0 * np.pi / n
    if keep.all():
        return [(0.0, 2.0 * np.pi)]
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
            arcs.append((t0, t1))
            run = []
    if run:
        t0 = theta[run[0]] - step / 2.0
        t1 = theta[run[-1]] + step / 2.0
        if t1 < t0:
            t1 += 2.0 * np.pi
        arcs.append((t0, t1))
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
        t0, t1 = gi._arcs_from_mask(theta, keep)
        assert list(zip(t0.tolist(), t1.tolist())) == arcs_by_loop(theta, keep), name
    t0, t1 = gi._arcs_from_mask(theta, masks["across index 0"])
    assert list(zip(t0.tolist(), t1.tolist())) == [
        (theta[6] - np.pi / n, theta[7] + np.pi / n),
        (theta[14] - np.pi / n, theta[2] + np.pi / n + 2 * np.pi)]
