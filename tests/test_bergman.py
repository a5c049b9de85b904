import math
import warnings

import numpy as np
import pytest

from blaschke_lab import bergman as bg
from blaschke_lab import disk
from blaschke_lab import geninterp as gi
from blaschke_lab.analysis import analysis_grid, analyze_sequence
from blaschke_lab.blaschke import BlaschkeProduct, _pair_sum, evaluate, log_abs_evaluate
from blaschke_lab.carleson import uniform_blaschke_sup
from blaschke_lab.disk import FiniteSequence, moebius
from blaschke_lab.generators import (
    gen_escalating_multiplicity,
    gen_radial_geometric,
    gen_random_carleson,
)
from oracles import (
    FINE,
    UNCUT,
    BlaschkeMultiple,
    ap_norm,
    circle_mean,
    conformal_density,
    constant_fn,
    jensen_area_residual,
    kernel_mass,
    moebius_jacobian,
    pointwise_division_bound,
    poly_from_zeros,
    quotient,
    times_blaschke,
)
from test_acceptance import _interpolation_problem

LIGHT = bg.QuadratureGrid.build(rings=200, min_gap=1e-7, max_angular=4096)


def test_grid_tiles_the_disk():
    # radii increase through the first band's graded bands toward 0 too
    for g in (FINE, LIGHT, analysis_grid()):
        assert g.band_areas.sum() == pytest.approx(np.pi, rel=1e-12)
        assert (g.radii < 1.0).all()
        assert (np.diff(g.radii) > 0).all()


def test_hp_norm_oracles():
    f = lambda z: z**3
    assert bg.hp_norm(f, np.inf) == pytest.approx(0.99999**3)
    assert bg.hp_norm(constant_fn(2 - 1j), 1) == pytest.approx(abs(2 - 1j))
    # square-summable coefficients: 1/(1 - z/2) has M_2(r)^2 = 1/(1 - r^2/4)
    g = lambda z: 1.0 / (1.0 - 0.5 * z)
    r = bg._HARDY_RADIUS
    assert bg.hp_norm(g, 2) == pytest.approx(np.sqrt(1 / (1 - r * r / 4)), rel=1e-13)
    with pytest.raises(ValueError):
        bg.hp_norm(f, 0.0)


def _counted(f):
    """f, and the list of how many points each of its calls received."""
    seen = []

    def g(z):
        seen.append(np.size(z))
        return f(z)

    return g, seen


def _kernel(a):
    """The normalised Szego kernel k_a = (1 - |a|^2) / (1 - conj(a) z)."""
    return lambda z: (1 - abs(a) ** 2) / (1 - np.conj(a) * z)


@pytest.mark.parametrize("a", [0.5, 0.99j, -0.995])
def test_hp_norm_kernel_closed_form(a):
    # M_2(k_a, r)^2 = (1 - |a|^2)^2 / (1 - |a|^2 r^2); resolved at 1,024,
    # 4,096 and 8,192 nodes.  At |a| = 0.999 the coefficients decay too
    # slowly for 2^14 nodes, whose direct mean misses this by 6.5e-8.
    r = bg._HARDY_RADIUS
    want = (1 - abs(a) ** 2) / math.sqrt(1 - abs(a) ** 2 * r * r)
    assert bg.hp_norm(_kernel(a), 2) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("p", [0.5, 2.0, np.inf])
def test_hp_norm_spectral_gap(p):
    # 1 + z**2048 is constant on 1,024 and 2,048 nodes.  Its samples carry
    # too much rounding for the tail test, so it takes the direct mean; with
    # a tenth of z**2048 the spot checks turn the coarser grids down
    r = bg._HARDY_RADIUS
    for f in (lambda z: 1 + z**2048, lambda z: 1 + z**2048 / 10):
        assert bg.hp_norm(f, p) == pytest.approx(circle_mean(f, p, r), rel=1e-13)
    f, seen = _counted(lambda z: 1 + z**2048 / 10)
    bg.hp_norm(f, p)
    assert seen == [1024 + len(bg._HARDY_CHECKS), 1024, 2048]


@pytest.mark.parametrize("p", [0.5, 2.0, np.inf])
def test_hp_norm_unresolved_is_direct_mean(p):
    # not analytic, or not resolved by 2^14 nodes: the mean over the
    # direct samples of every node, bit for bit
    r = bg._HARDY_RADIUS
    for f in (np.conj, _kernel(0.999), _kernel(0.9999j)):
        counted, seen = _counted(f)
        assert bg.hp_norm(counted, p) == circle_mean(f, p, r)
        assert sum(seen) == bg._HARDY_SAMPLES


def test_hp_norm_point_counts():
    f, seen = _counted(lambda z: z**3)
    assert bg.hp_norm(f, 2) == pytest.approx(bg._HARDY_RADIUS**3, rel=1e-14)
    assert seen == [1024 + len(bg._HARDY_CHECKS)]
    part, jets = _interpolation_problem(0)
    for p in (0.5, 2.0, np.inf):
        fn = gi.vgh_interpolate(gi.InterpolationProblem(part, jets, p)).function
        f, seen = _counted(fn)
        bg.hp_norm(f, p)
        assert sum(seen) <= 8192 + len(bg._HARDY_CHECKS)


def test_hp_norm_scalar_and_nonfinite_output():
    # a scalar output is broadcast to the nodes; a sample that is not
    # finite sends hp_norm to the direct mean without a numpy warning
    assert bg.hp_norm(lambda z: 2.0, 2) == 2.0
    r = bg._HARDY_RADIUS
    spike = lambda z: np.where(z.real > r * 0.9999999, np.inf, z)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in (0.5, 2.0, np.inf):
            assert math.isnan(bg.hp_norm(lambda z: np.full(np.shape(z), np.nan), p))
            assert bg.hp_norm(spike, p) == math.inf == circle_mean(spike, p, r)


def test_hp_sup_submultiplicative():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a, b = rng.uniform(-0.5, 0.5, 2)
        f = lambda z, a=a: 1.0 / (1.0 - a * z) + z
        g = lambda z, b=b: np.exp(b * z)
        fg = lambda z, f=f, g=g: f(z) * g(z)
        assert bg.hp_norm(fg, np.inf) <= (
            bg.hp_norm(f, np.inf) * bg.hp_norm(g, np.inf) + 1e-9
        )


def test_ap_norm_oracles():
    assert ap_norm(constant_fn(1.0), 2, 0.0, LIGHT) == pytest.approx(np.sqrt(np.pi))
    idf = lambda z: z
    assert ap_norm(idf, 2, 0.0, LIGHT) == pytest.approx(np.sqrt(np.pi / 2))
    # conformal density has Bergman-2 norm sqrt(pi) for every center
    for c in (0.0, 0.5, 0.37 + 0.2j):
        f = conformal_density(c, 1.0)
        assert ap_norm(f, 2, 0.0, LIGHT) == pytest.approx(np.sqrt(np.pi), rel=1e-6)
    # weighted: integral of (1-|z|^2) dA = pi/2
    assert ap_norm(constant_fn(1.0), 2, 1.0, LIGHT) == pytest.approx(
        np.sqrt(np.pi / 2), rel=1e-9
    )
    with pytest.raises(ValueError):
        ap_norm(idf, 2, -1.0, LIGHT)
    with pytest.raises(ValueError):
        ap_norm(idf, -1.0, 0.0, LIGHT)


def test_kernel_mass():
    for zeta in (0.0, 0.5, 0.9j, 0.99):
        assert kernel_mass(zeta, FINE) == pytest.approx(np.pi, rel=1e-6)


def test_jensen_residual():
    rng = np.random.default_rng(5)
    zeros = rng.uniform(0.1, 0.8, 4) * np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
    f = poly_from_zeros(zeros, lead=1.7 - 0.3j)
    res = jensen_area_residual(f, FiniteSequence(zeros), LIGHT)
    assert abs(res) <= 1e-6
    # withholding one zero drives the residual strictly negative by the
    # closed-form amount for that zero
    withheld = zeros[-1]
    res2 = jensen_area_residual(f, FiniteSequence(zeros[:-1]), LIGHT)
    expected = -(np.log(1.0 / abs(withheld)) - (1 - abs(withheld) ** 2) / 2)
    assert res2 == pytest.approx(expected, abs=1e-3)
    assert res2 < 0
    assert jensen_area_residual(constant_fn(2.5), FiniteSequence([]), LIGHT) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError, match="shift"):
        jensen_area_residual(poly_from_zeros([0.0]), FiniteSequence([]), LIGHT)


def test_jensen_multiplicity():
    f = lambda z: (z - 0.4) ** 2 * (1.0 + 0.2 * z)
    zeros = FiniteSequence([0.4], [2])
    assert abs(jensen_area_residual(f, zeros, LIGHT)) <= 1e-6


def test_division_bound():
    zs = [0.5, -0.3 + 0.2j]
    b = BlaschkeProduct(FiniteSequence(zs))
    s = b.zeros
    C = uniform_blaschke_sup(s, s.zs)
    f = BlaschkeMultiple(b)
    out = pointwise_division_bound(f, b, 0.1 + 0.1j, 2.0, C, LIGHT)
    assert out.holds and out.lhs == pytest.approx(1.0)
    zero = constant_fn(0.0)
    out0 = pointwise_division_bound(zero, b, 0.1, 2.0, C, LIGHT)
    assert out0.holds and out0.margin == pytest.approx(0.0)
    g = lambda z: 1.0 - 0.5 * z
    fg = times_blaschke(g, b)
    out2 = pointwise_division_bound(fg, b, 0.5, 2.0, C, LIGHT)
    assert out2.holds
    assert out2.lhs == pytest.approx(abs(g(0.5)))  # p/2 = 1


def test_quotients():
    b = BlaschkeProduct(FiniteSequence([0.3, -0.5j]))
    g = lambda z: np.exp(0.3 * z)
    f = times_blaschke(g, b)
    q = quotient(f, b)
    assert q is f.cofactor
    # generic quotient agrees away from zeros
    f2 = lambda z: evaluate(b, z) * (1.0 + z)
    q2 = quotient(f2, b)
    for z in (0.1 + 0.2j, -0.4, 0.6j):
        assert q2(z) == pytest.approx(1.0 + z, rel=1e-9)
    assert np.isfinite(q2(0.3))  # nudged, not NaN


def test_universal_divisor_ratio():
    b = BlaschkeProduct(FiniteSequence([0.4, -0.2 + 0.3j]))
    ratio = 1.0 / min(bg.recentred_means(b, [0.0], 2.0, 0.0, LIGHT)) ** 0.5
    assert ratio >= 1.0
    # |B| <= 1 so multiplication contracts norms at the grid level
    g = lambda z: 1.0 + 0.3 * z
    bf = times_blaschke(g, b)
    assert ap_norm(bf, 2, 0.0, LIGHT) <= ap_norm(g, 2, 0.0, LIGHT) + 1e-12
    # separated radial family: bounded ratio across truncations
    vals = []
    for n in (5, 10):
        s = gen_radial_geometric(0.5, n)
        means = bg.recentred_means(BlaschkeProduct(s), [0.0, s.zs[-1]], 2.0, 0.0, LIGHT)
        vals.append(1.0 / min(means) ** 0.5)
    assert vals[1] <= 3.0 * vals[0]


def test_mb_lower_probe():
    # the multiplication probe: the least recentred mean to the power 1/p
    assert bg.recentred_means(BlaschkeProduct(FiniteSequence([])), [0.0], 2.0, 0.0, LIGHT) == [1.0]
    v = min(bg.recentred_means(BlaschkeProduct(FiniteSequence([0.0])), [0.0], 2.0, 0.0, LIGHT)) ** 0.5
    assert v == pytest.approx(np.sqrt(0.5), rel=1e-9)
    # always at most 1, strictly below for nonempty products
    b = BlaschkeProduct(FiniteSequence([0.3, 0.6j]))
    val = min(bg.recentred_means(b, [0.0, 0.3], 2.0, 0.0, LIGHT)) ** 0.5
    assert val <= 1.0
    assert val < 1.0 - 1e-6
    with pytest.raises(ValueError):
        bg.recentred_means(b, [0.0], 0.0, 0.0, LIGHT)


def test_recentred_probe_matches_direct_quotient():
    # the recentred mean against ||B h|| / ||h|| with |h|^p = |phi_c'|^(2+alpha),
    # integrated directly with B in complex arithmetic; p = 2 keeps both
    # integrands smooth at the zeros
    b = BlaschkeProduct(FiniteSequence([0.5, -0.3 + 0.6j]))
    c = 0.6 + 0.5j
    for alpha in (0.0, 1.0):
        h = conformal_density(c, (2.0 + alpha) / 2.0)
        bh = lambda z, h=h: evaluate(b, z) * h(z)
        direct = ap_norm(bh, 2.0, alpha, FINE) / ap_norm(h, 2.0, alpha, FINE)
        recentred = bg.recentred_means(b, [c], 2.0, alpha, FINE)[0] ** 0.5
        assert abs(recentred - direct) <= 1e-6 * direct


@pytest.mark.parametrize("name, alpha", [
    pytest.param(name, 0.0, id=name)
    for name in ("random-carleson", "escalating-12", "escalating-6", "radial")
] + [
    pytest.param(name, 1.0, id=f"{name}-alpha1") for name in ("escalating-4", "escalating-6")
])
def test_divisor_ratio_converged_on_analysis_grid(name, alpha):
    s = {
        "random-carleson": lambda: gen_random_carleson(11, 40, 4.0),
        "escalating-12": lambda: gen_escalating_multiplicity(12),
        "escalating-6": lambda: gen_escalating_multiplicity(6),
        "escalating-4": lambda: gen_escalating_multiplicity(4),
        "radial": lambda: gen_radial_geometric(0.5, 46, (0.0, np.pi)),
    }[name]()
    b = BlaschkeProduct(s)
    centers = [0.0, s.zs[np.argmax(np.abs(s.zs))]]
    # the divisor ratio: one over the least recentred mean to the power 1/p
    got = 1.0 / min(bg.recentred_means(b, centers, 0.5, alpha, analysis_grid())) ** 2.0
    # twice the rings and twice the angles per ring
    g = bg.QuadratureGrid.build(rings=240, min_gap=1e-7, max_angular=2048)
    fine = bg.QuadratureGrid(g.radii, g.band_areas, 2 * g.angular_counts)
    assert fine.angular_counts.sum() >= 3.9 * analysis_grid().angular_counts.sum()
    want = 1.0 / min(bg.recentred_means(b, centers, 0.5, alpha, fine)) ** 2.0
    assert abs(got - want) <= 1e-4 * want
    if alpha == 1.0:
        # the weight rides on the band areas: no peak at the center to miss
        assert analyze_sequence(s, alpha=alpha).divisor_ratio == got
    elif name == "escalating-6":
        rep = analyze_sequence(s)
        assert rep.divisor_ratio == got
        deepest = sorted(s.zs, key=lambda z: -abs(z))[:4]
        assert rep.mb_probe == min(bg.recentred_means(b, deepest, 0.5, 0.0, analysis_grid())) ** 2.0


CUT_INPUTS = {
    "random-carleson": lambda: gen_random_carleson(11, 40, 4.0),
    "escalating-8-split": lambda: gen_escalating_multiplicity(8, split=True),
    "rays-0-pi": lambda: gen_radial_geometric(0.5, 46, (0.0, np.pi)),
    "rays-1-1+pi": lambda: gen_radial_geometric(0.5, 46, (1.0, 1.0 + np.pi)),
}


@pytest.mark.parametrize("alpha", [0.0, 1.0])
@pytest.mark.parametrize("p", [0.5, 2.0])
@pytest.mark.parametrize("name", list(CUT_INPUTS))
def test_analysis_grid_cut_keeps_the_means(name, p, alpha):
    # past 1 - r = 1e-4 the analysis grid has three decade bands where UNCUT
    # has 30 bands of a tenth of a decade: 36,346 nodes against 63,994.
    # analyze's five means (centre 0 and the four deepest zeros) agree
    # within 3.4e-8 relative (p = 2, rays at 1 and 1 + pi), 4.2e-9 at
    # p = 1/2 and 7.5e-13 at alpha = 1
    assert analysis_grid().angular_counts.sum() == 36346
    assert 1.0 - analysis_grid().radii.max() <= 1e-7
    s = CUT_INPUTS[name]()
    b = BlaschkeProduct(s)
    centers = [0.0, *sorted(s.zs, key=lambda z: -abs(z))[:4]]
    got = np.array(bg.recentred_means(b, centers, p, alpha, analysis_grid()))
    want = np.array(bg.recentred_means(b, centers, p, alpha, UNCUT))
    assert (np.abs(got - want) <= 1e-7 * want).all()


@pytest.mark.parametrize("alpha", [0.0, 1.0])
@pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("a", [0.0, 0.5 + 0.3j, 1.0 - 2e-14])
def test_lone_zero_recentred_mean_closed_form(a, m, p, alpha):
    # recentred at a lone zero a of multiplicity m the integrand is |w|^(p m),
    # a cusp at w = 0 at any depth of a, and the mean is
    # (1+alpha) B(p m/2 + 1, alpha + 1)
    b = BlaschkeProduct(FiniteSequence([a], [m]))
    got = bg.recentred_means(b, [a], p, alpha, analysis_grid())[0]
    s = p * m / 2.0
    want = (1.0 + alpha) * math.exp(math.lgamma(s + 1.0) + math.lgamma(alpha + 1.0)
                                    - math.lgamma(s + alpha + 2.0))
    assert abs(got - want) <= 1e-4 * want


@pytest.mark.parametrize("name", ["random-carleson", "escalating-8-split", "radial"])
def test_recentred_means_above_jensen_bound(name):
    # Jensen's inequality on the normalised area measure: the mean of
    # |B o phi_c|^p is at least exp(p times the area mean of log|B o phi_c|),
    # and each moved zero a' contributes -(1 - |a'|^2)/2 to the latter, so
    # at alpha = 0 every mean is at least exp(-p S(c)/2), S the transformed
    # mass; 1e-3 leaves room for the quadrature
    s = {
        "random-carleson": lambda: gen_random_carleson(11, 40, 4.0),
        "escalating-8-split": lambda: gen_escalating_multiplicity(8, split=True),
        "radial": lambda: gen_radial_geometric(0.5, 20, (0.0, np.pi)),
    }[name]()
    b = BlaschkeProduct(s)
    p = 0.5
    means = np.array(bg.recentred_means(b, s.zs, p, 0.0, analysis_grid()))
    mults, coords, _ = b._table
    mass = _pair_sum(coords, mults, coords, disk._one_minus_rho2)
    bound = np.exp(-p * mass / 2.0)
    assert (means >= bound * (1.0 - 1e-3)).all()


@pytest.mark.parametrize("p", [0.5, 2.0])
@pytest.mark.parametrize("depth", [1e-13, 1e-10, 1e-6])
def test_reproducing_family_is_one_at_its_anchor(depth, p):
    # the normalised kernel f_a(z) = ((1 - |a|^2)/(1 - conj(a) z))^(2/p)
    # from the error-free d = 1 - |a|^2 and v = 1 - conj(a) z of
    # disk._one_minus_abs2 and _one_minus_conj, with
    # log(v/d) = log(|v|/d) + i arg v, has f_a(a) = 1 exactly however deep a
    # lies: a naive 1 - |a|^2 reads 1 + 2.2e-3 at depth 1e-13, p = 1/2
    a = (1.0 - depth) * np.exp(0.7j)
    d = float(disk._one_minus_abs2(a))

    def f(z):
        v = disk._one_minus_conj(a, d, z)
        return np.exp((-2.0 / p) * (np.log(np.abs(v) / d) + 1j * np.angle(v)))

    assert abs(f(a) - 1.0) <= 1e-15
    assert abs(f(np.array([a]))[0] - 1.0) <= 1e-15
    # and away from the anchor, against 50-digit arithmetic
    mpmath = pytest.importorskip("mpmath")
    z = 0.3 * a + 0.2j
    with mpmath.workdps(50):
        am, zm = mpmath.mpc(a), mpmath.mpc(z)
        want = complex(((1 - abs(am) ** 2) / (1 - mpmath.conj(am) * zm)) ** (2 / mpmath.mpf(p)))
    assert abs(f(z) - want) <= 1e-14 * abs(want)


def test_counterexample_probe_decay():
    vals = []
    for n in (2, 4):
        ce = gen_escalating_multiplicity(n)
        zn = 1.0 - 0.25**n
        vals.append(bg.recentred_means(BlaschkeProduct(ce), [zn], 0.5, 0.0, LIGHT)[0] ** 2.0)
    assert vals[1] < vals[0]


@pytest.mark.parametrize("shrink", [1, 2])
def test_stacked_rows_match_single_integrals_bitwise(monkeypatch, shrink):
    # each row's ring terms are formed and summed exactly on their own, so
    # stacking rows changes no bit; the analysis grid's blocks span rings,
    # at the default block size and at half of it
    monkeypatch.setattr(disk, "_BLOCK", disk._BLOCK // shrink)
    g = analysis_grid()
    fields = [
        lambda z: np.abs(1.0 + z + z * z) ** 1.5,
        lambda z: moebius_jacobian(0.7 - 0.2j, z),
        lambda z: np.cos(3.0 * z.real) * z.imag,
    ]
    rows = bg.area_integral(lambda z: np.stack([fn(z) for fn in fields]), g)
    for got, fn in zip(rows, fields):
        assert got == bg.area_integral(fn, g)
    # the recentred means, on the tree path (40 zeros) and the direct one
    for s in (gen_random_carleson(11, 40, 4.0), gen_escalating_multiplicity(6)):
        b = BlaschkeProduct(s)
        centers = [0.0, *sorted(s.zs, key=lambda z: -abs(z))[:4]]
        means = bg.recentred_means(b, centers, 0.5, 0.0, g)
        for k in (1, 2):
            assert means[:k] == bg.recentred_means(b, centers[:k], 0.5, 0.0, g)


def ring_by_ring(fn, g):
    """Reference quadrature: one integrand call per ring, exact summation."""
    terms = []
    for r, area, n in zip(g.radii, g.band_areas, g.angular_counts):
        theta = 2.0 * np.pi * (np.arange(n) + 0.5) / n
        terms.append(float(np.sum(fn(r * np.exp(1j * theta)))) * area / n)
    return math.fsum(terms)


@pytest.mark.parametrize("shrink", [1, 2])
def test_area_integral_matches_ring_by_ring(monkeypatch, shrink):
    # at the default block size and at half of it: the blocks change no result
    monkeypatch.setattr(disk, "_BLOCK", disk._BLOCK // shrink)
    b = BlaschkeProduct(FiniteSequence([0.5, -0.3 + 0.6j, 0.9j], [1, 2, 1]))
    fields = [
        lambda z: np.abs(1.0 + z + z * z) ** 1.5,
        lambda z: np.exp(0.5 * log_abs_evaluate(b, moebius(0.7 - 0.2j, z))),
        lambda z: moebius_jacobian(0.7 - 0.2j, z),
    ]
    # LIGHT has rings of up to 4096 nodes, larger than one block
    for g in (LIGHT, bg.QuadratureGrid.build(rings=40, min_gap=1e-5)):
        for fn in fields:
            seen = []
            got = bg.area_integral(lambda z: seen.append(z.size) or fn(z), g)
            want = ring_by_ring(fn, g)
            assert abs(got - want) <= 1e-13 * abs(want)
            assert sum(seen) == g.angular_counts.sum()
            assert max(seen) <= max(disk._BLOCK, g.angular_counts.max())
        # one row per field: every integral from a single pass over the nodes
        rows = bg.area_integral(lambda z: np.stack([fn(z) for fn in fields]), g)
        assert rows.shape == (len(fields),)
        for got, fn in zip(rows, fields):
            want = ring_by_ring(fn, g)
            assert abs(got - want) <= 1e-13 * abs(want)
