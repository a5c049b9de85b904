import math

import numpy as np
import pytest

from blaschke_lab import bergman as bg
from blaschke_lab.analysis import analysis_grid, analyze_sequence
from blaschke_lab.blaschke import BlaschkeProduct, evaluate, log_abs_evaluate
from blaschke_lab.carleson import uniform_blaschke_sup
from blaschke_lab.disk import DiskPoint, FiniteSequence, MoebiusMap
from blaschke_lab.generators import (
    gen_escalating_multiplicity,
    gen_radial_geometric,
    gen_random_carleson,
)
from oracles import (
    BlaschkeMultiple,
    ap_norm,
    conformal_density,
    pointwise_division_bound,
    poly_from_zeros,
    quotient,
    times_blaschke,
)

LIGHT = bg.QuadratureGrid.build(rings=200, min_gap=1e-7, max_angular=4096)


def test_grid_tiles_the_disk():
    for g in (bg.default_grid(), LIGHT):
        assert g.band_areas.sum() == pytest.approx(np.pi, rel=1e-12)
        assert (g.radii < 1.0).all()
        assert (np.diff(g.radii) > 0).all()


def test_hp_norm_oracles():
    f = lambda z: z**3
    assert bg.hp_norm(f, np.inf) == pytest.approx(0.99999**3)
    assert bg.hp_norm(bg.constant_fn(2 - 1j), 1) == pytest.approx(abs(2 - 1j))
    # square-summable coefficients: 1/(1 - z/2) has norm sqrt(4/3)
    g = lambda z: 1.0 / (1.0 - 0.5 * z)
    assert bg.hp_norm(g, 2) == pytest.approx(np.sqrt(4 / 3), rel=1e-5)
    with pytest.raises(ValueError):
        bg.hp_norm(f, 0.0)


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
    assert ap_norm(bg.constant_fn(1.0), 2, 0.0, LIGHT) == pytest.approx(np.sqrt(np.pi))
    idf = lambda z: z
    assert ap_norm(idf, 2, 0.0, LIGHT) == pytest.approx(np.sqrt(np.pi / 2))
    # conformal density has Bergman-2 norm sqrt(pi) for every center
    for c in (0.0, 0.5, 0.37 + 0.2j):
        f = conformal_density(c, 1.0)
        assert ap_norm(f, 2, 0.0, LIGHT) == pytest.approx(np.sqrt(np.pi), rel=1e-6)
    # weighted: integral of (1-|z|^2) dA = pi/2
    assert ap_norm(bg.constant_fn(1.0), 2, 1.0, LIGHT) == pytest.approx(
        np.sqrt(np.pi / 2), rel=1e-9
    )
    with pytest.raises(ValueError):
        ap_norm(idf, 2, -1.0)
    with pytest.raises(ValueError):
        ap_norm(idf, -1.0)


def test_kernel_mass():
    for zeta in (0.0, 0.5, 0.9j, 0.99):
        assert bg.kernel_mass(zeta) == pytest.approx(np.pi, rel=1e-6)


def test_jensen_residual():
    rng = np.random.default_rng(5)
    zeros = rng.uniform(0.1, 0.8, 4) * np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
    f = poly_from_zeros(zeros, lead=1.7 - 0.3j)
    res = bg.jensen_area_residual(f, FiniteSequence.from_complex(zeros), LIGHT)
    assert abs(res) <= 1e-6
    # withholding one zero drives the residual strictly negative by the
    # closed-form amount for that zero
    withheld = zeros[-1]
    res2 = bg.jensen_area_residual(f, FiniteSequence.from_complex(zeros[:-1]), LIGHT)
    expected = -(np.log(1.0 / abs(withheld)) - (1 - abs(withheld) ** 2) / 2)
    assert res2 == pytest.approx(expected, abs=1e-3)
    assert res2 < 0
    assert bg.jensen_area_residual(bg.constant_fn(2.5), FiniteSequence(), LIGHT) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError, match="shift"):
        bg.jensen_area_residual(poly_from_zeros([0.0]), FiniteSequence(), LIGHT)


def test_jensen_multiplicity():
    f = lambda z: (z - 0.4) ** 2 * (1.0 + 0.2 * z)
    zeros = FiniteSequence.from_complex([0.4], [2])
    assert abs(bg.jensen_area_residual(f, zeros, LIGHT)) <= 1e-6


def test_division_bound():
    zs = [0.5, -0.3 + 0.2j]
    b = BlaschkeProduct.from_complex(zs)
    s = b.zeros
    C = uniform_blaschke_sup(s, s.zs)
    f = BlaschkeMultiple(b)
    out = pointwise_division_bound(f, b, 0.1 + 0.1j, 2.0, C, LIGHT)
    assert out.holds and out.lhs == pytest.approx(1.0)
    zero = bg.constant_fn(0.0)
    out0 = pointwise_division_bound(zero, b, 0.1, 2.0, C, LIGHT)
    assert out0.holds and out0.margin == pytest.approx(0.0)
    g = lambda z: 1.0 - 0.5 * z
    fg = times_blaschke(g, b)
    out2 = pointwise_division_bound(fg, b, 0.5, 2.0, C, LIGHT)
    assert out2.holds
    assert out2.lhs == pytest.approx(abs(g(0.5)))  # p/2 = 1


def test_quotients():
    b = BlaschkeProduct.from_complex([0.3, -0.5j])
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
    b = BlaschkeProduct.from_complex([0.4, -0.2 + 0.3j])
    ratio = bg.universal_divisor_ratio(b, [0.0], 2.0, 0.0, LIGHT)
    assert ratio >= 1.0
    # |B| <= 1 so multiplication contracts norms at the grid level
    g = lambda z: 1.0 + 0.3 * z
    bf = times_blaschke(g, b)
    assert ap_norm(bf, 2, 0.0, LIGHT) <= ap_norm(g, 2, 0.0, LIGHT) + 1e-12
    # separated radial family: bounded ratio across truncations
    vals = []
    for n in (5, 10):
        s = gen_radial_geometric(0.5, n)
        vals.append(bg.universal_divisor_ratio(BlaschkeProduct(s), [0.0, s.zs[-1]], 2.0, 0.0, LIGHT))
    assert vals[1] <= 3.0 * vals[0]


def test_mb_lower_probe():
    assert bg.mb_lower_probe(BlaschkeProduct.from_complex([]), [0.0], 2.0, LIGHT) == 1.0
    v = bg.mb_lower_probe(BlaschkeProduct.from_complex([0.0]), [0.0], 2.0, LIGHT)
    assert v == pytest.approx(np.sqrt(0.5), rel=1e-9)
    # always at most 1, strictly below for nonempty products
    b = BlaschkeProduct.from_complex([0.3, 0.6j])
    val = bg.mb_lower_probe(b, [0.0, 0.3], 2.0, LIGHT)
    assert val <= 1.0
    assert val < 1.0 - 1e-6
    with pytest.raises(ValueError):
        bg.mb_lower_probe(b, [0.0], 0.0)


def test_recentred_probe_matches_direct_quotient(monkeypatch):
    # the recentred mean against ||B h|| / ||h|| with |h|^p = |phi_c'|^(2+alpha),
    # integrated directly with B in complex arithmetic; p = 2 keeps both
    # integrands smooth at the zeros
    monkeypatch.setenv("BLASCHKE_LAB_THREADS", "2")
    b = BlaschkeProduct.from_complex([0.5, -0.3 + 0.6j])
    c = 0.6 + 0.5j
    for alpha in (0.0, 1.0):
        h = conformal_density(c, (2.0 + alpha) / 2.0)
        bh = lambda z, h=h: evaluate(b, z) * h(z)
        direct = ap_norm(bh, 2.0, alpha) / ap_norm(h, 2.0, alpha)
        recentred = 1.0 / bg.universal_divisor_ratio(b, [c], 2.0, alpha)
        assert abs(recentred - direct) <= 1e-6 * direct


@pytest.mark.parametrize("name, alpha", [
    pytest.param(name, 0.0, id=name)
    for name in ("random-carleson", "escalating-12", "escalating-6", "radial")
] + [
    pytest.param(name, 1.0, id=f"{name}-alpha1") for name in ("escalating-4", "escalating-6")
])
def test_divisor_ratio_converged_on_analysis_grid(monkeypatch, name, alpha):
    # two threads: the integrals on the fine grid set this test's time
    monkeypatch.setenv("BLASCHKE_LAB_THREADS", "2")
    s = {
        "random-carleson": lambda: gen_random_carleson(11, 40, 4.0),
        "escalating-12": lambda: gen_escalating_multiplicity(12),
        "escalating-6": lambda: gen_escalating_multiplicity(6),
        "escalating-4": lambda: gen_escalating_multiplicity(4),
        "radial": lambda: gen_radial_geometric(0.5, 46, (0.0, np.pi)),
    }[name]()
    b = BlaschkeProduct(s)
    centers = [0.0, s.zs[np.argmax(np.abs(s.zs))]]
    got = bg.universal_divisor_ratio(b, centers, 0.5, alpha, analysis_grid())
    # twice the rings and twice the angles per ring
    fine = bg.QuadratureGrid.build(rings=240, min_gap=1e-7, base_angular=128,
                                   max_angular=4096, angular_factor=32.0)
    assert fine.angular_counts.sum() >= 3.9 * analysis_grid().angular_counts.sum()
    want = bg.universal_divisor_ratio(b, centers, 0.5, alpha, fine)
    assert abs(got - want) <= 1e-3 * want
    if alpha == 1.0:
        # the weight rides on the band areas: no peak at the center to miss
        assert abs(got - want) <= 1e-4 * want
        assert analyze_sequence(s, alpha=alpha).divisor_ratio == got
    elif name == "escalating-6":
        rep = analyze_sequence(s)
        assert rep.divisor_ratio == got
        deepest = sorted(s.zs, key=lambda z: -abs(z))[:4]
        assert rep.mb_probe == bg.mb_lower_probe(b, deepest, 0.5, analysis_grid())


def test_counterexample_probe_decay():
    vals = []
    for n in (2, 4):
        ce = gen_escalating_multiplicity(n)
        zn = 1.0 - 0.25**n
        vals.append(bg.mb_lower_probe(BlaschkeProduct(ce), [zn], 0.5, LIGHT))
    assert vals[1] < vals[0]


def test_thread_cap_env(monkeypatch):
    f = conformal_density(0.4 + 0.1j, 1.0)
    single = ap_norm(f, 2, 0.0, LIGHT)
    monkeypatch.setenv("BLASCHKE_LAB_THREADS", "4")
    threaded = ap_norm(f, 2, 0.0, LIGHT)
    assert threaded == pytest.approx(single, rel=1e-12)
    monkeypatch.setenv("BLASCHKE_LAB_THREADS", "not-a-number")
    assert ap_norm(f, 2, 0.0, LIGHT) == pytest.approx(single, rel=1e-12)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_stacked_rows_match_single_integrals_bitwise(monkeypatch, threads):
    # each row's ring terms are formed and summed exactly on their own, so
    # stacking rows changes no bit; the analysis grid's blocks span rings
    monkeypatch.setenv("BLASCHKE_LAB_THREADS", threads)
    g = analysis_grid()
    phi = MoebiusMap(DiskPoint(0.7, -0.2))
    fields = [
        lambda z: np.abs(1.0 + z + z * z) ** 1.5,
        lambda z: phi.jacobian(z),
        lambda z: np.cos(3.0 * z.real) * z.imag,
    ]
    rows = bg.area_integral(lambda z: np.stack([fn(z) for fn in fields]), g)
    for got, fn in zip(rows, fields):
        assert got == bg.area_integral(fn, g)
    # the recentred means, on the tree path (40 zeros) and the direct one
    for s in (gen_random_carleson(11, 40, 4.0), gen_escalating_multiplicity(6)):
        b = BlaschkeProduct(s)
        centers = [0.0, *sorted(s.zs, key=lambda z: -abs(z))[:4]]
        means = bg._recentred_means(b, centers, 0.5, 0.0, g)
        for k in (1, 2):
            assert means[:k] == bg._recentred_means(b, centers[:k], 0.5, 0.0, g)


def ring_by_ring(fn, g):
    """Reference quadrature: one integrand call per ring, exact summation."""
    terms = []
    for r, area, n in zip(g.radii, g.band_areas, g.angular_counts):
        theta = 2.0 * np.pi * (np.arange(n) + 0.5) / n
        terms.append(float(np.sum(fn(r * np.exp(1j * theta)))) * area / n)
    return math.fsum(terms)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_area_integral_matches_ring_by_ring(monkeypatch, threads):
    monkeypatch.setenv("BLASCHKE_LAB_THREADS", threads)
    b = BlaschkeProduct.from_complex([0.5, -0.3 + 0.6j, 0.9j], [1, 2, 1])
    phi = MoebiusMap(DiskPoint(0.7, -0.2))
    fields = [
        lambda z: np.abs(1.0 + z + z * z) ** 1.5,
        lambda z: np.exp(0.5 * log_abs_evaluate(b, phi(z))),
        lambda z: phi.jacobian(z),
    ]
    # LIGHT has rings of up to 4096 nodes, larger than one block
    for g in (LIGHT, bg.QuadratureGrid.build(rings=40, min_gap=1e-5)):
        for fn in fields:
            seen = []
            got = bg.area_integral(lambda z: seen.append(z.size) or fn(z), g)
            want = ring_by_ring(fn, g)
            assert abs(got - want) <= 1e-13 * abs(want)
            assert sum(seen) == g.angular_counts.sum()
        # one row per field: every integral from a single pass over the nodes
        rows = bg.area_integral(lambda z: np.stack([fn(z) for fn in fields]), g)
        assert rows.shape == (len(fields),)
        for got, fn in zip(rows, fields):
            want = ring_by_ring(fn, g)
            assert abs(got - want) <= 1e-13 * abs(want)
