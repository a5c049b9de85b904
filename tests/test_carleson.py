import warnings

import numpy as np
import pytest

from blaschke_lab import blaschke, disk
from blaschke_lab import geninterp as gi
from blaschke_lab.blaschke import BlaschkeProduct
from blaschke_lab.carleson import (
    _ArcTable,
    _region_mass,
    arc_carleson_constant,
    carleson_norm,
    uniform_blaschke_sup,
)
from blaschke_lab.disk import FiniteSequence, InvariantViolation
from blaschke_lab.generators import (
    gen_escalating_multiplicity,
    gen_radial_geometric,
    gen_random_carleson,
)
from oracles import (
    ANCHOR_ETAS,
    _dyadic_levels,
    _search_squares,
    arc_samples,
    brute_carleson_norm,
    exact_rho2,
)
from test_acceptance import _interpolation_problem


def random_sequence(seed, n=20, r_max=0.97):
    rng = np.random.default_rng(seed)
    zs = rng.uniform(0.05, r_max, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    return FiniteSequence(zs)


def test_mu_z():
    # the total mass sum m (1 - |z|^2) of mu_Z is the transformed mass at the centre 0
    mass = lambda s: uniform_blaschke_sup(s, [0.0])
    assert mass(FiniteSequence([0.0])) == pytest.approx(1.0)
    assert mass(FiniteSequence([0.5])) == pytest.approx(0.75)
    ce = gen_escalating_multiplicity(5)
    expected = sum(n * (1 - (1 - 0.25**n) ** 2) for n in range(1, 6))
    assert mass(ce) == pytest.approx(expected)


def test_carleson_norm_examples():
    # 1 + r for one atom at radius r
    assert carleson_norm(FiniteSequence([0.5])) == pytest.approx(1.5)
    assert carleson_norm(FiniteSequence([])) == 0.0
    # geometric radial stays bounded independent of truncation
    for n in (5, 10, 20):
        s = gen_radial_geometric(0.5, n)
        assert carleson_norm(s) <= 4.0


@pytest.mark.parametrize("s", [
    gen_random_carleson(11, 40, 4.0),
    gen_radial_geometric(0.5, 20, (0.0, 2.0)),
    gen_escalating_multiplicity(8),
    gen_radial_geometric(0.5, 20),
    FiniteSequence([0.5]),
], ids=["random-carleson n=40", "rays 0 and 2", "escalating 8", "one ray", "one atom"])
def test_carleson_norm_is_the_brute_force_supremum(s):
    assert carleson_norm(s) == pytest.approx(brute_carleson_norm(s), rel=1e-12)


TIED_INPUTS = {
    # atoms share angles, and tau ties between the two rays
    "radial q=1/2 n=46 rays 1,1+pi": lambda: gen_radial_geometric(0.5, 46, (1.0, 1.0 + np.pi)),
    "regular 24-gon at 0.9": lambda: FiniteSequence(0.9 * np.exp(2j * np.pi * np.arange(24) / 24)),
    "regular 24-gon at 0.9 and 0.6": lambda: FiniteSequence(np.concatenate(
        [r * np.exp(2j * np.pi * np.arange(24) / 24) for r in (0.9, 0.6)])),
}


@pytest.mark.parametrize("name", list(TIED_INPUTS))
def test_carleson_norm_with_tied_tau_is_the_brute_force_supremum(name):
    s = TIED_INPUTS[name]()
    norm = carleson_norm(s)
    assert norm == pytest.approx(brute_carleson_norm(s), rel=1e-12)
    # tied masses are summed in an order fixed by angle and depth, so the
    # float does not depend on the order the points are listed in
    for seed in range(5):
        order = np.random.default_rng(seed).permutation(len(s))
        assert carleson_norm(FiniteSequence(s.zs[order], s.mults[order])) == norm


def test_radial_rays_norm_is_twenty_thirds():
    # the square of scale 1/2 whose arc runs from one ray to the other holds
    # every atom, mass 2 sum_k (1 - (1 - 2^-k)^2) = 4 (1 - 2^-46) -
    # (2/3)(1 - 4^-46); over 1/2 that is 20/3 less 1.7e-14 of itself
    s = TIED_INPUTS["radial q=1/2 n=46 rays 1,1+pi"]()
    assert carleson_norm(s) == pytest.approx(20.0 / 3.0, rel=1e-13)


def test_single_atom_norm_against_mpmath():
    # one atom: the ratio (1 - |z|^2) / m rises to 1 + |z| as m falls to 1 - |z|
    mpmath = pytest.importorskip("mpmath")
    for depth in (None, *np.geomspace(1.1e-14, 1e-12, 5)):
        for theta in (0.0, 1.0, 2.5, -3.0):
            z = (0.5 if depth is None else 1.0 - depth) * np.exp(1j * theta)
            got = carleson_norm(FiniteSequence([z]))
            with mpmath.workdps(50):
                want = 1 + mpmath.sqrt(mpmath.mpf(z.real) ** 2 + mpmath.mpf(z.imag) ** 2)
                assert abs(float((got - want) / want)) <= 1e-15, (depth, theta)


def test_monotone_and_subadditive():
    rng = np.random.default_rng(9)
    s = random_sequence(5, n=25)
    base = carleson_norm(s)
    bigger = FiniteSequence(list(s.zs) + [0.91 + 0.01j])
    assert carleson_norm(bigger) >= base - 1e-12
    for seed in range(3):
        mask = rng.uniform(size=len(s)) < 0.5
        if mask.all() or not mask.any():
            continue
        s1 = FiniteSequence(s.zs[mask])
        s2 = FiniteSequence(s.zs[~mask])
        assert carleson_norm(s) <= (
            carleson_norm(s1) + carleson_norm(s2) + 1e-12
        )


def test_rotation_invariance():
    s = random_sequence(11, n=30)
    n1 = carleson_norm(s)
    for theta in (0.7, 2.9):
        n2 = carleson_norm(FiniteSequence(s.zs * np.exp(1j * theta)))
        assert n2 == pytest.approx(n1, abs=1e-10)


def test_uniform_blaschke_sup():
    assert uniform_blaschke_sup(FiniteSequence([0.0]), [0.0]) == pytest.approx(1.0)
    s = random_sequence(2, n=10)
    assert uniform_blaschke_sup(s, s.zs) >= 1.0
    ce = gen_escalating_multiplicity(6)
    for n in (2, 4, 6):
        zn = 1.0 - 0.25**n
        assert uniform_blaschke_sup(ce, [zn]) >= n
    assert uniform_blaschke_sup(FiniteSequence([]), [0.0]) == 0.0


@pytest.mark.parametrize("n_zeros", [17, 2])
def test_uniform_blaschke_sup_tiles_match_single_tile(monkeypatch, n_zeros):
    s = random_sequence(6, n=n_zeros)
    s = FiniteSequence(s.zs, [1] * (n_zeros - 1) + [3])
    centers = list(random_sequence(7, n=19).zs) + [0.0]
    whole = uniform_blaschke_sup(s, centers)
    # 5-element tiles: 5 x 1 with a short last row tile for 17 zeros, 2 x 2
    # with a short last column tile for 2 zeros
    monkeypatch.setattr(disk, "_BLOCK", 5)
    assert uniform_blaschke_sup(s, centers) == pytest.approx(whole, rel=1e-13)


def test_uniform_blaschke_sup_truncation_trend():
    # separated generator: the supremum saturates instead of growing
    vals = {}
    for n in (10, 40):
        s = gen_radial_geometric(0.5, n)
        vals[n] = uniform_blaschke_sup(s, s.zs)
    assert vals[40] <= 1.5 * vals[10]


def columns(arcs):
    """The parallel arrays (centres, radii, t0, t1) of a nonempty list of
    (center, radius, t0, t1) arcs."""
    return [np.array(col) for col in zip(*arcs)]


def test_arc_carleson():
    assert arc_carleson_constant([], [], [], []) == 0.0
    circle = (0j, 0.4, 0.0, 2 * np.pi)
    assert arc_carleson_constant(*columns([circle])) == pytest.approx(2 * np.pi * 0.4, rel=1e-6)
    with pytest.raises(InvariantViolation):
        arc_carleson_constant(*columns([(0.9 + 0j, 0.5, 0.0, 2 * np.pi)]))
    # the four arrays must be parallel and one-dimensional
    with pytest.raises(ValueError):
        arc_carleson_constant([0j, 0.5], [0.1], [0.0], [1.0])
    with pytest.raises(ValueError):
        arc_carleson_constant(0j, 0.4, 0.0, 1.0)
    # circle families around a separated radial sequence stay bounded
    norms = []
    for n in (6, 12):
        s = gen_radial_geometric(0.5, n)
        rho = 0.1 * (1 - np.abs(s.zs) ** 2)
        norms.append(arc_carleson_constant(s.zs, rho, np.zeros(n), np.full(n, 2 * np.pi)))
    assert norms[1] <= 3.0 * norms[0]


def sampled_mass(arc, phi, h, depth, n=65536):
    """Midpoint-rule length of the arc inside {|wrap(arg z - phi)| <= h, 1 - |z| < depth}."""
    pts, w = arc_samples(arc, n)
    angular = h >= np.pi or np.abs((np.angle(pts) - phi + np.pi) % (2 * np.pi) - np.pi) <= h
    return float(w[angular & (1.0 - np.abs(pts) < depth)].sum())


def exact_mass(arc, phi, h, depth):
    return float(_region_mass(_ArcTable(*columns([arc])), np.array([phi]), np.array([h]),
                              np.array([depth]))[0])


def region_cases():
    """(arc, phi, h, depth): random regions about random short arcs, then
    a circle around 0, arcs across arg z = +-pi, a near-tangent side line
    and a region wider than the whole circle."""
    rng = np.random.default_rng(5)
    for _ in range(40):
        rho = rng.uniform(0.2, 0.97)
        c = rho * np.exp(1j * rng.uniform(-np.pi, np.pi))
        r = rng.uniform(0.2, 0.9) * min(0.02, 1.0 - rho)
        t0 = rng.uniform(-np.pi, np.pi)
        arc = (c, r, t0, t0 + rng.choice([2 * np.pi, rng.uniform(0.5, 6.0)]))
        phi = np.angle(c) + rng.uniform(-2.0, 2.0) * r / rho
        yield (arc, phi, rng.uniform(0.0, 2.0) * r / rho,
               1.0 - rho + rng.uniform(-1.2, 1.2) * r)
    around_zero = (0.01 + 0.004j, 0.02, 0.0, 2 * np.pi)
    for phi, h, depth in ((0.3, 1.0, 0.985), (-2.9, 0.2, 0.99), (3.1, 2.5, 0.975)):
        yield around_zero, phi, h, depth
    across = (-0.6 + 0.001j, 0.02, -2.0, 1.5)
    yield across, np.pi - 0.01, 0.02, 0.41
    yield across, -np.pi + 0.005, 0.01, 0.39
    yield (-0.6 - 0.004j, 0.02, 2.5, 4.0), np.pi, 0.015, 0.4
    c = 0.7 * np.exp(0.4j)
    yield (c, 0.01, 0.0, 2 * np.pi), 0.4 - 0.01, np.arcsin(0.01 / 0.7) + 0.01 - 1e-9, 0.5
    yield (c, 0.01, 1.0, 4.0), 2.0, 4.0, 0.305


def test_region_mass_matches_sampled_sums():
    for arc, phi, h, depth in region_cases():
        assert exact_mass(arc, phi, h, depth) == pytest.approx(
            sampled_mass(arc, phi, h, depth), abs=1e-5), (arc, phi, h, depth)


def sampled_family_constant(arcs, samples_per_arc=512, max_centers=1024):
    """The square family the constant was once searched over: 512 midpoint
    samples per arc, centres at every stride-th sample (at most about
    max_centers), dyadic scales and (1 + eta) times every such sample's depth."""
    pts, wts = (np.concatenate(x) for x in zip(*(arc_samples(a, samples_per_arc) for a in arcs)))
    angles, depths = np.angle(pts), 1.0 - np.abs(pts)
    stride = max(1, len(pts) // max_centers)
    scales = {float(2.0 ** (-l)) for l in range(_dyadic_levels(depths) + 1)}
    scales |= {min(1.0, float(d * (1.0 + eta))) for d in depths[::stride] for eta in ANCHOR_ETAS}
    return _search_squares(angles, depths, wts, angles[::stride], sorted(scales))[0]


def grid_constant(arcs, n_theta=2048, n_scales=200, samples_per_arc=512):
    """Max ratio over a grid of n_theta centres by n_scales log-spaced scales,
    with masses summed over midpoint samples."""
    pts, wts = (np.concatenate(x) for x in zip(*(arc_samples(a, samples_per_arc) for a in arcs)))
    order = np.argsort(np.angle(pts))
    angles, depths, wts = np.angle(pts)[order], 1.0 - np.abs(pts)[order], wts[order]
    angles = np.concatenate([angles - 2 * np.pi, angles, angles + 2 * np.pi])
    centres = -np.pi + 2 * np.pi * np.arange(n_theta) / n_theta
    best = 0.0
    for m in np.geomspace(depths.min(), 1.0, n_scales):
        csum = np.concatenate([[0.0], np.cumsum(np.tile(wts * (depths < m), 3))])
        hi = np.searchsorted(angles, centres + np.pi * m, side="right")
        lo = np.searchsorted(angles, centres - np.pi * m, side="left")
        best = max(best, float((csum[hi] - csum[lo]).max()) / m)
    return best


def bench_shape(rng, rays, levels):
    """The clustered problems of the clustered-interpolate benchmark, drawn
    in its order: radial points 1 - 2^-k on equally spaced rays, four with
    a satellite and a fifth doubled with a satellite."""
    off = rng.uniform(0.0, 2.0 * np.pi)
    zs = [(1.0 - 0.5**k) * np.exp(1j * (off + 2.0 * np.pi * r / rays))
          for r in range(rays) for k in range(1, levels + 1)]
    mults = [1] * len(zs)
    chosen = rng.choice(len(zs), size=5, replace=False)
    for i, dist in [(i, 0.09) for i in chosen[:4]] + [(chosen[4], 0.08)]:
        z = zs[i]
        zs.append(z + dist * (1.0 - abs(z) ** 2) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
        mults.append(1)
    mults[chosen[4]] = 2
    for _ in range(2 * sum(mults)):  # the benchmark draws the targets next
        rng.standard_normal()
    return gi.cluster_sequence(FiniteSequence(zs, mults), 0.05, 0.6)


def contour_arcs(part, monkeypatch):
    """The arrays (centres, radii, t0, t1) of the arcs hinf_bound_estimate
    passes to arc_carleson_constant."""
    seen = []
    monkeypatch.setattr(gi, "arc_carleson_constant", lambda *cols: seen.append(cols) or 1.0)
    gi.hinf_bound_estimate(part, BlaschkeProduct(part.all_points()))
    monkeypatch.undo()
    return seen[0]


def test_arc_carleson_dominates_sampled_squares(monkeypatch):
    rng = np.random.default_rng(11)
    parts = [bench_shape(rng, 4, 5), bench_shape(rng, 5, 6), bench_shape(rng, 6, 7)]
    parts += [_interpolation_problem(seed)[0] for seed in range(4)]
    for part in parts:
        cols = contour_arcs(part, monkeypatch)
        got = arc_carleson_constant(*cols)
        arcs = list(zip(*cols))
        assert got >= (1.0 - 1e-3) * sampled_family_constant(arcs)
        assert got >= (1.0 - 1e-3) * grid_constant(arcs)


# measured: 4.0e-16 (escalating) and 2.1e-16 (rays) relative at worst
MASS_TOL = 1e-15


@pytest.mark.parametrize("s", [gen_escalating_multiplicity(8, split=True),
                               gen_radial_geometric(0.5, 46, (1.0, 1.0 + np.pi))],
                         ids=["escalating n_max=8 split", "radial rays 1,1+pi"])
def test_probe_grid_mass_against_exact_sums(s):
    # verify --level full's probe grid: the supremum is the mass at its
    # argmax, and there and at 20 seeded centres the mass meets the exact
    # sum of m (1 - rho^2), rounded once
    b = BlaschkeProduct(s)
    grid = disk.hyperbolic_grid(float(np.abs(s.zs).max()), 0.25)
    mults, coords, _ = b._table
    mass = blaschke._pair_sum(coords, mults, disk._coords(grid), disk._one_minus_rho2)
    top = int(np.argmax(mass))
    assert uniform_blaschke_sup(s, grid) == mass[top]
    picks = [top, *np.random.default_rng(5).choice(len(grid), 20, replace=False).tolist()]
    for j in picks:
        row = exact_rho2([grid[j], *s.zs])[0][1:]
        want = float(sum(int(m) * (1 - r) for m, r in zip(s.mults, row)))
        assert abs(mass[j] - want) <= MASS_TOL * want


@pytest.mark.parametrize("c", [0.3 + 0.1j, -0.6j, (1.0 - 1e-13) * np.exp(0.7j)])
@pytest.mark.parametrize("m", [1, 5])
def test_centre_on_a_zero_gets_its_multiplicity(c, m):
    assert uniform_blaschke_sup(FiniteSequence([c], [m]), [c]) == m
    # next to another zero: m plus that zero's term, rounded once
    other = uniform_blaschke_sup(FiniteSequence([0.5 * c]), [c])
    assert uniform_blaschke_sup(FiniteSequence([c, 0.5 * c], [m, 1]), [c]) == m + other


@pytest.mark.parametrize("a, c", [(0.5, 0.5 + 1e-160), (1e-160, 3e-160), (0.7j, 0.7j - 1e-170)])
def test_centre_next_to_a_zero_gets_one_without_warnings(a, c):
    # |a - c|^2 underflows: 1 - rho^2 = q / (|a - c|^2 + q) reads 1 exactly
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        b = BlaschkeProduct(FiniteSequence([a]))
        assert uniform_blaschke_sup(FiniteSequence([a]), [c]) == 1.0
        mults, coords, _ = b._table
        pts = disk._coords(np.array([c], dtype=complex))
        assert blaschke._pair_sum(coords, mults, pts, disk._one_minus_rho2)[0] == 1.0
        within = blaschke._pair_sum(coords, mults, pts,
                                    lambda a, z: disk._one_minus_rho2(a, z) > 1.0 - 0.5 * 0.5)
        assert within[0] == 1.0
