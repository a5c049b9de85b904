import numpy as np
import pytest

from blaschke_lab import disk
from blaschke_lab import geninterp as gi
from blaschke_lab.bergman import constant_fn, reproducing_family
from blaschke_lab.blaschke import BlaschkeProduct
from blaschke_lab.carleson import (
    CarlesonSquare,
    CircleArc,
    _ArcTable,
    _region_mass,
    arc_carleson_constant,
    carleson_embedding_probe,
    carleson_norm,
    lp_sequence_norm,
    mu_z_measure,
    uniform_blaschke_sup,
)
from blaschke_lab.disk import FiniteSequence, InvariantViolation
from blaschke_lab.generators import (
    gen_escalating_multiplicity,
    gen_radial_geometric,
    gen_random_carleson,
)
from oracles import ANCHOR_ETAS, _dyadic_levels, _search_squares, arc_samples, brute_carleson_norm
from test_acceptance import _interpolation_problem


def contains(square, z) -> bool:
    """Brute-force membership of z in the Carleson square."""
    if z == 0:
        return False
    d = abs((np.angle(z) - square.arc_center + np.pi) % (2 * np.pi) - np.pi)
    return d <= np.pi * square.arc_length and 1.0 - abs(z) < square.arc_length


def mass_in(s, square) -> float:
    """Brute-force mass of mu_Z inside the Carleson square."""
    inside = np.array([contains(square, a) for a in s.zs], dtype=bool)
    return float(mu_z_measure(s)[inside].sum())


def random_sequence(seed, n=20, r_max=0.97):
    rng = np.random.default_rng(seed)
    zs = rng.uniform(0.05, r_max, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    return FiniteSequence.from_complex(zs)


def test_square_membership():
    sq = CarlesonSquare(0.0, 0.5)
    assert contains(sq, 0.9)                      # deep inside, on axis
    assert not contains(sq, 0.4)                  # too shallow: 1 - |z| = 0.6
    assert not contains(sq, 0.9 * np.exp(2.0j))   # angle outside the arc
    assert not contains(sq, 0.0)
    with pytest.raises(InvariantViolation):
        CarlesonSquare(0.0, 1.5)


def test_mu_z():
    assert mu_z_measure(FiniteSequence.from_complex([0.0])).sum() == pytest.approx(1.0)
    assert mu_z_measure(FiniteSequence.from_complex([0.5])).sum() == pytest.approx(0.75)
    ce = gen_escalating_multiplicity(5)
    expected = sum(n * (1 - (1 - 0.25**n) ** 2) for n in range(1, 6))
    assert mu_z_measure(ce).sum() == pytest.approx(expected)


def test_carleson_norm_examples():
    rep = carleson_norm(FiniteSequence.from_complex([0.5]))
    assert rep.norm == pytest.approx(1.5)  # 1 + r for one atom at radius r
    assert rep.method == "point-anchored"
    assert rep.maximizing_square is not None
    assert carleson_norm(FiniteSequence()).norm == 0.0
    # geometric radial stays bounded independent of truncation
    for n in (5, 10, 20):
        s = gen_radial_geometric(0.5, n)
        assert carleson_norm(s).norm <= 4.0


def depth_held_ratio(s, square) -> float:
    """Mass over scale of the square, with depths (1 - |z|^2) / (1 + |z|)
    as carleson_norm takes them: the naive 1 - |z| rounds by more than the
    square's one-float margin."""
    z = s.zs
    depth = disk._one_minus_abs2(z) / (1.0 + np.abs(z))
    angle = np.abs((np.angle(z) - square.arc_center + np.pi) % (2 * np.pi) - np.pi)
    inside = (angle <= np.pi * square.arc_length) & (depth < square.arc_length)
    return float(mu_z_measure(s)[inside].sum()) / square.arc_length


@pytest.mark.parametrize("s", [
    gen_random_carleson(11, 40, 4.0),
    gen_radial_geometric(0.5, 20, (0.0, 2.0)),
    gen_escalating_multiplicity(8),
    gen_radial_geometric(0.5, 20),
    FiniteSequence.from_complex([0.5]),
], ids=["random-carleson n=40", "rays 0 and 2", "escalating 8", "one ray", "one atom"])
def test_carleson_norm_is_the_brute_force_supremum(s):
    rep = carleson_norm(s)
    assert rep.norm == pytest.approx(brute_carleson_norm(s), rel=1e-12)
    assert rep.method == "point-anchored"
    assert depth_held_ratio(s, rep.maximizing_square) == pytest.approx(rep.norm, rel=1e-12)


def test_single_atom_norm_against_mpmath():
    # one atom: the ratio (1 - |z|^2) / m rises to 1 + |z| as m falls to 1 - |z|
    mpmath = pytest.importorskip("mpmath")
    for depth in (None, *np.geomspace(1.1e-14, 1e-12, 5)):
        for theta in (0.0, 1.0, 2.5, -3.0):
            z = (0.5 if depth is None else 1.0 - depth) * np.exp(1j * theta)
            got = carleson_norm(FiniteSequence.from_complex([z])).norm
            with mpmath.workdps(50):
                want = 1 + mpmath.sqrt(mpmath.mpf(z.real) ** 2 + mpmath.mpf(z.imag) ** 2)
                assert abs(float((got - want) / want)) <= 1e-15, (depth, theta)


def test_norm_report_consistency():
    s = random_sequence(3)
    rep = carleson_norm(s)
    assert rep.norm >= mass_in(s, rep.maximizing_square) / rep.maximizing_square.arc_length - 1e-12


def test_monotone_and_subadditive():
    rng = np.random.default_rng(9)
    s = random_sequence(5, n=25)
    base = carleson_norm(s).norm
    bigger = FiniteSequence.from_complex(list(s.zs) + [0.91 + 0.01j])
    assert carleson_norm(bigger).norm >= base - 1e-12
    for seed in range(3):
        mask = rng.uniform(size=len(s)) < 0.5
        if mask.all() or not mask.any():
            continue
        s1 = FiniteSequence.from_complex(s.zs[mask])
        s2 = FiniteSequence.from_complex(s.zs[~mask])
        assert carleson_norm(s).norm <= (
            carleson_norm(s1).norm + carleson_norm(s2).norm + 1e-12
        )


def test_rotation_invariance():
    s = random_sequence(11, n=30)
    n1 = carleson_norm(s).norm
    for theta in (0.7, 2.9):
        n2 = carleson_norm(FiniteSequence.from_complex(s.zs * np.exp(1j * theta))).norm
        assert n2 == pytest.approx(n1, abs=1e-10)


def test_uniform_blaschke_sup():
    assert uniform_blaschke_sup(FiniteSequence.from_complex([0.0]), [0.0]) == pytest.approx(1.0)
    s = random_sequence(2, n=10)
    assert uniform_blaschke_sup(s, s.zs) >= 1.0
    ce = gen_escalating_multiplicity(6)
    for n in (2, 4, 6):
        zn = 1.0 - 0.25**n
        assert uniform_blaschke_sup(ce, [zn]) >= n
    assert uniform_blaschke_sup(FiniteSequence(), [0.0]) == 0.0


@pytest.mark.parametrize("n_zeros", [17, 2])
def test_uniform_blaschke_sup_tiles_match_single_tile(monkeypatch, n_zeros):
    s = random_sequence(6, n=n_zeros)
    s = FiniteSequence.from_complex(s.zs, [1] * (n_zeros - 1) + [3])
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


def test_lp_sequence_norm():
    s = FiniteSequence.from_complex([0.5])
    assert lp_sequence_norm(s, [0.0], 2) == 0.0
    assert lp_sequence_norm(FiniteSequence.from_complex([0.0]), [2.0], 2) == pytest.approx(2.0)
    assert lp_sequence_norm(s, [1.0], 1) == pytest.approx(0.75)
    assert lp_sequence_norm(s, [3.0 + 4.0j], np.inf) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        lp_sequence_norm(s, [1.0], 0.0)
    with pytest.raises(ValueError):
        lp_sequence_norm(s, [1.0, 2.0], 2)


def test_arc_carleson():
    assert arc_carleson_constant([]) == 0.0
    circle = CircleArc(0j, 0.4, 0.0, 2 * np.pi)
    assert arc_carleson_constant([circle]) == pytest.approx(2 * np.pi * 0.4, rel=1e-6)
    with pytest.raises(InvariantViolation):
        arc_carleson_constant([CircleArc(0.9 + 0j, 0.5, 0.0, 2 * np.pi)])
    # circle families around a separated radial sequence stay bounded
    norms = []
    for n in (6, 12):
        s = gen_radial_geometric(0.5, n)
        arcs = []
        for p in s.points:
            z = p.z
            rho = 0.1 * (1 - abs(z) ** 2)
            arcs.append(CircleArc(z, rho, 0.0, 2 * np.pi))
        norms.append(arc_carleson_constant(arcs))
    assert norms[1] <= 3.0 * norms[0]


def sampled_mass(arc, phi, h, depth, n=65536):
    """Midpoint-rule length of the arc inside {|wrap(arg z - phi)| <= h, 1 - |z| < depth}."""
    pts, w = arc_samples(arc, n)
    angular = h >= np.pi or np.abs((np.angle(pts) - phi + np.pi) % (2 * np.pi) - np.pi) <= h
    return float(w[angular & (1.0 - np.abs(pts) < depth)].sum())


def exact_mass(arc, phi, h, depth):
    return float(_region_mass(_ArcTable([arc]), np.array([phi]), np.array([h]),
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
        arc = CircleArc(c, r, t0, t0 + rng.choice([2 * np.pi, rng.uniform(0.5, 6.0)]))
        phi = np.angle(c) + rng.uniform(-2.0, 2.0) * r / rho
        yield (arc, phi, rng.uniform(0.0, 2.0) * r / rho,
               1.0 - rho + rng.uniform(-1.2, 1.2) * r)
    around_zero = CircleArc(0.01 + 0.004j, 0.02, 0.0, 2 * np.pi)
    for phi, h, depth in ((0.3, 1.0, 0.985), (-2.9, 0.2, 0.99), (3.1, 2.5, 0.975)):
        yield around_zero, phi, h, depth
    across = CircleArc(-0.6 + 0.001j, 0.02, -2.0, 1.5)
    yield across, np.pi - 0.01, 0.02, 0.41
    yield across, -np.pi + 0.005, 0.01, 0.39
    yield CircleArc(-0.6 - 0.004j, 0.02, 2.5, 4.0), np.pi, 0.015, 0.4
    c = 0.7 * np.exp(0.4j)
    yield CircleArc(c, 0.01, 0.0, 2 * np.pi), 0.4 - 0.01, np.arcsin(0.01 / 0.7) + 0.01 - 1e-9, 0.5
    yield CircleArc(c, 0.01, 1.0, 4.0), 2.0, 4.0, 0.305


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
    return gi.cluster_sequence(FiniteSequence.from_complex(zs, mults), 0.05, 0.6)


def contour_arcs(part, monkeypatch):
    """The arcs hinf_bound_estimate passes to arc_carleson_constant."""
    seen = []
    monkeypatch.setattr(gi, "arc_carleson_constant", lambda arcs: seen.append(arcs) or 1.0)
    gi.hinf_bound_estimate(part, BlaschkeProduct(part.all_points()))
    monkeypatch.undo()
    return seen[0]


def test_arc_carleson_dominates_sampled_squares(monkeypatch):
    rng = np.random.default_rng(11)
    parts = [bench_shape(rng, 4, 5), bench_shape(rng, 5, 6), bench_shape(rng, 6, 7)]
    parts += [_interpolation_problem(seed)[0] for seed in range(4)]
    for part in parts:
        arcs = contour_arcs(part, monkeypatch)
        got = arc_carleson_constant(arcs)
        assert got >= (1.0 - 1e-3) * sampled_family_constant(arcs)
        assert got >= (1.0 - 1e-3) * grid_constant(arcs)


def test_embedding_probe():
    s = FiniteSequence.from_complex([0.2, 0.5 + 0.2j, -0.7])
    mass = mu_z_measure(s).sum()
    assert carleson_embedding_probe(s, 2.0, [constant_fn(1.0)]) == pytest.approx(
        mass, rel=1e-4
    )
    fam = reproducing_family(s, 2.0)
    ratio = carleson_embedding_probe(s, 2.0, fam)
    assert ratio >= 1.0 - 1e-6  # the anchored term alone contributes about 1
    assert carleson_embedding_probe(FiniteSequence(), 2.0, fam) == 0.0
