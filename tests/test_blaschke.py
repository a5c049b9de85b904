import warnings

import numpy as np
import pytest

from blaschke_lab import blaschke, carleson, disk
from blaschke_lab.analysis import analysis_grid, analyze_sequence, union_separation
from blaschke_lab.bergman import area_integral
from blaschke_lab.blaschke import (
    BlaschkeProduct,
    compose_min_on_compact,
    evaluate,
    log_abs_composed,
    log_abs_evaluate,
    max_local_count,
    partition_separated,
    separation_report,
)
from blaschke_lab.carleson import uniform_blaschke_sup
from blaschke_lab.disk import (
    BOUNDARY_FLOOR,
    FiniteSequence,
    InvariantViolation,
    moebius,
    psh_distance_pairwise,
)
from blaschke_lab.generators import (
    gen_escalating_multiplicity,
    gen_radial_geometric,
    gen_random_carleson,
    gen_union,
)
from oracles import (
    dense_composed_log_max,
    exact_pair_keys,
    exhaustive_nonzero_probe,
    local_zero_count,
    reference_greedy,
)


def random_sequence(seed, n=12, r_max=0.95):
    rng = np.random.default_rng(seed)
    pts = set()
    while len(pts) < n:
        z = rng.uniform(0.05, r_max) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        pts.add(complex(z))
    return FiniteSequence(sorted(pts, key=abs))


def test_evaluate_examples():
    assert evaluate(BlaschkeProduct(FiniteSequence([0.0])), 0.5) == pytest.approx(0.5)
    assert evaluate(BlaschkeProduct(FiniteSequence([0.5])), 0.0) == pytest.approx(0.5)
    b = BlaschkeProduct(FiniteSequence([0.3 + 0.1j, -0.4], [2, 1]))
    assert evaluate(b, 0.3 + 0.1j) == 0.0
    assert evaluate(b, -0.4) == 0.0
    assert evaluate(BlaschkeProduct(FiniteSequence([])), 0.3) == 1.0


def test_modulus_bounded_and_boundary():
    rng = np.random.default_rng(1)
    b = BlaschkeProduct(random_sequence(5, n=8, r_max=0.8))
    z = rng.uniform(0, 0.999, 10**4) * np.exp(1j * rng.uniform(0, 2 * np.pi, 10**4))
    assert (np.abs(evaluate(b, z)) <= 1.0 + 1e-12).all()
    ring = (1.0 - 1e-12) * np.exp(1j * rng.uniform(0, 2 * np.pi, 200))
    mods = np.abs(evaluate(b, ring))
    assert (np.abs(mods - 1.0) <= 1e-8).all()


def test_log_abs_matches_evaluate():
    b = BlaschkeProduct(random_sequence(7, n=10))
    rng = np.random.default_rng(2)
    z = rng.uniform(0, 0.99, 50) * np.exp(1j * rng.uniform(0, 2 * np.pi, 50))
    direct = np.abs(evaluate(b, z))
    logs = np.exp(log_abs_evaluate(b, z))
    assert np.allclose(direct, logs, rtol=1e-12)
    assert log_abs_evaluate(b, b.zeros.zs[0]) == -np.inf


@pytest.mark.parametrize("depth", [1e-6, 1e-8, 1e-10, 1e-12, 1e-13, 1.5e-14])
def test_near_circle_values_against_mpmath(depth):
    # evaluate and the Moebius map form 1 - conj(a) z from the error-free
    # depth of a, so next to a zero or centre a at this depth they keep
    # their digits; the naive 1 - conj(a) z missed by up to 3.1e-3
    mpmath = pytest.importorskip("mpmath")
    theta = 0.7
    zs, mults = [complex((1.0 - depth) * np.exp(1j * theta)), 0.3 + 0.2j], [1, 2]
    b = BlaschkeProduct(FiniteSequence(zs, mults))
    pts = np.array([(1.0 - t * depth) * np.exp(1j * (theta + s * depth))
                    for t, s in ((0.5, 0.0), (2.0, 1.0), (1.0, -3.0), (3.0, 0.5))])
    values, maps = evaluate(b, pts), moebius(zs[0], pts)
    with mpmath.workdps(50):
        c = mpmath.mpc(zs[0])
        for i, z in enumerate(pts.tolist()):
            zm = mpmath.mpc(z)
            val = mpmath.mpf(1)
            for a, m in zip(zs, mults):
                am = mpmath.mpc(a)
                val *= (mpmath.conj(am) / abs(am) * (am - zm) / (1 - mpmath.conj(am) * zm)) ** m
            phi = (c - zm) / (1 - mpmath.conj(c) * zm)
            checks = [("evaluate", values[i], val), ("map", maps[i], phi),
                      ("map, scalar", moebius(zs[0], z), phi)]
            for name, got, want in checks:
                assert abs(got - want) <= 1e-14 * abs(want), (name, z)


def test_separation_report():
    rep = separation_report(BlaschkeProduct(FiniteSequence([0.0, 0.5])))
    assert rep.delta == pytest.approx(0.5)
    assert rep.discreteness == pytest.approx(0.5)
    assert separation_report(BlaschkeProduct(FiniteSequence([0.3]))).delta == 1.0
    rep2 = separation_report(BlaschkeProduct(FiniteSequence([0.3, 0.5], [2, 1])))
    assert rep2.delta == 0.0
    assert rep2.discreteness == 0.0
    with pytest.raises(InvariantViolation):
        separation_report(BlaschkeProduct(FiniteSequence([])))


# per_point against (1 - |z_j|^2)|B'(z_j)| read 2.2e-15 relative at worst
DERIVATIVE_FORM_TOL = 1e-14


def test_delta_below_discreteness():
    # delta' = min (1 - |z_j|^2)|B'(z_j)| by another route: B' as the
    # Cauchy-circle mean of evaluate (the complex factors) on 128 nodes of
    # radius 0.1 (1 - |z_j|), against the kernel's deleted products
    ring = np.exp(2j * np.pi * np.arange(128) / 128)
    for seed in range(4):
        s = random_sequence(seed)
        b = BlaschkeProduct(s)
        rep = separation_report(b)
        assert rep.delta <= rep.discreteness + 1e-15
        zs = s.zs
        r = 0.1 * (1.0 - np.abs(zs))
        db = (evaluate(b, zs[:, None] + r[:, None] * ring) * ring.conj()).mean(axis=1) / r
        derivative_form = (1.0 - np.abs(zs) ** 2) * np.abs(db)
        assert np.allclose(rep.per_point, derivative_form, rtol=DERIVATIVE_FORM_TOL, atol=0)


def test_local_zero_count():
    b = BlaschkeProduct(FiniteSequence([0.0, 0.1]))
    assert local_zero_count(b, 0.0, 0.5) == 2
    assert local_zero_count(b, -0.9, 0.3) == 0
    ce = gen_escalating_multiplicity(5)
    bce = BlaschkeProduct(ce)
    assert local_zero_count(bce, ce.zs[-1], 0.5) >= 5
    with pytest.raises(ValueError):
        local_zero_count(b, 0.0, 1.5)


def test_max_local_count():
    b = BlaschkeProduct(FiniteSequence([0.0, 0.1, 0.2]))
    assert max_local_count(b, 0.5) == 3
    spread = BlaschkeProduct(FiniteSequence([0.0, 0.9, -0.9]))
    assert max_local_count(spread, 0.3) == 1
    assert max_local_count(BlaschkeProduct(FiniteSequence([])), 0.5) == 0
    for n in (3, 6):
        assert max_local_count(BlaschkeProduct(gen_escalating_multiplicity(n)), 0.5) >= n


def test_partition_separated():
    s = FiniteSequence([0, 0.1, 0.9])
    parts = partition_separated(s, 0.5)
    assert [sorted(q.zs.real.tolist()) for q in parts] == [[0, 0.9], [0.1]]
    one = partition_separated(FiniteSequence([0, 0.9]), 0.5)
    assert len(one) == 1
    with pytest.raises(InvariantViolation, match="inseparable"):
        partition_separated(FiniteSequence([0.5], [2]), 0.5)
    with pytest.raises(ValueError):
        partition_separated(s, 1.2)


def test_partition_properties():
    for seed in (0, 3):
        s = gen_union(3, gen_radial_geometric(0.5, 8), seed)
        for sep in (0.3, 0.5):
            parts = partition_separated(s, sep)
            all_pts = sorted((z.real, z.imag) for q in parts for z in q.zs)
            assert all_pts == sorted((z.real, z.imag) for z in s.zs)
            for q in parts:
                if len(q) > 1:
                    d = psh_distance_pairwise(q.zs, q.zs)
                    assert d[~np.eye(len(q), dtype=bool)].min() > sep
            assert len(parts) <= max_local_count(BlaschkeProduct(s), sep)


def test_compose_probe():
    assert compose_min_on_compact(
        BlaschkeProduct(FiniteSequence([0.3])), 0.3
    ) == pytest.approx(0.5, rel=1e-10)
    ce = gen_escalating_multiplicity(6)
    b = BlaschkeProduct(ce)
    vals = [compose_min_on_compact(b, z) for z in ce.zs]
    for n, v in enumerate(vals, start=1):
        assert v <= 0.5**n + 1e-9
    # decay along the truncation family: each level's own product probed at
    # its deepest point
    level_vals = [
        compose_min_on_compact(BlaschkeProduct(gen_escalating_multiplicity(n)),
                               1.0 - 0.25**n)
        for n in range(1, 7)
    ]
    assert all(b2 < a2 for a2, b2 in zip(level_vals, level_vals[1:]))


def test_moebius_covariance():
    b = BlaschkeProduct(random_sequence(21, n=6, r_max=0.7))
    c = 0.35 - 0.2j
    transformed = BlaschkeProduct(FiniteSequence(moebius(c, b.zeros.zs)))
    rng = np.random.default_rng(4)
    z = rng.uniform(0, 0.9, 100) * np.exp(1j * rng.uniform(0, 2 * np.pi, 100))
    lhs = np.abs(evaluate(b, moebius(c, z)))
    rhs = np.abs(evaluate(transformed, z))
    assert np.allclose(lhs, rhs, atol=1e-10)


def reference_product(zeros, mults, z):
    """Plain per-zero loop over the factors (conj(a)/|a|)(a - z)/(1 - conj(a) z)."""
    out = np.ones_like(z)
    for a, m in zip(zeros, mults):
        f = z if a == 0 else (a.conjugate() / abs(a)) * (a - z) / (1.0 - a.conjugate() * z)
        out = out * f**m
    return out


@pytest.mark.parametrize("zeros, mults", [
    ([0.0, 0.5 + 0.2j, -0.3j, 0.9 - 0.3j], [1, 1, 1, 1]),  # a zero at the origin
    ([0.4 - 0.1j, 0.0, -0.6 + 0.5j], [3, 2, 1]),           # multiplicities
    ([], []),                                               # the empty product
    ([0.1 + 0.2j, -0.5, 0.7j, 0.3 - 0.6j, -0.2 - 0.2j, 0.85, -0.6 + 0.6j],
     [1, 2, 1, 1, 3, 1, 1]),                                # a short last row tile
])
@pytest.mark.parametrize("block", [disk._BLOCK, 5])
def test_evaluate_matches_reference_loop(monkeypatch, zeros, mults, block):
    monkeypatch.setattr(disk, "_BLOCK", block)  # 5 tiles both axes or rows
    b = BlaschkeProduct(FiniteSequence(zeros, mults))
    rng = np.random.default_rng(8)
    z = rng.uniform(0, 0.97, (6, 7)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (6, 7)))
    want = reference_product(b.zeros.zs, b.zeros.mults, z)
    got = evaluate(b, z)
    assert got.shape == z.shape
    assert (np.abs(got - want) <= 1e-13 * np.abs(want)).all()
    logs = log_abs_evaluate(b, z)
    assert logs.shape == z.shape
    assert (np.abs(np.exp(logs) - np.abs(want)) <= 1e-13 * np.abs(want)).all()
    w = complex(z[2, 3])
    assert isinstance(evaluate(b, w), complex)
    assert isinstance(log_abs_evaluate(b, w), float)
    assert abs(evaluate(b, w) - want[2, 3]) <= 1e-13 * abs(want[2, 3])
    for a in b.zeros.zs:  # on a zero: 0 and -inf, for scalars and arrays
        assert evaluate(b, a) == 0
        assert log_abs_evaluate(b, a) == -np.inf
        assert log_abs_evaluate(b, np.array([a, 0.1]))[0] == -np.inf


def test_evaluate_many_zeros_matches_reference_loop():
    s = random_sequence(12, n=60, r_max=0.99)
    b = BlaschkeProduct(s)
    rng = np.random.default_rng(5)
    z = rng.uniform(0, 0.99, 1500) * np.exp(1j * rng.uniform(0, 2 * np.pi, 1500))
    want = reference_product(s.zs, s.mults, z)  # 60 x 1500 spans several tiles
    assert np.allclose(evaluate(b, z), want, rtol=1e-13, atol=0)
    assert np.allclose(np.exp(log_abs_evaluate(b, z)), np.abs(want), rtol=1e-13, atol=0)


@pytest.mark.parametrize("s", [random_sequence(4, n=23), gen_escalating_multiplicity(6)])
def test_separation_report_tiles_match_single_tile(monkeypatch, s):
    whole = separation_report(BlaschkeProduct(s))
    # 5-element tiles, the last row tile short
    monkeypatch.setattr(disk, "_BLOCK", 5)
    tiled = separation_report(BlaschkeProduct(s))
    assert np.allclose(tiled.per_point, whole.per_point, rtol=1e-13, atol=0)
    assert tiled.delta == pytest.approx(whole.delta, rel=1e-13)
    assert tiled.discreteness == whole.discreteness


def test_separation_per_point_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    for theta in (0.0, 1.0):
        s = gen_radial_geometric(0.5, 46, (theta, theta + np.pi))
        rep = separation_report(BlaschkeProduct(s))
        pts = [(mpmath.mpf(z.real), mpmath.mpf(z.imag)) for z in s.zs]
        with mpmath.workdps(60):
            for j, (xr, xi) in enumerate(pts):
                prod = mpmath.mpf(1)
                for k, (ar, ai) in enumerate(pts):
                    if k != j:
                        dr, di = ar - xr, ai - xi
                        cr, ci = 1 - (ar * xr + ai * xi), ar * xi - ai * xr
                        prod *= (dr * dr + di * di) / (cr * cr + ci * ci)
                exact = mpmath.sqrt(prod)
                assert 1 - abs(s.zs[j]) >= BOUNDARY_FLOOR
                assert abs(rep.per_point[j] - exact) <= 1e-12 * exact
        assert rep.delta == rep.per_point.min()


def mp_log_abs_composed(mpmath, zs, mults, c, w):
    """log|B(phi_c(w))| at 50 digits: phi_c(w) formed in complex arithmetic,
    then each factor's rho^2 in real arithmetic."""
    with mpmath.workdps(50):
        c, w = mpmath.mpc(c), mpmath.mpc(w)
        z = (c - w) / (1 - mpmath.conj(c) * w)
        zr, zi = z.real, z.imag
        prod = mpmath.mpf(1)
        for a, m in zip(zs, mults):
            ar, ai = mpmath.mpf(a.real), mpmath.mpf(a.imag)
            dr, di = ar - zr, ai - zi
            cr, ci = 1 - (ar * zr + ai * zi), ar * zi - ai * zr
            prod *= ((dr * dr + di * di) / (cr * cr + ci * ci)) ** int(m)
        return mpmath.log(prod) / 2


DEEP = {
    "radial rays 0,pi": lambda: gen_radial_geometric(0.5, 46, (0.0, np.pi)),
    "radial rays 1,1+pi": lambda: gen_radial_geometric(0.5, 46, (1.0, 1.0 + np.pi)),
    "escalating n_max=12 split": lambda: gen_escalating_multiplicity(12, split=True),
}


@pytest.mark.parametrize("name", list(DEEP))
def test_log_abs_composed_against_mpmath(name):
    # the recentred probes' integrand at their two deepest centres (depth
    # 2.8e-14 on the rays), on nodes of the analysis grid out to its last ring
    mpmath = pytest.importorskip("mpmath")
    s = DEEP[name]()
    b = BlaschkeProduct(s)
    centers = sorted(s.zs, key=lambda z: -abs(z))[:2]
    radii = analysis_grid().radii
    rng = np.random.default_rng(3)
    nodes = (radii[np.linspace(0, len(radii) - 1, 12).astype(int)]
             * np.exp(2j * np.pi * rng.uniform(size=12)))
    got = log_abs_composed(b, centers, nodes)
    assert got.shape == (2, 12)
    for k, c in enumerate(centers):
        want = np.array([float(mp_log_abs_composed(mpmath, s.zs, s.mults, c, w))
                         for w in nodes])
        assert np.abs(got[k] - want).max() <= 1e-13


def analysis_blocks() -> list:
    """The node blocks that area_integral passes to its integrand on the
    analysis grid."""
    blocks = []
    area_integral(lambda z: blocks.append(z.copy()) or np.zeros(len(z)), analysis_grid())
    return blocks


def direct_rows(b, moved, z) -> np.ndarray:
    pts = disk._coords(z)
    return np.array([0.5 * blaschke._pair_sum(coords, b._table[0], pts, disk._log_rho2)
                     for coords in moved])


TREE_INPUTS = {
    "random-carleson n=200": lambda: gen_random_carleson(11, 200, 4.0),
    **DEEP,
}


@pytest.mark.parametrize("name", list(TREE_INPUTS))
def test_tree_matches_direct_kernel(name):
    # the recentred probes' rows at the four deepest centres, on both node
    # blocks of the analysis grid (32,762 nodes from 0 to 1 - r = 8.1e-5,
    # then 3,584 from 2.9e-5 on to 2.1e-8): far zeros by local expansion,
    # near ones direct, and boxes most zeros are near by the plain kernel
    s = TREE_INPUTS[name]()
    b = BlaschkeProduct(s)
    assert len(s) >= blaschke._TREE_ZEROS
    moved = blaschke._moved_zeros(b, sorted(s.zs, key=lambda z: -abs(z))[:4])
    blocks = analysis_blocks()
    assert min(len(z) for z in blocks) >= blaschke._TREE_POINTS
    for z in blocks:
        got = blaschke._log_abs_moved(b, moved, z)
        assert np.abs(got - direct_rows(b, moved, z)).max() <= 1e-13


def test_tree_near_and_far_boxes_against_mpmath():
    # the deepest centre of the rays at 0 and pi (depth 2.8e-14) moves the
    # zeros down to depth 2e-28; nodes of the second block (1 - r from
    # 2.1e-8 to 2.9e-5, 6 of its 28 boxes with near zeros, all six taken
    # by the plain kernel) in a box with near zeros and in one with none
    mpmath = pytest.importorskip("mpmath")
    s = DEEP["radial rays 0,pi"]()
    b = BlaschkeProduct(s)
    c = s.zs[np.argmax(np.abs(s.zs))]
    moved = blaschke._moved_zeros(b, [c])[0]
    z = analysis_blocks()[1]
    boxes = blaschke._Boxes(z)
    tree, _, _, near = boxes._expansions(moved, b._table[0])
    plain = np.setdiff1d(np.arange(len(boxes.centers)), tree)
    far_box = np.setdiff1d(tree, near[:, 1])[0]
    assert plain.size and boxes.radii[far_box] > 0
    picks = np.concatenate([boxes.order[plain[0], ::43], boxes.order[far_box, ::43]])
    got = blaschke._log_abs_moved(b, [moved], z)[0, picks]
    want = np.array([float(mp_log_abs_composed(mpmath, s.zs, s.mults, c, w)) for w in z[picks]])
    assert np.abs(got - want).max() <= 1e-13


def test_tree_box_most_zeros_are_near_takes_the_plain_kernel():
    # on the first block of the analysis grid at the deepest centre of the
    # n = 200 cloud, 48 of its 256 boxes have at least half of the zeros
    # near (2 near >= n), 9,590 of the 9,621 near pairs: they get no
    # expansion column and no near pair, and their slots come from the
    # direct kernel over all zeros, taken on those boxes' slots in one call
    # (BLAS's sums depend on the tile width), with nothing else added.
    # The copies of one point that pad the last box may differ in the last
    # bit, and one of them is kept: that box is left out
    s = TREE_INPUTS["random-carleson n=200"]()
    b = BlaschkeProduct(s)
    mults = b._table[0]
    c = s.zs[np.argmax(np.abs(s.zs))]
    # the moved zeros of a batch of centres are disk.moebius's, bit for
    # bit, and their depths dc da / (|c - a|^2 + dc da)
    centers = np.concatenate([[0.0, c, 0.3 - 0.9j], s.zs[:40]])
    batch = blaschke._moved_zeros(b, centers)
    da = disk._one_minus_abs2(s.zs)
    for ck, (re, im, depth) in zip(centers.tolist(), batch):
        phi = moebius(ck, s.zs)
        d = ck - s.zs
        q = float(disk._one_minus_abs2(ck)) * da
        assert np.array_equal(re, phi.real) and np.array_equal(im, phi.imag)
        assert np.array_equal(depth, q / (d.real**2 + d.imag**2 + q))
    moved = batch[1]
    z = analysis_blocks()[0]
    boxes = blaschke._Boxes(z)
    # near by the definition: a zero a is far from a box (t, R) when R/|a - t| < _FAR
    with np.errstate(divide="ignore"):
        x = boxes.radii / ((moved[0] + 1j * moved[1])[:, None] - boxes.centers)
    plain = np.flatnonzero(2 * np.count_nonzero(~(np.abs(x) < blaschke._FAR), axis=0) >= len(s))
    assert plain.size == 48
    tree, coef, half, near = boxes._expansions(moved, mults)
    assert np.array_equal(tree, np.setdiff1d(np.arange(len(boxes.centers)), plain))
    assert coef.shape == (blaschke._ORDER, len(tree)) and half.shape == (len(tree),)
    assert len(near) == 9621 - 9590 and np.isin(near[:, 1], tree).all()
    want = 0.5 * blaschke._pair_sum(moved, mults, boxes.coords[:, plain].reshape(3, -1),
                                    disk._log_rho2)
    got = blaschke._log_abs_moved(b, [moved], z)[0]
    whole = plain < len(z) // blaschke._BOX
    assert np.array_equal(got[boxes.order[plain[whole]]], want.reshape(-1, blaschke._BOX)[whole])


def test_tree_at_a_moved_zero_is_minus_inf_without_warnings():
    s = random_sequence(7, n=30, r_max=0.9)
    b = BlaschkeProduct(s)
    rng = np.random.default_rng(2)
    w = rng.uniform(0, 0.99, 4096) * np.exp(1j * rng.uniform(0, 2 * np.pi, 4096))
    w[100] = -s.zs[5]  # phi_0 moves zero a to -a
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = log_abs_composed(b, [0.0], w)[0]
    assert got[100] == -np.inf
    rest = np.arange(len(w)) != 100
    assert np.isfinite(got[rest]).all()
    want = direct_rows(b, blaschke._moved_zeros(b, [0.0]), w)[0]
    assert np.abs(got[rest] - want[rest]).max() <= 1e-13


@pytest.mark.parametrize("n, points", [(15, 4096), (30, 2047)])
def test_below_crossover_is_the_direct_kernel(n, points):
    s = random_sequence(9, n=n, r_max=0.95)
    b = BlaschkeProduct(s)
    assert n < blaschke._TREE_ZEROS or points < blaschke._TREE_POINTS
    rng = np.random.default_rng(4)
    w = rng.uniform(0, 0.999, points) * np.exp(1j * rng.uniform(0, 2 * np.pi, points))
    moved = blaschke._moved_zeros(b, [0.0, s.zs[0], 0.3 - 0.9j])
    assert np.array_equal(blaschke._log_abs_moved(b, moved, w), direct_rows(b, moved, w))


@pytest.mark.parametrize("theta", [0.0, 1.0])
def test_compose_probe_at_deepest_zero_against_mpmath(theta):
    mpmath = pytest.importorskip("mpmath")
    s = gen_radial_geometric(0.5, 46, (theta, theta + np.pi))
    c = s.zs[np.argmax(np.abs(s.zs))]
    circle = 0.5 * np.exp(1j * (2.0 * np.pi * np.arange(512) / 512))  # the probe's own samples
    want = float(mpmath.exp(max(mp_log_abs_composed(mpmath, s.zs, s.mults, c, w)
                                for w in circle)))
    got = compose_min_on_compact(BlaschkeProduct(s), c)
    assert abs(got - want) <= 1e-13 * want


FLOOR_RING = (1.0 - 1.1e-14) * np.exp(2j * np.pi * np.arange(7) / 7)
SEARCH_INPUTS = {
    "random-carleson n=40": lambda: gen_random_carleson(11, 40, 4.0),
    "random-carleson n=200": lambda: gen_random_carleson(11, 200, 4.0),
    "radial rays 0,pi": DEEP["radial rays 0,pi"],
    "radial rays 1,1+pi": DEEP["radial rays 1,1+pi"],
    "escalating n_max=8 split": lambda: gen_escalating_multiplicity(8, split=True),
    "escalating n_max=12 split": DEEP["escalating n_max=12 split"],
    "single zero": lambda: FiniteSequence([0.3 + 0.1j]),
    # every centre ties
    "24 zeros on |z|=0.9": lambda: FiniteSequence(
        0.9 * np.exp(2j * np.pi * np.arange(24) / 24)),
    # at centre 0 the zero -1/2 moves onto the sample 1/2: the minimum is 0
    "a sample on a moved zero": lambda: FiniteSequence([0.0, -0.5]),
    "a triple zero": lambda: FiniteSequence([0.3 - 0.4j], [3]),
    "seven zeros at 1 - |z| = 1.1e-14": lambda: FiniteSequence(FLOOR_RING),
    "seven zeros at 1 - |z| = 1.1e-14 and 0.5": lambda: FiniteSequence([*FLOOR_RING, 0.5]),
}


@pytest.mark.parametrize("name", list(SEARCH_INPUTS))
def test_pruned_probe_is_the_exhaustive_minimum(name):
    s = SEARCH_INPUTS[name]()
    b = BlaschkeProduct(s)
    assert blaschke._least_compose_max(b, s.zs) == exhaustive_nonzero_probe(b, s.zs)


BENCH_INPUTS = {
    "random-carleson n=200": lambda: gen_random_carleson(11, 200, 4.0),
    "escalating n_max=8": lambda: gen_escalating_multiplicity(8),
    "escalating n_max=12": lambda: gen_escalating_multiplicity(12),
    "escalating n_max=8 split": lambda: gen_escalating_multiplicity(8, split=True),
    **DEEP,
}


@pytest.mark.parametrize("name", list(BENCH_INPUTS))
def test_probe_bounds_lie_below_the_full_values(name):
    s = BENCH_INPUTS[name]()
    b = BlaschkeProduct(s)
    bounds = blaschke._probe_bounds(b, s.zs)
    full = np.array([compose_min_on_compact(b, z) for z in s.zs])
    assert (np.exp(bounds) <= full).all()


@pytest.mark.parametrize("name", list({**BENCH_INPUTS, **SEARCH_INPUTS}))
def test_jensen_bounds_lie_below_the_full_values(name):
    # the closed-form mean over the probe's own nodes, with its slack, lies
    # below the computed max at every zero and at 0; at a centre on a lone
    # or multiple zero the mean is the max, and at "a sample on a moved
    # zero" the bound is -inf
    s = {**BENCH_INPUTS, **SEARCH_INPUTS}[name]()
    b = BlaschkeProduct(s)
    centers = np.concatenate([s.zs, [0.0]])
    bounds = blaschke._jensen_bounds(b, centers)
    full = np.array([compose_min_on_compact(b, c) for c in centers])
    assert (np.exp(bounds) <= full).all()
    if name == "a sample on a moved zero":
        assert bounds[-1] == -np.inf


@pytest.mark.parametrize("name", [*BENCH_INPUTS, "random-carleson n=800"])
def test_max_local_count_against_oracle_on_bench_inputs(name):
    # the count alone, from 1 - rho^2 > 1 - r^2, at the radius of analyze
    # and of the benchmark's partitions
    s = BENCH_INPUTS[name]() if name in BENCH_INPUTS else gen_random_carleson(11, 800, 4.0)
    b = BlaschkeProduct(s)
    assert max_local_count(b, 0.5) == max(local_zero_count(b, z, 0.5) for z in s.zs)


def test_pruned_probe_evaluates_few_centres(monkeypatch):
    s = gen_random_carleson(11, 200, 4.0)
    calls = []
    full = blaschke.compose_min_on_compact
    monkeypatch.setattr(blaschke, "compose_min_on_compact",
                        lambda *args: calls.append(args) or full(*args))
    blaschke._least_compose_max(BlaschkeProduct(s), s.zs)
    assert 1 <= len(calls) <= 5


@pytest.mark.parametrize("name, full", [
    # the split family's points of one level tie in their Jensen means to
    # 4e-7; the least probe bound among them is the winner
    ("escalating n_max=8 split", 1),
    ("escalating n_max=12 split", 3),
    # the bounds of 39 centres lie below the winner's value: the ordered
    # search evaluates them in five batches
    ("radial rays 1,1+pi", 40),
])
def test_pruned_probe_takes_the_winner_first(monkeypatch, name, full):
    s = SEARCH_INPUTS[name]()
    b = BlaschkeProduct(s)
    evaluated = []
    rows = blaschke._composed_max
    monkeypatch.setattr(blaschke, "_composed_max",
                        lambda b, centers: evaluated.extend(centers) or rows(b, centers))
    got = blaschke._least_compose_max(b, s.zs)
    assert len(evaluated) == full
    assert compose_min_on_compact(b, evaluated[0]) == got


# ref / printed - 1 read 1.1e-7, 2.6e-5 and 1.1e-7 on these inputs
NONZERO_TOL = 1e-4
ORACLE_INPUTS = {
    "random-carleson n=40": lambda: gen_random_carleson(11, 40, 4.0),
    "escalating n_max=4": lambda: gen_escalating_multiplicity(4),
    "radial q=1/2 n=20 rays 0,2": lambda: gen_radial_geometric(0.5, 20, (0.0, 2.0)),
}


@pytest.mark.parametrize("name", list(ORACLE_INPUTS))
def test_nonzero_probe_against_a_finer_circle(name):
    # the printed probe is a max over 512 samples, so it may only lie below
    # the max over 32,768 samples of the same circle
    mpmath = pytest.importorskip("mpmath")
    s = ORACLE_INPUTS[name]()
    b = BlaschkeProduct(s)
    got = analyze_sequence(s).nonzero_probe
    want = float(np.exp(min(dense_composed_log_max(b, c) for c in s.zs)))
    assert got <= want <= got * (1.0 + NONZERO_TOL)
    # |B o phi_c| at the winning centre and sample, at 50 digits
    c = s.zs[np.argmin([compose_min_on_compact(b, z) for z in s.zs])]
    circle = blaschke._circle(0.5, blaschke._PROBE_GRID)
    w = circle[np.argmax(log_abs_composed(b, [c], circle)[0])]
    exact = float(mpmath.exp(mp_log_abs_composed(mpmath, s.zs, s.mults, c, w)))
    assert abs(got - exact) <= 2e-15 * exact


def test_greedy_partition_matches_reference_loop():
    seqs = [random_sequence(seed, n=40) for seed in range(3)]
    seqs.append(gen_union(3, gen_radial_geometric(0.5, 8), 1))
    for s in seqs:
        for sep in (0.3, 0.5):
            got = [list(q.zs) for q in partition_separated(s, sep)]
            assert got == [list(s.zs[p]) for p in reference_greedy(s.zs, sep)]
    repeated = gen_escalating_multiplicity(5)
    expanded = np.repeat(repeated.zs, repeated.mults)
    for sep in (0.3, 0.5):
        parts = reference_greedy(expanded, sep)
        part_delta = min(separation_report(BlaschkeProduct(FiniteSequence(expanded[p]))).delta
                         for p in parts)
        assert union_separation(repeated, sep) == (len(parts), part_delta)


def test_union_separation_reads_only_the_listed_points(monkeypatch):
    # a point of multiplicity 10,000 next to a simple one: the greedy and
    # the per-part reports see two points, never the expanded sequence, and
    # part_delta reads as it did with the expanded greedy (8/19 within an ulp)
    shapes = []
    kernel = blaschke._log_rho2

    def recording(a, z):
        shapes.append((a.shape[1], z.shape[-1]))
        return kernel(a, z)

    monkeypatch.setattr(blaschke, "_log_rho2", recording)
    assert union_separation(FiniteSequence([0.5, 0.1], [10_000, 1])) == (10_000, 0.4210526315789474)
    assert shapes and max(max(shape) for shape in shapes) <= 2


def test_each_pass_forms_only_what_its_caller_reads(monkeypatch):
    # separation_report forms log rho^2 alone; the transformed mass and the
    # local count form 1 - rho^2 alone, with no logarithm
    calls = []
    for name in ("_log_rho2", "_one_minus_rho2"):
        def recording(a, z, name=name, kernel=getattr(disk, name)):
            calls.append(name)
            return kernel(a, z)

        for module in (blaschke, carleson):
            monkeypatch.setattr(module, name, recording, raising=False)
    s = gen_random_carleson(11, 200, 4.0)
    b = BlaschkeProduct(s)
    separation_report(b)
    assert calls and set(calls) == {"_log_rho2"}
    calls.clear()
    uniform_blaschke_sup(s, s.zs)
    max_local_count(b, 0.5)
    assert calls and set(calls) == {"_one_minus_rho2"}


# measured against exact_pair_keys: delta 7.3e-16, discreteness 2.5e-17,
# blaschke_sup 1.5e-16 and part_delta 2.0e-16 relative at worst;
# max_count_half matched exactly
PAIR_KEY_TOL = {"delta": 3e-15, "discreteness": 1e-16, "blaschke_sup": 1e-15,
                "part_delta": 1e-15, "max_count_half": 0}


@pytest.mark.parametrize("name", list(ORACLE_INPUTS))
def test_pair_keys_against_exact_table(name):
    mpmath = pytest.importorskip("mpmath")
    s = ORACLE_INPUTS[name]()
    rep = analyze_sequence(s)
    with mpmath.workdps(50):
        for key, want in exact_pair_keys(s).items():
            got = getattr(rep, key)
            assert abs(got - want) <= PAIR_KEY_TOL[key] * want, key
