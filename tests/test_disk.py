import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blaschke_lab import disk
from blaschke_lab.blaschke import BlaschkeProduct, separation_report
from blaschke_lab.disk import (
    BOUNDARY_FLOOR,
    FiniteSequence,
    InvariantViolation,
    hyperbolic_grid,
    moebius,
    psh_distance,
    psh_distance_pairwise,
)
from blaschke_lab.generators import gen_escalating_multiplicity, gen_radial_geometric
from oracles import moebius_jacobian, reference_hyperbolic_grid


def disk_points(max_r=0.999):
    return st.builds(
        lambda r, t: complex(r * np.cos(t), r * np.sin(t)),
        st.floats(0, max_r),
        st.floats(0, 2 * np.pi),
    )


def test_distance_examples():
    assert psh_distance(0.0, 0.3 + 0.4j) == pytest.approx(0.5)
    assert psh_distance(0.5, 0.5) == 0.0
    assert psh_distance(0.3, 0.7) == pytest.approx(0.4 / 0.79)


@pytest.mark.parametrize("name", ["rays-1", "rays-0", "split-escalating-12"])
def test_pairwise_distance_against_mpmath(name):
    # the naive |(z - w) / (1 - conj(w) z)| read 6.9e-4, 1.8e-9 and 2.0e-12
    # off on these inputs: 1 - conj(w) z cancels near the circle
    mpmath = pytest.importorskip("mpmath")
    zs = {
        "rays-1": lambda: gen_radial_geometric(0.5, 46, (1.0, 1.0 + np.pi)),
        "rays-0": lambda: gen_radial_geometric(0.5, 46, (0.0, np.pi)),
        "split-escalating-12": lambda: gen_escalating_multiplicity(12, split=True),
    }[name]().zs
    got = psh_distance_pairwise(zs, zs)
    with mpmath.workdps(50):
        x = [mpmath.mpf(z.real) for z in zs]
        y = [mpmath.mpf(z.imag) for z in zs]
        depth = [1 - a * a - b * b for a, b in zip(x, y)]
        worst = 0.0
        for i in range(len(zs)):
            for j in range(i + 1, len(zs)):
                d2 = (x[i] - x[j]) ** 2 + (y[i] - y[j]) ** 2
                want = mpmath.sqrt(d2 / (d2 + depth[i] * depth[j]))
                worst = max(worst, abs(float(want - got[i, j])), abs(float(want - got[j, i])))
    assert (np.diagonal(got) == 0.0).all()
    assert worst <= 1e-15


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a, z", [(1e-160, 3e-160), (1e-170, 3e-170), (3e-200 - 1e-200j, 0.0)])
def test_distance_of_subnormal_square_against_mpmath(a, z):
    # |a - z|^2 underflows: the kernel read -inf, with an overflow warning
    # at 1e-160, and 0 for psh_distance
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        ma, mz = mpmath.mpc(a), mpmath.mpc(z)
        want = mpmath.log(abs(ma - mz) ** 2 / abs(1 - mpmath.conj(ma) * mz) ** 2)
    pts = [np.array([v], dtype=complex) for v in (a, z)]
    got = float(disk._log_rho2(disk._coords(pts[0]), disk._coords(pts[1]))[0, 0])
    assert abs(got - float(want)) <= 1e-15 * abs(float(want))
    assert psh_distance(a, z) == pytest.approx(float(mpmath.exp(want / 2)), rel=1e-15)
    rep = separation_report(BlaschkeProduct(FiniteSequence([a, z, 0.5])))
    assert rep.discreteness == pytest.approx(float(mpmath.exp(want / 2)), rel=1e-15)
    assert rep.delta > 0.0
    coincident = disk._coords(np.array([a, a], dtype=complex))
    assert disk._log_rho2(coincident[:, :1], coincident)[0].tolist() == [-np.inf, -np.inf]


def test_moebius_examples():
    assert moebius(0.5, 0.5) == pytest.approx(0.0)
    assert moebius(0.5, 0.0) == pytest.approx(0.5)
    assert moebius(0.5, 0.25) == pytest.approx(0.25 / 0.875)


def fd_jacobian(c, w, h=1e-5):
    """The Jacobian determinant of w -> moebius(c, w) by central differences."""
    du = (moebius(c, w + h) - moebius(c, w - h)) / (2 * h)
    dv = (moebius(c, w + 1j * h) - moebius(c, w - 1j * h)) / (2 * h)
    return du.real * dv.imag - du.imag * dv.real


def test_jacobian_examples():
    # |phi_0'|^2 = 1 and |phi_(1/2)'(0)|^2 = (1 - 1/4)^2
    assert fd_jacobian(0.0, 0.3 + 0.1j) == pytest.approx(1.0)
    assert fd_jacobian(0.5, 0.0) == pytest.approx(0.5625)


@given(disk_points(), disk_points())
def test_metric_symmetry(z, w):
    assert psh_distance(z, w) == pytest.approx(psh_distance(w, z), abs=1e-15)


@given(disk_points(0.99), disk_points(0.99), disk_points(0.99))
def test_metric_triangle(z, w, v):
    assert psh_distance(z, w) <= psh_distance(z, v) + psh_distance(v, w) + 1e-12


@given(disk_points(0.999), disk_points(0.999))
def test_involution(z, c):
    assert abs(moebius(c, moebius(c, z)) - z) <= 1e-12


@given(disk_points(0.99), disk_points(0.99), disk_points(0.99))
def test_moebius_invariance(z, w, c):
    assert abs(psh_distance(moebius(c, z), moebius(c, w)) - psh_distance(z, w)) <= 1e-12


@settings(max_examples=30)
@given(disk_points(0.95), disk_points(0.9))
def test_jacobian_matches_finite_differences(c, w):
    assert fd_jacobian(c, w) == pytest.approx(moebius_jacobian(c, w), rel=1e-6)


def test_diameter():
    # the diameter of a point set is the largest entry of its distance matrix
    for zs, want in (([0.3], 0.0), ([0, 0.5], 0.5), ([0, 0.3, 0.7], 0.7)):
        pts = np.array(zs, dtype=complex)
        assert psh_distance_pairwise(pts, pts).max() == pytest.approx(want)


def test_point_invariants():
    # points are checked for finiteness and against the floor
    with pytest.raises(InvariantViolation):
        FiniteSequence([1.0])
    with pytest.raises(InvariantViolation, match="too close"):
        FiniteSequence([1.0 - BOUNDARY_FLOOR / 2])
    with pytest.raises(InvariantViolation, match="finite"):
        FiniteSequence([complex(float("nan"), 0.0)])
    s = FiniteSequence([np.complex128(1.0 - 2e-14)])  # just inside the floor
    assert s.zs.tolist() == [1.0 - 2e-14]


def test_sequence_invariants():
    with pytest.raises(InvariantViolation, match="duplicate"):
        FiniteSequence([0.5, 0.5])
    with pytest.raises(InvariantViolation, match="positive integer"):
        FiniteSequence([0.5], [0])
    with pytest.raises(InvariantViolation, match="parallel"):
        FiniteSequence([0.5], [1, 2])
    s = FiniteSequence([0.5, 0.2j], [2, 1])
    assert s.total_count == 3
    assert not s.is_simple()
    assert FiniteSequence([]).total_count == 0


def test_sequence_floor_is_the_scalar_test():
    # at 1 - |z| = BOUNDARY_FLOOR numpy's vectorised modulus and Python's
    # abs disagree in the last bit on some points; the constructor accepts
    # exactly the points inside_floor accepts
    floor = 1.0 - BOUNDARY_FLOOR
    radii = floor + np.arange(-3, 4)[:, None] * np.spacing(floor)
    theta = 2 * np.pi * np.random.default_rng(0).random((7, 300))
    zs = (radii * np.exp(1j * theta)).ravel().tolist()
    inside = [disk.inside_floor(z) for z in zs]
    disagree = [z for z, ok in zip(zs, inside) if (np.abs(z) < floor) != ok]
    if not disagree:
        pytest.skip("numpy's modulus agrees with abs on every sample here")
    for z in disagree:
        if disk.inside_floor(z):
            FiniteSequence([z])
        else:
            with pytest.raises(InvariantViolation, match="too close"):
                FiniteSequence([z])
    kept = [z for z, ok in zip(zs, inside) if ok]
    assert FiniteSequence(kept).zs.tolist() == kept


def test_sequence_arrays_are_read_only_copies():
    src = np.array([0.5, 0.2j])
    s = FiniteSequence(src, [2, 1])
    src[0] = 0.9
    assert s.zs.tolist() == [0.5, 0.2j]
    assert s.zs.dtype == np.complex128 and s.mults.dtype == np.int64
    with pytest.raises(ValueError):
        s.zs[0] = 0.1
    with pytest.raises(ValueError):
        s.mults[0] = 5
    assert FiniteSequence([0.5, 0.2j]).mults.tolist() == [1, 1]


def test_total_count_is_exact_near_int64_limit():
    s = FiniteSequence([0.1, 0.2], [2**62 + 7, 2**62 - 9])
    assert s.total_count == 2**63 - 2 and type(s.total_count) is int
    with pytest.raises(InvariantViolation, match="total multiplicity"):
        FiniteSequence([0.1, 0.2], [2**62, 2**62])
    with pytest.raises(InvariantViolation, match="int64"):
        FiniteSequence([0.1], [2**63])


def test_hyperbolic_grid():
    g = hyperbolic_grid(0.9, 0.3)
    assert (np.abs(g) <= 0.9 + 1e-12).all()
    assert len(g) > 10
    with pytest.raises(ValueError):
        hyperbolic_grid(0.9, 1.5)


@settings(max_examples=150, deadline=None)
@given(st.floats(0.0, 1.0 - 1e-14), st.floats(0.05, 0.95))
def test_hyperbolic_grid_is_the_ring_loop(r_max, pitch):
    # the prefix of the pitch's one capped grid is the loop that stopped at
    # the first ring past r_max, array for array
    want = reference_hyperbolic_grid(r_max, pitch)
    got = hyperbolic_grid(r_max, pitch)
    assert np.array_equal(got, want)
    # a caller who writes to the returned array keeps the change to itself
    got[:] = 0.5
    assert np.array_equal(hyperbolic_grid(r_max, pitch), want)


@pytest.mark.parametrize("m, k", [(200, 32762), (92, 20000), (20000, 92), (8, 36346),
                                  (3, 5000), (40000, 1), (1, 1), (0, 7), (7, 0)])
def test_tiles_cover_once_in_wide_rows(m, k):
    # every element once, no tile above _BLOCK elements, rows min(k, 4,096)
    # columns wide (the knee of numpy's broadcast; see disk._ROW)
    seen = np.zeros((m, k), dtype=int)
    for rows, cols in disk._tiles(m, k):
        seen[rows, cols] += 1
        width, height = cols.stop - cols.start, rows.stop - rows.start
        assert width * height <= disk._BLOCK
        assert width == min(k, 4096) or cols.stop == k
    assert (seen == 1).all()
