import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blaschke_lab import disk
from blaschke_lab.blaschke import BlaschkeProduct, separation_report
from blaschke_lab.disk import (
    BOUNDARY_FLOOR,
    DiskPoint,
    FiniteSequence,
    InvariantViolation,
    MoebiusMap,
    hyperbolic_grid,
    psh_diameter,
    psh_distance,
    psh_distance_pairwise,
)
from blaschke_lab.generators import gen_escalating_multiplicity, gen_radial_geometric


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
    rep = separation_report(BlaschkeProduct.from_complex([a, z, 0.5]))
    assert rep.discreteness == pytest.approx(float(mpmath.exp(want / 2)), rel=1e-15)
    assert rep.delta > 0.0
    coincident = disk._coords(np.array([a, a], dtype=complex))
    assert disk._log_rho2(coincident[:, :1], coincident)[0].tolist() == [-np.inf, -np.inf]


def test_moebius_examples():
    m = MoebiusMap(DiskPoint(0.5, 0.0))
    assert m(0.5) == pytest.approx(0.0)
    assert m(0.0) == pytest.approx(0.5)
    assert m(0.25) == pytest.approx(0.25 / 0.875)


def test_jacobian_examples():
    assert MoebiusMap(DiskPoint(0.0, 0.0)).jacobian(0.3 + 0.1j) == pytest.approx(1.0)
    assert MoebiusMap(DiskPoint(0.5, 0.0)).jacobian(0.0) == pytest.approx(0.5625)


@given(disk_points(), disk_points())
def test_metric_symmetry(z, w):
    assert psh_distance(z, w) == pytest.approx(psh_distance(w, z), abs=1e-15)


@given(disk_points(0.99), disk_points(0.99), disk_points(0.99))
def test_metric_triangle(z, w, v):
    assert psh_distance(z, w) <= psh_distance(z, v) + psh_distance(v, w) + 1e-12


@given(disk_points(0.999), disk_points(0.999))
def test_involution(z, c):
    m = MoebiusMap(DiskPoint.from_complex(c))
    assert abs(m(m(z)) - z) <= 1e-12


@given(disk_points(0.99), disk_points(0.99), disk_points(0.99))
def test_moebius_invariance(z, w, c):
    m = MoebiusMap(DiskPoint.from_complex(c))
    assert abs(psh_distance(m(z), m(w)) - psh_distance(z, w)) <= 1e-12


@settings(max_examples=30)
@given(disk_points(0.95), disk_points(0.9))
def test_jacobian_matches_finite_differences(c, w):
    m = MoebiusMap(DiskPoint.from_complex(c))
    h = 1e-5
    du = (m(w + h) - m(w - h)) / (2 * h)
    dv = (m(w + 1j * h) - m(w - 1j * h)) / (2 * h)
    det = du.real * dv.imag - du.imag * dv.real
    assert det == pytest.approx(m.jacobian(w), rel=1e-6)


def test_diameter():
    assert psh_diameter(FiniteSequence.from_complex([0.3])) == 0.0
    assert psh_diameter(FiniteSequence.from_complex([0, 0.5])) == pytest.approx(0.5)
    assert psh_diameter(FiniteSequence.from_complex([0, 0.3, 0.7])) == pytest.approx(0.7)
    with pytest.raises(InvariantViolation, match="empty"):
        psh_diameter(FiniteSequence())


def test_point_invariants():
    with pytest.raises(InvariantViolation):
        DiskPoint(1.0, 0.0)
    with pytest.raises(InvariantViolation):
        DiskPoint(1.0 - BOUNDARY_FLOOR / 2, 0.0)
    with pytest.raises(InvariantViolation):
        DiskPoint(float("nan"), 0.0)
    DiskPoint(1.0 - 2e-14, 0.0)  # just inside the floor


def test_sequence_invariants():
    with pytest.raises(InvariantViolation, match="duplicate"):
        FiniteSequence.from_complex([0.5, 0.5])
    with pytest.raises(InvariantViolation, match="positive integer"):
        FiniteSequence.from_complex([0.5], [0])
    with pytest.raises(InvariantViolation, match="parallel"):
        FiniteSequence.from_complex([0.5], [1, 2])
    s = FiniteSequence.from_complex([0.5, 0.2j], [2, 1])
    assert s.total_count == 3
    assert len(s.expanded()) == 3
    assert not s.is_simple()
    assert FiniteSequence().total_count == 0


def test_hyperbolic_grid():
    g = hyperbolic_grid(0.9, 0.3)
    assert (np.abs(g) <= 0.9 + 1e-12).all()
    assert len(g) > 10
    with pytest.raises(ValueError):
        hyperbolic_grid(0.9, 1.5)
