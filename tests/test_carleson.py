import numpy as np
import pytest

from blaschke_lab.bergman import constant_fn, reproducing_family
from blaschke_lab.carleson import (
    ANCHOR_ETAS,
    CarlesonSquare,
    CircleArc,
    arc_carleson_constant,
    carleson_embedding_probe,
    carleson_norm,
    lp_sequence_norm,
    mu_z_measure,
    uniform_blaschke_sup,
)
from blaschke_lab.disk import FiniteSequence, InvariantViolation
from blaschke_lab.generators import gen_escalating_multiplicity, gen_radial_geometric


def contains(square, z) -> bool:
    """Brute-force membership of z in the Carleson square."""
    if z == 0:
        return False
    d = abs((np.angle(z) - square.arc_center + np.pi) % (2 * np.pi) - np.pi)
    return d <= np.pi * square.arc_length and 1.0 - abs(z) < square.arc_length


def mass_in(measure, square) -> float:
    """Brute-force mass of the measure inside the Carleson square."""
    inside = np.array([contains(square, a) for a in measure.atoms], dtype=bool)
    return float(measure.weights[inside].sum())


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
    mu = mu_z_measure(FiniteSequence.from_complex([0.0]))
    assert mu.total_mass() == pytest.approx(1.0)
    mu2 = mu_z_measure(FiniteSequence.from_complex([0.5]))
    assert mu2.total_mass() == pytest.approx(0.75)
    ce = gen_escalating_multiplicity(5)
    expected = sum(n * (1 - (1 - 0.25**n) ** 2) for n in range(1, 6))
    assert mu_z_measure(ce).total_mass() == pytest.approx(expected)


def test_carleson_norm_examples():
    rep = carleson_norm(FiniteSequence.from_complex([0.5]))
    assert rep.norm == pytest.approx(0.75 / (0.5 * (1 + ANCHOR_ETAS[0])))
    assert rep.method == "point-anchored"
    assert rep.maximizing_square is not None
    assert carleson_norm(FiniteSequence()).norm == 0.0
    # geometric radial stays bounded independent of truncation
    for n in (5, 10, 20):
        s = gen_radial_geometric(0.5, n)
        assert carleson_norm(s).norm <= 4.0


def test_norm_report_consistency():
    s = random_sequence(3)
    rep = carleson_norm(s)
    mu = mu_z_measure(s)
    assert rep.norm >= mass_in(mu, rep.maximizing_square) / rep.maximizing_square.arc_length - 1e-12


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


def test_embedding_probe():
    s = FiniteSequence.from_complex([0.2, 0.5 + 0.2j, -0.7])
    mass = mu_z_measure(s).total_mass()
    assert carleson_embedding_probe(s, 2.0, [constant_fn(1.0)]) == pytest.approx(
        mass, rel=1e-4
    )
    fam = reproducing_family(s, 2.0)
    ratio = carleson_embedding_probe(s, 2.0, fam)
    assert ratio >= 1.0 - 1e-6  # the anchored term alone contributes about 1
    assert carleson_embedding_probe(FiniteSequence(), 2.0, fam) == 0.0
