import numpy as np
import pytest
from hypothesis import given, strategies as st

from blaschke_lab import hermite as hm


def derivatives_from_jet(jet) -> np.ndarray:
    """Raw derivatives f^(k) = k! c_k from jet coefficients."""
    c = np.asarray(jet, dtype=complex)
    fact = np.cumprod(np.concatenate([[1.0], np.arange(1, len(c))]))
    return c * fact


def jet_at(P: hm.HermiteInterpolant, z0: complex, order: int) -> np.ndarray:
    """Taylor jet of the Newton-form polynomial P at z0, by Horner on jets."""
    out = np.zeros(order, dtype=complex)
    out[0] = P.coeffs[-1]
    for i in range(len(P.coeffs) - 2, -1, -1):
        shifted = np.zeros(order, dtype=complex)  # the jet of z - node
        shifted[0] = z0 - P.nodes[i]
        if order > 1:
            shifted[1] = 1.0
        out = hm.jet_mul(out, shifted)
        out[0] += P.coeffs[i]
    return out


def small_jets():
    coeff = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
    return st.lists(coeff, min_size=1, max_size=5).map(np.array)


@given(small_jets())
def test_exp_inverse_roundtrip(a):
    unit = np.zeros(len(a), dtype=complex)
    unit[0] = 1.0
    assert np.allclose(hm.jet_mul(hm.jet_exp(a), hm.jet_exp(-a)), unit, atol=1e-9)


def test_jet_derivative_conventions():
    derivs = [2.0, 6.0, 12.0]  # f, f', f''
    jet = hm.jet_from_derivatives(derivs)
    assert np.allclose(jet, [2.0, 6.0, 6.0])
    assert np.allclose(derivatives_from_jet(jet), derivs)


def test_interpolates_cubic_with_derivatives():
    f = lambda z: z**3 - 2 * z + 1
    df = lambda z: 3 * z**2 - 2
    pts = [0.5, 0.2 + 0.1j]
    jets = [hm.jet_from_derivatives([f(p), df(p)]) for p in pts]
    P = hm.hermite_interpolant(pts, [2, 2], jets)
    assert len(P.coeffs) - 1 == 3
    zs = np.array([0.3 + 0.2j, -0.5, 0.9j])
    assert np.allclose(P(zs), f(zs), atol=1e-13)
    # jets extracted from the polynomial agree with the data
    j = jet_at(P, pts[0], 2)
    assert np.allclose(derivatives_from_jet(j), [f(pts[0]), df(pts[0])], atol=1e-12)


def test_simple_nodes_match_lagrange():
    rng = np.random.default_rng(3)
    pts = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    vals = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    P = hm.hermite_interpolant(pts, [1] * 4, [[v] for v in vals])
    for p, v in zip(pts, vals):
        assert P(p) == pytest.approx(v, abs=1e-10)


def test_validation():
    with pytest.raises(ValueError, match="parallel"):
        hm.hermite_interpolant([0.1], [1, 2], [[1.0]])
    with pytest.raises(ValueError, match="length"):
        hm.hermite_interpolant([0.1], [2], [[1.0]])


def test_empty_and_constant():
    P0 = hm.hermite_interpolant([], [], [])
    assert P0(0.3) == 0.0
    P1 = hm.hermite_interpolant([0.4], [1], [[2.5 + 1j]])
    assert P1(0.9j) == 2.5 + 1j
    assert len(P1.coeffs) - 1 == 0
