"""Truncated Taylor jets and confluent Newton interpolation at complex nodes.

A jet of order m at a point z0 is the coefficient vector (c_0, ..., c_{m-1})
of the local expansion f(z0 + h) = sum c_k h^k; c_k = f^(k)(z0) / k!.
The jet arithmetic is the conversion from raw derivatives, the truncated
product and the exponential (by its standard recurrence): the
interpolation solver forms the jets it needs from a log-derivative sum
and takes them through exp, so it needs no series quotient, log or power.

Interpolation uses the confluent divided-difference table: a node repeated
m times consumes the first m jet coefficients, and the resulting Newton
form is the minimal-degree polynomial matching all prescribed derivatives.
"""

from __future__ import annotations

import numpy as np


def jet_from_derivatives(derivs) -> np.ndarray:
    """Coefficients c_k = f^(k)/k! from raw derivative values."""
    d = np.asarray(derivs, dtype=complex)
    fact = np.cumprod(np.concatenate([[1.0], np.arange(1, len(d))]))
    return d / fact


def jet_mul(a, b) -> np.ndarray:
    m = len(a)
    out = np.zeros(m, dtype=complex)
    for n in range(m):
        out[n] = np.dot(a[: n + 1], b[: n + 1][::-1])
    return out


def jet_exp(a) -> np.ndarray:
    m = len(a)
    out = np.zeros(m, dtype=complex)
    out[0] = np.exp(a[0])
    for n in range(1, m):
        acc = 0.0 + 0.0j
        for k in range(1, n + 1):
            acc += k * a[k] * out[n - k]
        out[n] = acc / n
    return out


class HermiteInterpolant:
    """Newton-form polynomial through confluent complex nodes."""

    def __init__(self, nodes_expanded: np.ndarray, coeffs: np.ndarray):
        self.nodes = np.asarray(nodes_expanded, dtype=complex)
        self.coeffs = np.asarray(coeffs, dtype=complex)

    def __call__(self, z):
        scalar = not isinstance(z, np.ndarray)
        w = np.asarray(z, dtype=complex)
        out = np.full_like(w, self.coeffs[-1])
        for i in range(len(self.coeffs) - 2, -1, -1):
            # the temporary goes first, as numpy reuses it in place for large
            # arrays and its complex product is not commutative in the last bit
            out = (w - self.nodes[i]) * out + self.coeffs[i]
        return complex(out) if scalar else out


def hermite_interpolant(points, mults, jets) -> HermiteInterpolant:
    """Minimal-degree polynomial matching the given jets.

    points : distinct complex nodes
    mults  : repetition count per node
    jets   : per node, Taylor coefficients (f, f', ...)/k! of length mult

    Equal consecutive expanded nodes take their divided difference straight
    from the jet; the rest fill in by the usual quotient recurrence.
    """
    points = [complex(p) for p in points]
    mults = [int(m) for m in mults]
    if not (len(points) == len(mults) == len(jets)):
        raise ValueError("points, mults and jets must be parallel")
    for m, jet in zip(mults, jets):
        if len(jet) != m:
            raise ValueError("jet length must equal the node multiplicity")
    x = []
    jet_of = {}
    for p, m, jet in zip(points, mults, jets):
        x.extend([p] * m)
        jet_of[p] = np.asarray(jet, dtype=complex)
    n = len(x)
    x = np.asarray(x, dtype=complex)
    if n == 0:
        return HermiteInterpolant(np.zeros(0, complex), np.zeros(1, complex))
    # dd[i] holds the divided difference of the current window starting at i
    dd = np.array([jet_of[p][0] for p in x], dtype=complex)
    coeffs = [dd[0]]
    for k in range(1, n):
        new = np.zeros(n - k, dtype=complex)
        for i in range(n - k):
            if x[i + k] == x[i]:
                new[i] = jet_of[complex(x[i])][k]
            else:
                new[i] = (dd[i + 1] - dd[i]) / (x[i + k] - x[i])
        dd = new
        coeffs.append(dd[0])
    return HermiteInterpolant(x, np.asarray(coeffs))
