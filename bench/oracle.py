"""Independent references for the benchmark's accuracy checks.

* ``deleted_product_min``: the minimum over the listed points of the
  deleted Blaschke product |B_j(z_j)|, in 50-digit mpmath arithmetic.  For
  a simple sequence it is also the minimum of (1 - |z_j|^2) |B'(z_j)|, since
  the own factor's derivative has modulus 1 / (1 - |z_j|^2) at its zero;
  with a repeated point both minima are exactly 0.
* ``cauchy_derivatives``: derivatives of an analytic function at given
  points, re-extracted from samples on small circles by the discrete
  Cauchy formula (an FFT of the circle samples).

Neither shares code with blaschke_lab.  mpmath is not a dependency of the
package; only the benchmark uses it.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

DIGITS = 50


def deleted_product_min(points) -> float:
    """min_j prod_{k != j} |z_k - z_j|^(m_k) / |1 - conj(z_k) z_j|^(m_k).

    ``points`` holds (re, im, mult) triples with the exact float values of
    the input file; 0.0 when any multiplicity exceeds 1.
    """
    if any(m > 1 for _, _, m in points):
        return 0.0
    with mpmath.workdps(DIGITS):
        pts = [(mpmath.mpf(re), mpmath.mpf(im)) for re, im, _ in points]
        best = None
        for j, (xr, xi) in enumerate(pts):
            prod = mpmath.mpf(1)
            for k, (ar, ai) in enumerate(pts):
                if k == j:
                    continue
                dr, di = ar - xr, ai - xi
                cr = 1 - (ar * xr + ai * xi)
                ci = ar * xi - ai * xr
                prod *= (dr * dr + di * di) / (cr * cr + ci * ci)
            if best is None or prod < best:
                best = prod
        return float(mpmath.sqrt(best)) if best is not None else 1.0


def cauchy_derivatives(fn, centers, orders, nodes: int = 64, shrink: float = 0.05):
    """Derivatives f^(i)(c) for i < order at each center c.

    Samples f on the circle |z - c| = shrink * (1 - |c|) with ``nodes``
    equispaced points (all circles in one vectorised call); the i-th
    Taylor coefficient is the i-th discrete Fourier coefficient divided by
    radius^i.  Returns one complex array per center.
    """
    ring = np.exp(2j * np.pi * np.arange(nodes) / nodes)
    centers = np.asarray(centers, dtype=complex)
    radii = shrink * (1.0 - np.abs(centers))
    samples = np.asarray(fn((centers[:, None] + radii[:, None] * ring).ravel()))
    coeffs = np.fft.fft(samples.reshape(len(centers), nodes), axis=1) / nodes
    out = []
    for c, rho, order in zip(coeffs, radii, orders):
        out.append(np.array([c[i] / rho**i * math.factorial(i) for i in range(order)]))
    return out
