"""Hardy and Bergman norms by quadrature, and the recentred mean behind
the division and multiplication probes.

Area integrals over the disk run on a tensor grid whose rings refine
geometrically toward the boundary, and in the first band toward 0; ring
bands tile the disk exactly so the weights sum to pi to machine precision.  The Hardy
circle mean samples f on nested uniform grids until their FFT resolves f.

recentred_means measures, for a finite Blaschke product B on the Bergman
space with weight (1-|z|^2)^alpha, the ratio ||B h||^p / ||h||^p along the
Moebius-invariant test functions h with |h|^p = |phi_c'|^(2+alpha), phi_c
the disk automorphism swapping 0 and c.  Its least value to the power 1/p
is the empirical lower constant of multiplication by B (analyze's
mb_probe), and one over it is how much dividing B h by B can inflate the
norm (divisor_ratio); the callers take both from one call.

Both integrands peak at c, to a width 1 - |c| that a capped grid misses.
The change of variables by phi_c carries the integral of |B h|^p against
the weight to the integral of |B o phi_c|^p against the same weight, flat
near 0 instead, and ||h||^p to pi/(1+alpha).  There the zeros move and the
nodes stay: |B o phi_c| is evaluated from the zeros moved by phi_c at the
grid's own nodes, exact however deep c lies, and one pass over the nodes
serves every center.  The means form one sum per center and node, sum
m log rho^2 over the moved zeros, and nothing else; the zeros are moved
by all centers at once.  The nodes come in blocks of up to disk._BLOCK
spanning several rings, so that blaschke's treecode can group each block
into compact boxes once for all centers.  A box that at least half of the
moved zeros are near, as the wide boxes of the sparse mid-radius rings
mostly are, takes the plain kernel over all zeros and forms no expansion:
a near pair gathered pair by pair costs about twice a plain one (17 to 25
against 8 to 11 ns per evaluation, one thread), hence the half.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import disk
from .blaschke import BlaschkeProduct, _log_abs_moved, _moved_zeros
from .disk import _one_minus_abs2

# hp_norm's circle, its node count, first grid, tolerance and spot-check nodes
_HARDY_RADIUS = 0.99999
_HARDY_SAMPLES = 1 << 14
_HARDY_FIRST = 1 << 10
_HARDY_TOL = 1e-13
_HARDY_CHECKS = np.array([2731, 7919, 11213, 14341])
# QuadratureGrid.build gives a ring at radius r ceil(_ANGULAR_FACTOR / (1 - r))
# angles, at least _BASE_ANGULAR and at most its max_angular
_ANGULAR_FACTOR = 16.0
_BASE_ANGULAR = 64


@dataclass(frozen=True)
class QuadratureGrid:
    """Disk quadrature: ring radii, exact ring-band areas, angles per ring."""

    radii: np.ndarray
    band_areas: np.ndarray
    angular_counts: np.ndarray

    @classmethod
    def build(cls, rings: int = 400, min_gap: float = 1e-6,
              max_angular: int = 1 << 14) -> "QuadratureGrid":
        """Band edges geometric in 1-r from 1 down to min_gap, plus the
        final sliver band up to r = 1 so band areas sum to pi exactly.
        Each band carries a two-point Gauss rule in the area variable
        u = r^2 (two rings per band), fourth-order for smooth integrands.
        ``rings`` counts the evaluation rings, two per band.

        The first band [0, r_1] is graded toward 0: 16 bands of ratio 1/2
        in r around a core disk of radius r_1 / 2^16, 32 rings more.  A
        recentred probe at a zero c reads |B o phi_c| ~ |w|^(p m) near
        w = 0, where phi_c moves c, and that cusp is smooth on no band
        that reaches 0.  For a lone zero of multiplicity m the mean is
        2/(p m + 2) at alpha = 0; at p in {1/2, 1, 2} and m in {1, 3}
        the analysis grid misses it by up to 3.5e-5 (8.0e-5 at alpha = 1),
        and by 2.7e-4 (6.1e-4) with one ungraded first band."""
        bands = max(1, rings // 2)
        return _band_grid(min_gap ** (np.arange(bands + 1) / bands), max_angular)


def _band_grid(gaps: np.ndarray, max_angular: int) -> QuadratureGrid:
    """QuadratureGrid.build's rule on the band edges r = 1 - gaps (1 - r
    falling from gaps[0] = 1 to gaps[-1]): the graded first band, the
    closing band up to r = 1, and two Gauss rings per band in u = r^2."""
    first = 1.0 - gaps[1]
    edges = np.concatenate([[0.0], first * 0.5 ** np.arange(16, 0, -1),
                            1.0 - gaps[1:], [1.0]])
    u_lo, u_hi = edges[:-1] ** 2, edges[1:] ** 2
    mid = 0.5 * (u_lo + u_hi)
    half = 0.5 * (u_hi - u_lo)
    shift = half / np.sqrt(3.0)
    radii = np.sqrt(np.concatenate([mid - shift, mid + shift]))
    areas = np.concatenate([np.pi * half, np.pi * half])
    order = np.argsort(radii)
    radii, areas = radii[order], areas[order]
    counts = np.clip(np.ceil(_ANGULAR_FACTOR / (1.0 - radii)),
                     _BASE_ANGULAR, max_angular).astype(int)
    return QuadratureGrid(radii, areas, counts)


def _ring_blocks(counts: np.ndarray) -> list:
    """(first, stop) ring index pairs grouping consecutive rings into blocks
    of at most disk._BLOCK nodes; a larger ring forms a block by itself."""
    blocks = []
    first = size = 0
    for j, n in enumerate(counts.tolist()):
        if size and size + n > disk._BLOCK:
            blocks.append((first, j))
            first = j
            size = 0
        size += n
    if size:
        blocks.append((first, len(counts)))
    return blocks


def area_integral(fn, g: QuadratureGrid):
    """Integral over the disk of a real-valued field fn(z_array) -> array.

    The integrand is evaluated once per block of consecutive rings, one
    block after another.  Each ring contributes its node sum times its
    weight, and these terms are accumulated with exact summation, so the
    result depends neither on the blocks nor on evaluation order, and each
    row of a stacked integrand gets the bits it would get alone.  An
    integrand that returns one row per field, shape (fields, nodes), gets
    an array of the integrals.
    """
    terms = []
    for first, stop in _ring_blocks(g.angular_counts):
        counts = g.angular_counts[first:stop]
        starts = np.cumsum(counts) - counts
        nodes = np.empty(counts.sum(), dtype=complex)
        for r, n, i in zip(g.radii[first:stop], counts.tolist(), starts.tolist()):
            nodes[i:i + n] = r * np.exp(1j * (2.0 * np.pi * (np.arange(n) + 0.5) / n))
        terms.append(np.add.reduceat(fn(nodes), starts, axis=-1)
                     * (g.band_areas[first:stop] / counts))
    terms = np.concatenate(terms, axis=-1)
    if terms.ndim == 1:
        return math.fsum(terms)
    return np.array([math.fsum(row) for row in terms])


def hp_norm(f, p) -> float:
    """Hardy norm: the circle mean M_p(f, r) at r = _HARDY_RADIUS.

    M_p is nondecreasing in r for analytic f (Hardy's convexity theorem),
    so no smaller circle gives a larger mean.  It is taken over |f| at the
    _HARDY_SAMPLES nodes of that circle (the max at p = inf), scaled by the
    largest so that no power overflows (_p_mean).  f is assumed
    analytic, so its samples have no negative frequencies: n of them, from
    _HARDY_FIRST on and doubling over nested nodes, resolve f once the top
    eighth of their FFT is within _HARDY_TOL of its largest entry and the
    interpolant meets f within _HARDY_TOL of the largest sample at the
    _HARDY_CHECKS nodes, which catches spectral gaps (1 + z**2048 is
    constant on 1,024 nodes).  |f| then comes from the zero-padded inverse
    FFT.  If no coarser grid resolves f (conj(z) tops every FFT), or a
    sample is not finite, every node is sampled directly, none twice.
    """
    if p != np.inf and not p > 0:
        raise ValueError("p must be positive or inf")
    vals, have = np.empty(_HARDY_SAMPLES, complex), np.zeros(_HARDY_SAMPLES, bool)
    step = _HARDY_SAMPLES // _HARDY_FIRST
    k, mods = np.r_[0:_HARDY_SAMPLES:step, _HARDY_CHECKS], None
    while mods is None:
        k = k[~have[k]]
        z = _HARDY_RADIUS * np.exp(1j * (2.0 * np.pi * k / _HARDY_SAMPLES))
        vals[k], have[k] = np.broadcast_to(f(z), k.shape), True
        if step == 1:
            mods = np.abs(vals)
        elif not np.isfinite(vals[k]).all():
            step, k = 1, np.flatnonzero(~have)
        else:
            spec = np.fft.fft(vals[::step])
            coef = np.abs(spec)
            if coef[coef.size * 7 // 8:].max() <= _HARDY_TOL * coef.max():
                interp = np.fft.ifft(spec, _HARDY_SAMPLES) * step
                miss = np.abs(interp[_HARDY_CHECKS] - vals[_HARDY_CHECKS])
                if (miss <= _HARDY_TOL * np.abs(vals[::step]).max()).all():
                    mods = np.abs(interp)
            step //= 2
            k = np.arange(step, _HARDY_SAMPLES, 2 * step)
    if p == np.inf:
        return float(mods.max())
    return _p_mean(mods, p)


def _p_mean(x, p, weights=None) -> float:
    """(sum w x^p)^(1/p) over x >= 0 with weights w (the plain mean when
    weights is None), taken as M (sum w (x/M)^p)^(1/p) with M the largest
    x, so that no power of a large x overflows; M itself when it is 0,
    inf or nan."""
    x = np.asarray(x, dtype=float)
    top = x.max(initial=0.0)
    if not 0.0 < top < np.inf:
        return float(top)
    r = (x / top) ** p
    return float(top * (r.mean() if weights is None else np.dot(weights, r)) ** (1.0 / p))


def recentred_means(b: BlaschkeProduct, centers, p: float, alpha: float,
                    g: QuadratureGrid) -> list:
    """For each center c, ((1+alpha)/pi) * integral of |B(phi_c(w))|^p
    (1-|w|^2)^alpha dA(w) on the grid g.

    With |h|^p = |phi_c'|^(2+alpha) and z = phi_c(w), the involution gives
    |h(z)|^p dA(z) = |phi_c'(w)|^-alpha dA(w) and (1-|z|^2)^alpha =
    |phi_c'(w)|^alpha (1-|w|^2)^alpha, so this is ||B h||^p / ||h||^p in
    the weighted Bergman norm, with ||h||^p = pi/(1+alpha) in closed form
    (h = 1 at c = 0).  The weight is constant on each ring and rides on
    the band areas.

    The nodes stay where they are: |B o phi_c| comes from the zeros moved
    by phi_c (as in blaschke.log_abs_composed).  The integrand has one row
    per center, so each node block and its kernel coordinates are built
    once per call and serve every center.
    """
    if not p > 0:
        raise ValueError("p must be positive")
    if not alpha > -1:
        raise ValueError("alpha must exceed -1")
    weighted = QuadratureGrid(g.radii, g.band_areas * _one_minus_abs2(g.radii) ** alpha,
                              g.angular_counts)
    moved = _moved_zeros(b, centers)

    def powers(z):
        rows = _log_abs_moved(b, moved, z)
        rows *= p
        return np.exp(rows, out=rows)

    sums = area_integral(powers, weighted)
    norm = np.pi / (1.0 + alpha)
    return [float(v) / norm for v in sums]
