"""Hardy and Bergman norms by quadrature, and division/multiplication probes.

Area integrals over the disk run on a tensor grid whose rings refine
geometrically toward the boundary; ring bands tile the disk exactly so
the weights sum to pi to machine precision.  Circle means use uniform
angular sampling, which for analytic integrands converges spectrally.

The probes implemented here measure two operator-theoretic quantities for
a finite Blaschke product B on the Bergman space with weight
(1-|z|^2)^alpha, both along the Moebius-invariant test functions h with
|h|^p = |phi_c'|^(2+alpha), phi_c the disk automorphism swapping 0 and c:

* mb_lower_probe - the empirical constant c in ||Bh|| >= c ||h||;
* universal_divisor_ratio - how much dividing B h by B can inflate the
  norm, which is one over the same ratio.

Both integrands peak at c, to a width 1 - |c| that a capped grid misses.
The change of variables by phi_c carries the integral of |B h|^p against
the weight to the integral of |B o phi_c|^p against the same weight, flat
near 0 instead, and ||h||^p to pi/(1+alpha); so both probes are taken from
one recentred mean (_recentred_means).  There the zeros move and the
nodes stay: |B o phi_c| is evaluated from the zeros moved by phi_c at the
grid's own nodes, exact however deep c lies, and one pass over the nodes
serves every center.  The nodes come in blocks of up to disk._BLOCK
spanning several rings, so that blaschke's treecode can group each block
into compact boxes once for all centers.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import disk
from .blaschke import BlaschkeProduct, _log_abs_moved, _moved
from .disk import MoebiusMap, DiskPoint, FiniteSequence, _one_minus_abs2, _tocomplex
from .util import worker_count

# the circle hp_norm samples
_HARDY_RADIUS = 0.99999


def constant_fn(c):
    c = complex(c)
    return lambda z: (np.full_like(np.asarray(z, dtype=complex), c)
                      if isinstance(z, np.ndarray) else c)


@dataclass(frozen=True)
class QuadratureGrid:
    """Disk quadrature: ring radii, exact ring-band areas, angles per ring."""

    radii: np.ndarray
    band_areas: np.ndarray
    angular_counts: np.ndarray

    @classmethod
    def build(cls, rings: int = 400, min_gap: float = 1e-6,
              base_angular: int = 64, max_angular: int = 1 << 14,
              angular_factor: float = 16.0) -> "QuadratureGrid":
        """Band edges geometric in 1-r from 1 down to min_gap, plus the
        final sliver band up to r = 1 so band areas sum to pi exactly.
        Each band carries a two-point Gauss rule in the area variable
        u = r^2 (two rings per band), fourth-order for smooth integrands.
        ``rings`` counts the evaluation rings, two per band."""
        bands = max(1, rings // 2)
        gaps = min_gap ** (np.arange(bands + 1) / bands)  # 1 down to min_gap
        edges = np.concatenate([1.0 - gaps, [1.0]])
        u_lo, u_hi = edges[:-1] ** 2, edges[1:] ** 2
        mid = 0.5 * (u_lo + u_hi)
        half = 0.5 * (u_hi - u_lo)
        shift = half / np.sqrt(3.0)
        radii = np.sqrt(np.concatenate([mid - shift, mid + shift]))
        areas = np.concatenate([np.pi * half, np.pi * half])
        order = np.argsort(radii)
        radii, areas = radii[order], areas[order]
        counts = np.clip(np.ceil(angular_factor / (1.0 - radii)),
                         base_angular, max_angular).astype(int)
        return cls(radii, areas, counts)


_DEFAULT_GRID: list = []


def default_grid() -> QuadratureGrid:
    if not _DEFAULT_GRID:
        _DEFAULT_GRID.append(QuadratureGrid.build())
    return _DEFAULT_GRID[0]


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


def area_integral(fn, g: QuadratureGrid | None = None):
    """Integral over the disk of a real-valued field fn(z_array) -> array.

    The integrand is evaluated once per block of consecutive rings.  Each
    ring contributes its node sum times its weight, and these terms are
    accumulated with exact summation, so the result depends neither on
    the blocks nor on evaluation order, and each row of a stacked
    integrand gets the bits it would get alone.  Blocks may be processed
    by worker threads (capped by BLASCHKE_LAB_THREADS), so fn must be safe
    for concurrent calls.  An integrand that returns one row per field,
    shape (fields, nodes), gets an array of the integrals.
    """
    g = g or default_grid()

    def ring_terms(block) -> np.ndarray:
        first, stop = block
        counts = g.angular_counts[first:stop]
        starts = np.cumsum(counts) - counts
        nodes = np.empty(counts.sum(), dtype=complex)
        for r, n, i in zip(g.radii[first:stop], counts.tolist(), starts.tolist()):
            nodes[i:i + n] = r * np.exp(1j * (2.0 * np.pi * (np.arange(n) + 0.5) / n))
        return np.add.reduceat(fn(nodes), starts, axis=-1) * (g.band_areas[first:stop] / counts)

    blocks = _ring_blocks(g.angular_counts)
    workers = worker_count()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            terms = list(pool.map(ring_terms, blocks))
    else:
        terms = [ring_terms(b) for b in blocks]
    terms = np.concatenate(terms, axis=-1)
    if terms.ndim == 1:
        return math.fsum(terms)
    return np.array([math.fsum(row) for row in terms])


def hp_norm(f, p) -> float:
    """Hardy norm: the circle mean M_p(f, r) at r = _HARDY_RADIUS.

    M_p is nondecreasing in r for analytic f (Hardy's convexity theorem),
    so no smaller circle gives a larger mean.  For p = inf the value is
    the sup over the angular samples.
    """
    if p != np.inf and not p > 0:
        raise ValueError("p must be positive or inf")
    r = _HARDY_RADIUS
    n = int(np.clip(np.ceil(8.0 / (1.0 - r)), 64, 1 << 14))
    theta = 2.0 * np.pi * np.arange(n) / n
    vals = np.abs(f(r * np.exp(1j * theta)))
    if p == np.inf:
        return float(vals.max())
    return float(np.mean(vals**p) ** (1.0 / p))


def _recentred_means(b: BlaschkeProduct, centers, p: float, alpha: float,
                     g: QuadratureGrid | None) -> list:
    """For each center c, ((1+alpha)/pi) * integral of |B(phi_c(w))|^p
    (1-|w|^2)^alpha dA(w).

    With |h|^p = |phi_c'|^(2+alpha) and z = phi_c(w), the involution gives
    |h(z)|^p dA(z) = |phi_c'(w)|^-alpha dA(w) and (1-|z|^2)^alpha =
    |phi_c'(w)|^alpha (1-|w|^2)^alpha, so this is ||B h||^p / ||h||^p in
    the weighted Bergman norm, with ||h||^p = pi/(1+alpha) in closed form.
    The weight is constant on each ring and rides on the band areas.

    The nodes stay where they are: |B o phi_c| comes from the zeros moved
    by phi_c (as in blaschke.log_abs_composed).  The integrand has one row
    per center, so each node block and its kernel coordinates are built
    once per call and serve every center.
    """
    if not p > 0:
        raise ValueError("p must be positive")
    if not alpha > -1:
        raise ValueError("alpha must exceed -1")
    g = g or default_grid()
    weighted = QuadratureGrid(g.radii, g.band_areas * _one_minus_abs2(g.radii) ** alpha,
                              g.angular_counts)
    moved = [_moved(b, _tocomplex(c)) for c in centers]

    def powers(z):
        rows = _log_abs_moved(b, moved, z)
        rows *= p
        return np.exp(rows, out=rows)

    sums = area_integral(powers, weighted)
    norm = np.pi / (1.0 + alpha)
    return [float(v) / norm for v in sums]


def _inverse_root(means: list, p: float) -> float:
    """One over the least mean to the power 1/p; inf once that underflows to 0."""
    low = min(means) ** (1.0 / p)
    return 1.0 / low if low > 0.0 else math.inf


def kernel_mass(zeta, g: QuadratureGrid | None = None) -> float:
    """Integral over the disk of the area-distortion kernel of phi_zeta.

    Equals pi for every center by change of variables; the quadrature value
    certifies grid accuracy.
    """
    phi = MoebiusMap(DiskPoint.from_complex(zeta))
    return area_integral(lambda z: phi.jacobian(z), g)


def jensen_area_residual(f, zeros: FiniteSequence,
                         g: QuadratureGrid | None = None) -> float:
    """Defect of the area Jensen identity for f against a listed zero set.

    Writes log|f| = log|f_reg| + sum mult * log|w - z_j| and integrates the
    regular part only; each singular term integrates in closed form to
    -(1-|z_j|^2)/2 times pi.  Zero when the listed zeros are exactly the
    zero set of f, strictly negative when some zeros are withheld.
    """
    f0 = abs(f(0.0 + 0.0j))
    if f0 == 0.0:
        raise ValueError("shift required: f(0) must be nonzero")
    zs = zeros.zs
    mults = zeros.mults

    def regular_log(z):
        w = z
        collide = np.zeros(z.shape, dtype=bool)
        for a in zs:  # one zero at a time: temporaries the size of the block
            collide |= np.abs(w - a) < 1e-13
        if collide.any():
            w = np.where(collide, w + 1e-7 * np.exp(0.3j), w)
        out = np.log(np.abs(f(w)))
        for a, m in zip(zs, mults):
            out = out - m * np.log(np.abs(w - a))
        return out

    quad = area_integral(regular_log, g) / np.pi
    lhs = math.log(f0) - float((mults * np.log(np.abs(zs))).sum()) if len(zs) else math.log(f0)
    return lhs - quad


def universal_divisor_ratio(b: BlaschkeProduct, centers, p: float,
                            alpha: float = 0.0,
                            g: QuadratureGrid | None = None) -> float:
    """Max of ||f/B|| / ||f|| in the weighted Bergman norm over the
    functions f = B h with |h|^p = |phi_c'|^(2+alpha), one per center c
    (h = 1 at c = 0).

    ||f/B|| / ||f|| = ||h|| / ||B h||, one over the recentred mean of
    |B o phi_c|^p to the power 1/p (inf once that underflows to 0).
    """
    return _inverse_root(_recentred_means(b, centers, p, alpha, g), p)


def mb_lower_probe(b: BlaschkeProduct, centers, p: float,
                   g: QuadratureGrid | None = None) -> float:
    """Empirical lower constant of multiplication by B on the Bergman space.

    For each center c the test function h has |h|^p equal to the area
    distortion of phi_c; then ||Bh||/||h|| is the recentred mean of
    |B o phi_c|^p to the power 1/p.  Returns the min over the centers; 1
    for an empty product.
    """
    if not p > 0:
        raise ValueError("p must be positive")
    if len(b.zeros) == 0:
        return 1.0
    return min(_recentred_means(b, centers, p, 0.0, g),
               default=math.inf) ** (1.0 / p)


def reproducing_family(s: FiniteSequence, p: float) -> list:
    """Normalized reproducing-kernel style test functions anchored at the
    points of s: f_a(z) = ((1-|a|^2)/(1 - conj(a) z))^(2/p)."""
    fam = []
    for pt in s.points:
        a = pt.z
        amp = math.log(1.0 - abs(a) ** 2)

        def ev(z, a=a, amp=amp):
            v = 1.0 - np.conj(a) * np.asarray(z, dtype=complex)
            out = np.exp((2.0 / p) * (amp - np.log(v)))
            return out if isinstance(z, np.ndarray) else complex(out)

        fam.append(ev)
    return fam
