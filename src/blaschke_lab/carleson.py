"""Carleson squares, Carleson norms, and sequence-space norms.

A Carleson square over an arc I of the unit circle (arc length normalized
to total measure 1) is S_I = { z : z/|z| in I, 1 - |z| < m(I) }.  The
Carleson norm of a measure is the supremum of mu(S_I)/m(I).  For the
discrete measures attached to zero sequences and for arc-length measure on
contour families the supremum is searched over an explicit finite family
of squares: arcs anchored at the atoms, at dyadic scales and at scales
just above each atom's own depth.  The reported value is exact for the
visited family and within a constant factor of the true supremum (an arc
holding mass can be recentered at a contained atom at twice the length).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blaschke import _coords, _log_rho2, _tiles
from .disk import FiniteSequence, InvariantViolation, _one_minus_abs2, _tocomplex

ANCHOR_ETAS = (0.001, 0.1, 1.0)


@dataclass(frozen=True)
class CarlesonSquare:
    """Square S_I for the arc of given center angle and normalized length."""

    arc_center: float
    arc_length: float

    def __post_init__(self):
        if not 0 < self.arc_length <= 1:
            raise InvariantViolation("arc length must lie in (0, 1]")


@dataclass(frozen=True)
class DiscreteMeasure:
    """Atomic measure: complex atom positions with positive weights."""

    atoms: np.ndarray
    weights: np.ndarray

    def total_mass(self) -> float:
        return float(self.weights.sum())


@dataclass(frozen=True)
class CarlesonNormReport:
    norm: float
    maximizing_square: CarlesonSquare | None
    method: str  # "dyadic" | "point-anchored" | "n/a"


def mu_z_measure(s: FiniteSequence) -> DiscreteMeasure:
    """The measure with weight mult * (1 - |z_j|^2) at each listed point."""
    zs = s.zs
    return DiscreteMeasure(zs, s.mults * _one_minus_abs2(zs))


def _dyadic_levels(depths: np.ndarray) -> int:
    """Smallest L with 2^-L below half the shallowest atom depth, capped."""
    if depths.size == 0:
        return 0
    return int(min(60, np.ceil(np.log2(2.0 / depths.min())) + 1))


def _search_squares(angles, depths, weights, center_angles, scales):
    """Max of mass/scale over arcs centered at center_angles with the given scales.

    Membership in the square of center c and scale m is
    |angle - c| <= pi*m (wrapped) and depth < m.  Returns
    (best_ratio, best_center, best_scale).
    """
    scales = np.unique(np.clip(np.asarray(scales, dtype=float), 0.0, 1.0))
    scales = scales[scales > 0]
    if len(scales) == 0 or len(angles) == 0:
        return 0.0, None, None
    best = (0.0, None, None)
    for c in center_angles:
        d = np.abs((angles - c + np.pi) % (2 * np.pi) - np.pi)
        # the angular test d/pi <= m is inclusive while the depth test is
        # strict; nudging the angular key down one float merges both into
        # the single strict comparison m > tau.
        tau = np.maximum(np.nextafter(d / np.pi, -np.inf), depths)
        order = np.argsort(tau)
        csum = np.concatenate([[0.0], np.cumsum(weights[order])])
        idx = np.searchsorted(tau[order], scales, side="left")
        ratios = csum[idx] / scales
        k = int(np.argmax(ratios))
        if ratios[k] > best[0]:
            best = (float(ratios[k]), float(c), float(scales[k]))
    return best


def carleson_norm(s: FiniteSequence) -> CarlesonNormReport:
    """Carleson norm estimate of the sequence measure mu_Z.

    The square family: arcs centered at each atom's angle, with scales
    2^-l for l = 0..L (L fine enough to isolate the deepest atom) together
    with (1 - |z_k|)(1 + eta) for every atom k and eta in ANCHOR_ETAS.
    Anchoring positions at the atoms keeps the search family covariant
    under rotation of the whole configuration.
    """
    if len(s) == 0:
        return CarlesonNormReport(0.0, None, "n/a")
    mu = mu_z_measure(s)
    angles = np.angle(mu.atoms)
    depths = 1.0 - np.abs(mu.atoms)
    L = _dyadic_levels(depths)
    dyadic = set(float(2.0 ** (-l)) for l in range(L + 1))
    anchored = [min(1.0, d * (1.0 + eta)) for d in depths for eta in ANCHOR_ETAS]
    scales = sorted(dyadic.union(anchored))
    ratio, center, scale = _search_squares(angles, depths, mu.weights, angles, scales)
    if center is None:
        return CarlesonNormReport(0.0, None, "n/a")
    method = "dyadic" if scale in dyadic else "point-anchored"
    return CarlesonNormReport(ratio, CarlesonSquare(center % (2 * np.pi), scale), method)


def uniform_blaschke_sup(s: FiniteSequence, probe_centers) -> float:
    """Max over probe centers c of sum_j mult_j (1 - |phi_c(z_j)|^2).

    Each term is 1 - rho^2(c, z_j), taken as -expm1 of the Blaschke
    factor kernel's log rho^2 over blocks of centers.
    """
    if len(s) == 0:
        return 0.0
    zeros = _coords(s.zs)
    mults = s.mults.astype(float)
    centers = _coords(np.array([_tocomplex(c) for c in probe_centers], dtype=complex))
    sums = np.zeros(centers.shape[1])
    for r, c in _tiles(len(s), centers.shape[1]):
        sums[c] += mults[r] @ -np.expm1(_log_rho2(zeros[:, r], centers[:, c]))
    return float(sums.max(initial=0.0))


def lp_sequence_norm(s: FiniteSequence, values, p) -> float:
    """Weighted sequence norm: (sum mult |w|^p (1-|z|^2))^(1/p), sup |w| at p=inf."""
    vals = np.asarray(values, dtype=complex)
    if vals.shape != (len(s),):
        raise ValueError("values must parallel the listed points")
    if p == np.inf:
        return float(np.abs(vals).max()) if len(s) else 0.0
    if not p > 0:
        raise ValueError("p must be positive or inf")
    w = s.mults * _one_minus_abs2(s.zs)
    return float((w * np.abs(vals) ** p).sum() ** (1.0 / p))


@dataclass(frozen=True)
class CircleArc:
    """Arc of the Euclidean circle |z - center| = radius, from t0 to t1 radians."""

    center: complex
    radius: float
    t0: float
    t1: float

    def length(self) -> float:
        return self.radius * (self.t1 - self.t0)

    def sample(self, n: int):
        """Midpoint quadrature: n points along the arc with equal length weights."""
        t = self.t0 + (self.t1 - self.t0) * (np.arange(n) + 0.5) / n
        pts = self.center + self.radius * np.exp(1j * t)
        w = np.full(n, self.length() / n)
        return pts, w


def arc_carleson_constant(arcs, samples_per_arc: int = 512, max_centers: int = 1024) -> float:
    """Carleson norm of arc-length measure on a family of circle arcs.

    Each arc is discretized by midpoint quadrature into weighted points and
    the same square-family search as carleson_norm runs over them, with
    centers decimated for tractability.  Arcs must lie in the open disk.
    """
    arcs = list(arcs)
    if not arcs:
        return 0.0
    pts = []
    wts = []
    for arc in arcs:
        p, w = arc.sample(samples_per_arc)
        pts.append(p)
        wts.append(w)
    pts = np.concatenate(pts)
    wts = np.concatenate(wts)
    r = np.abs(pts)
    if (r >= 1.0).any():
        raise InvariantViolation("arc leaves the open unit disk")
    angles = np.angle(pts)
    depths = 1.0 - r
    stride = max(1, len(pts) // max_centers)
    centers = angles[::stride]
    L = _dyadic_levels(depths)
    scales = set(float(2.0 ** (-l)) for l in range(L + 1))
    for d in depths[::stride]:
        for eta in ANCHOR_ETAS:
            scales.add(min(1.0, float(d * (1.0 + eta))))
    ratio, _, _ = _search_squares(angles, depths, wts, centers, sorted(scales))
    return ratio


def carleson_embedding_probe(s: FiniteSequence, p: float, family) -> float:
    """Max over test functions of (sum weights |f(z_j)|^p) / ||f||_Hp^p.

    The family entries are analytic-function objects from the norms module;
    their Hardy norms are computed numerically.
    """
    from .bergman import DEFAULT_RADII, hp_norm

    if len(s) == 0:
        return 0.0
    if not p > 0:
        raise ValueError("p must be positive")
    mu = mu_z_measure(s)
    best = 0.0
    for f in family:
        num = float((mu.weights * np.abs(f(mu.atoms)) ** p).sum())
        den = hp_norm(f, p, DEFAULT_RADII) ** p
        best = max(best, num / den)
    return best
