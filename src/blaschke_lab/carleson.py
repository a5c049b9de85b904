"""Carleson squares, Carleson norms, and sequence-space norms.

A Carleson square over an arc I of the unit circle (arc length normalized
to total measure 1) is S_I = { z : z/|z| in I, 1 - |z| < m(I) }.  The
Carleson norm of a measure is the supremum of mu(S_I)/m(I).

For the discrete measures attached to zero sequences the supremum is
exact: every square that holds mass can be turned to start at an atom and
shrunk to a scale just above one atom's angular offset or depth, so one
sort per atom finds it.

For arc-length measure on a family of circle arcs the mass of every arc
inside a square is exact: the arc is cut where it crosses the circle
|z| = 1 - m and the two lines through the square's sides, and the pieces
whose midpoints lie inside are summed.  The supremum over all squares is
then bracketed by branch and bound over boxes of (centre angle, log
scale), to a relative gap of _GAP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .disk import (
    _BLOCK,
    FiniteSequence,
    InvariantViolation,
    _coords,
    _log_rho2,
    _one_minus_abs2,
    _tiles,
    _tocomplex,
)

# arc_carleson_constant drops a box of squares once its upper bound is
# within this relative gap of the best square found, and stops after
# _MAX_REGIONS region masses: a family whose ratio is flat along a whole
# range of squares, such as a circle centred at 0, would refine without end.
_GAP = 1e-3
_MAX_REGIONS = 1 << 17


@dataclass(frozen=True)
class CarlesonSquare:
    """Square S_I for the arc of given center angle and normalized length."""

    arc_center: float
    arc_length: float

    def __post_init__(self):
        if not 0 < self.arc_length <= 1:
            raise InvariantViolation("arc length must lie in (0, 1]")


@dataclass(frozen=True)
class CarlesonNormReport:
    norm: float
    maximizing_square: CarlesonSquare | None
    method: str  # "point-anchored" | "n/a"


def mu_z_measure(s: FiniteSequence) -> np.ndarray:
    """The weights mult * (1 - |z_j|^2) of the measure mu_Z at its atoms,
    the listed points s.zs."""
    return s.mults * _one_minus_abs2(s.zs)


def _wrap(x):
    """Angles reduced to [-pi, pi)."""
    return (x + np.pi) % (2 * np.pi) - np.pi


def _square_sup(angles, depths, weights):
    """Supremum of mass/scale over all squares, for atoms of depth in
    (0, 1), and a square whose ratio is within a few roundings of it.

    Square (c, m) holds atom k iff |wrap(angle_k - c)| <= pi m and
    depth_k < m.  A square holding atoms turns, losing none, until its arc
    starts at the first atom it holds, so only arcs starting at an atom i
    matter.  With o_k the offset of atom k from atom i counter-clockwise,
    in turns, and tau_k = max(o_k, depth_k), a scale just above tau_k
    holds exactly the atoms with tau <= tau_k, and between consecutive
    tau the mass is constant while the ratio falls.  The supremum is the
    max over i and over tau_k < 1 of (mass with tau <= tau_k) / tau_k,
    taken by one sort and one cumulative sum per row i, in tiles of
    _BLOCK elements; a limit from above when the depth binds.

    The square starts at atom i with scale one float above tau_k, widened
    to the rounded angles of the atoms it must hold, so it holds them.
    """
    n = len(angles)
    turns = angles / (2 * np.pi)
    best = (0.0, 0, 1.0, None)
    rows = max(1, _BLOCK // n)
    for i in range(0, n, rows):
        tau = np.maximum((turns - turns[i:i + rows, None]) % 1.0, depths)
        order = np.argsort(tau, axis=1)
        tau = np.take_along_axis(tau, order, axis=1)
        ratio = np.where(tau < 1.0, np.cumsum(weights[order], axis=1) / tau, 0.0)
        r, k = np.unravel_index(np.argmax(ratio), ratio.shape)
        if ratio[r, k] > best[0]:
            best = (float(ratio[r, k]), i + r, float(tau[r, k]), order[r, :k + 1])
    sup, i, tau, held = best
    center = float((angles[i] + np.pi * tau) % (2 * np.pi))
    reach = np.abs(_wrap(angles[held] - center)).max() / np.pi * (1.0 + 4 * np.finfo(float).eps)
    scale = min(max(float(np.nextafter(tau, 2.0)), float(reach)), 1.0)
    return sup, CarlesonSquare(center, scale)


def carleson_norm(s: FiniteSequence) -> CarlesonNormReport:
    """Carleson norm of the sequence measure mu_Z: the exact supremum of
    mu_Z(S)/m over all squares S of scale m (see _square_sup).

    Depths 1 - |z| are taken as (1 - |z|^2) / (1 + |z|), accurate near
    the circle; atoms at 0 lie in no square.
    """
    zs = s.zs
    d2 = _one_minus_abs2(zs)
    depths = d2 / (1.0 + np.abs(zs))
    keep = depths < 1.0
    if not keep.any():
        return CarlesonNormReport(0.0, None, "n/a")
    sup, square = _square_sup(np.angle(zs[keep]), depths[keep], (s.mults * d2)[keep])
    return CarlesonNormReport(sup, square, "point-anchored")


def uniform_blaschke_sup(s: FiniteSequence, probe_centers) -> float:
    """Max over probe centers c of sum_j mult_j (1 - |phi_c(z_j)|^2).

    Each term is 1 - rho^2(c, z_j), taken as -expm1 of the Blaschke
    factor kernel's log rho^2 over blocks of centers.  The centers are a
    complex array, or any iterable of points (complex or DiskPoint).
    """
    if len(s) == 0:
        return 0.0
    zeros = _coords(s.zs)
    mults = s.mults.astype(float)
    if not isinstance(probe_centers, np.ndarray):
        probe_centers = np.array([_tocomplex(c) for c in probe_centers], dtype=complex)
    centers = _coords(probe_centers.astype(complex, copy=False).ravel())
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
    """Arc of the Euclidean circle |z - center| = radius, from t0 to t1
    radians, t0 <= t1 <= t0 + 2 pi."""

    center: complex
    radius: float
    t0: float
    t1: float

    def length(self) -> float:
        return self.radius * (self.t1 - self.t0)


class _ArcTable:
    """The arcs of positive length as arrays: centre c, rho = |c|,
    gamma = arg c, radius r, start t0, span t1 - t0 and length; the least
    and largest modulus along each arc; and the half-width of its circle's
    angle range about gamma (pi when the circle winds around 0)."""

    def __init__(self, arcs):
        arcs = [a for a in arcs if a.length() > 0]
        self.c = np.array([a.center for a in arcs], dtype=complex)
        self.r = np.array([a.radius for a in arcs], dtype=float)
        self.t0 = np.array([a.t0 for a in arcs], dtype=float)
        self.span = np.array([a.t1 - a.t0 for a in arcs], dtype=float)
        self.length = self.r * self.span
        self.rho = np.abs(self.c)
        self.gamma = np.angle(self.c)
        # |z|^2 = rho^2 + r^2 + 2 rho r cos(t - gamma) is extreme where the
        # arc passes gamma or gamma + pi, else at an end
        ends = np.cos(np.stack([self.t0, self.t0 + self.span]) - self.gamma)
        cos_hi = np.where(self._reaches(self.gamma), 1.0, ends.max(axis=0))
        cos_lo = np.where(self._reaches(self.gamma + np.pi), -1.0, ends.min(axis=0))
        sq = self.rho**2 + self.r**2
        self.r_max = np.sqrt(sq + 2 * self.rho * self.r * cos_hi)
        self.r_min = np.sqrt(np.maximum(sq + 2 * self.rho * self.r * cos_lo, 0.0))
        self.half = np.full(len(arcs), np.pi)
        off = self.rho > self.r
        self.half[off] = np.arcsin(self.r[off] / self.rho[off])

    def _reaches(self, t):
        return (t - self.t0) % (2 * np.pi) <= self.span


def _region_mass(tab: _ArcTable, phi, h, depth) -> np.ndarray:
    """Arc length of the family inside each region
    {|wrap(arg z - phi)| <= h, 1 - |z| < depth}, for arrays phi, h, depth,
    in chunks of regions whose temporaries stay under _BLOCK elements (for
    families of up to _BLOCK / 8 arcs).

    Arcs whose angle and modulus ranges lie wholly inside or wholly
    outside a region count in full or not at all; the rest go to _cut_mass.
    """
    out = np.empty(len(phi))
    rows = max(1, _BLOCK // (8 * len(tab.r)))
    for i in range(0, len(phi), rows):
        ph, hw = phi[i:i + rows, None], h[i:i + rows, None]
        lim = 1.0 - depth[i:i + rows, None]
        full = hw >= np.pi
        gap = np.abs(_wrap(tab.gamma - ph))
        inside = (tab.r_min > lim) & (full | (gap + tab.half <= hw))
        outside = (tab.r_max <= lim) | (~full & (gap - tab.half > hw))
        mass = np.where(inside, tab.length, 0.0)
        reg, arc = np.nonzero(~(inside | outside))
        mass[reg, arc] = _cut_mass(tab, arc, ph[reg, 0], hw[reg, 0], lim[reg, 0])
        out[i:i + rows] = mass.sum(axis=1)
    return out


def _cut_mass(tab: _ArcTable, arc, phi, h, lim) -> np.ndarray:
    """Exact length of arc[i] inside {|wrap(arg z - phi[i])| <= h[i], |z| > lim[i]}.

    On z = c + r e^(it) the modulus crosses lim where
    cos(t - gamma) = (lim^2 - rho^2 - r^2) / (2 rho r), and the line at
    angle psi where sin(t - psi) = -rho sin(gamma - psi) / r.  Those
    crossings cut the arc into at most seven pieces; each lies wholly
    inside or outside, which its midpoint decides.
    """
    rho, gamma, r = tab.rho[arc], tab.gamma[arc], tab.r[arc]
    t0, span = tab.t0[arc], tab.span[arc]
    cuts = np.empty((len(arc), 8))
    cuts[:, 0] = t0
    cuts[:, 1] = t0 + span
    with np.errstate(divide="ignore", invalid="ignore"):
        k = (lim * lim - rho * rho - r * r) / (2 * rho * r)
    crosses = np.abs(k) < 1
    turn = np.arccos(np.where(crosses, k, 1.0))
    cuts[:, 2] = np.where(crosses, gamma + turn, t0)
    cuts[:, 3] = np.where(crosses, gamma - turn, t0)
    for j, psi in enumerate((phi + h, phi - h)):
        sine = -rho * np.sin(gamma - psi) / r
        crosses = (np.abs(sine) < 1) & (h < np.pi)
        turn = np.arcsin(np.where(crosses, sine, 0.0))
        cuts[:, 4 + 2 * j] = np.where(crosses, psi + turn, t0)
        cuts[:, 5 + 2 * j] = np.where(crosses, psi + np.pi - turn, t0)
    cuts[:, 2:] = t0[:, None] + np.minimum((cuts[:, 2:] - t0[:, None]) % (2 * np.pi),
                                           span[:, None])
    cuts.sort(axis=1)
    z = tab.c[arc, None] + r[:, None] * np.exp(0.5j * (cuts[:, 1:] + cuts[:, :-1]))
    inside = (np.abs(z) > lim[:, None]) & (
        (h[:, None] >= np.pi) | (np.abs(_wrap(np.angle(z) - phi[:, None])) <= h[:, None]))
    return r * (np.diff(cuts, axis=1) * inside).sum(axis=1)


def arc_carleson_constant(arcs) -> float:
    """Carleson norm of arc-length measure on a family of circle arcs.

    Branch and bound over boxes [theta_a, theta_b] x [m_a, m_b] of squares
    (centre angle, scale), split in log scale.  Every square of a box lies
    in the region of half-width (theta_b - theta_a)/2 + pi m_b and depth
    m_b about the box's mid angle, so that region's exact mass over m_a
    bounds the box from above; the box's own square at (mid, m_b) bounds
    it from below.  The search starts from the m = 1 square, whose ratio
    is the total length, drops a box once its upper bound is within _GAP
    of the best ratio found, and splits the rest along their relatively
    wider side.  The value returned is the ratio of a real square; unless
    the _MAX_REGIONS budget ran out, no square exceeds it by more than a
    factor 1 + _GAP.  Arcs must lie in the open disk.
    """
    tab = _ArcTable(arcs)
    if len(tab.r) == 0:
        return 0.0
    if (tab.r_max >= 1.0).any():
        raise InvariantViolation("arc leaves the open unit disk")
    best = float(tab.length.sum())
    # boxes as arrays of theta_a, theta_b, log m_a, log m_b; a square no
    # deeper than the family's point nearest the circle holds no mass
    ta, tb = np.array([-np.pi]), np.array([np.pi])
    ua, ub = np.array([np.log1p(-tab.r_max.max())]), np.array([0.0])
    regions = 0
    while len(ta) and regions < _MAX_REGIONS:
        n = min(len(ta), (_MAX_REGIONS - regions) // 2)
        ta, tb, ua, ub = ta[:n], tb[:n], ua[:n], ub[:n]
        mid, ma, mb = 0.5 * (ta + tb), np.exp(ua), np.exp(ub)
        upper = _region_mass(tab, mid, 0.5 * (tb - ta) + np.pi * mb, mb) / ma
        lower = _region_mass(tab, mid, np.pi * mb, mb) / mb
        regions += 2 * n
        best = max(best, float(lower.max()))
        open_ = upper > best * (1.0 + _GAP)
        ta, tb, ua, ub, mb = ta[open_], tb[open_], ua[open_], ub[open_], mb[open_]
        by_angle = (tb - ta) / (2 * np.pi * mb) > ub - ua
        t_mid, u_mid = 0.5 * (ta + tb), 0.5 * (ua + ub)
        ta, tb, ua, ub = (np.concatenate([ta, np.where(by_angle, t_mid, ta)]),
                          np.concatenate([np.where(by_angle, t_mid, tb), tb]),
                          np.concatenate([ua, np.where(by_angle, ua, u_mid)]),
                          np.concatenate([np.where(by_angle, ub, u_mid), ub]))
    return best


def carleson_embedding_probe(s: FiniteSequence, p: float, family) -> float:
    """Max over test functions of (sum weights |f(z_j)|^p) / ||f||_Hp^p.

    The family entries are callables analytic on the disk; their Hardy
    norms are computed numerically (bergman.hp_norm).
    """
    from .bergman import hp_norm

    if len(s) == 0:
        return 0.0
    if not p > 0:
        raise ValueError("p must be positive")
    zs, weights = s.zs, mu_z_measure(s)
    best = 0.0
    for f in family:
        num = float((weights * np.abs(f(zs)) ** p).sum())
        den = hp_norm(f, p) ** p
        best = max(best, num / den)
    return best
