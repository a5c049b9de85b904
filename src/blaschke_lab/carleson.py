"""Carleson squares and Carleson norms.

A Carleson square over an arc I of the unit circle (arc length normalized
to total measure 1) is S_I = { z : z/|z| in I, 1 - |z| < m(I) }.  The
Carleson norm of a measure is the supremum of mu(S_I)/m(I).

For the discrete measures attached to zero sequences the supremum is
exact: every square that holds mass can be turned to start at an atom and
shrunk to a scale just above one atom's angular offset or depth.  With the
atoms sorted by angle once, the scales of the squares starting at each
atom are a window of the sorted arrays, nearly in order, so a stable sort
per starting angle is near linear (_square_sup).  carleson_norm returns
that supremum as a float.

For arc-length measure on a family of circle arcs, given as four
parallel arrays (centre, radius, start and end angle), the mass of every
arc inside a square is exact: the arc is cut where it crosses the circle
|z| = 1 - m and the two lines through the square's sides, and the pieces
whose midpoints lie inside are summed.  The supremum over all squares is
then bracketed by branch and bound over boxes of (centre angle, log
scale), to a relative gap of _GAP.
"""

from __future__ import annotations

import numpy as np

from .blaschke import _pair_sum
from .disk import (
    _BLOCK,
    FiniteSequence,
    InvariantViolation,
    _coords,
    _one_minus_abs2,
    _one_minus_rho2,
)

# arc_carleson_constant drops a box of squares once its upper bound is
# within this relative gap of the best square found, and stops after
# _MAX_REGIONS region masses: a family whose ratio is flat along a whole
# range of squares, such as a circle centred at 0, would refine without end.
_GAP = 1e-3
_MAX_REGIONS = 1 << 17


def _wrap(x):
    """Angles reduced to [-pi, pi)."""
    return (x + np.pi) % (2 * np.pi) - np.pi


def _square_sup(angles, depths, weights) -> float:
    """Supremum of mass/scale over all squares, for atoms of depth in (0, 1).

    Square (c, m) holds atom k iff |wrap(angle_k - c)| <= pi m and
    depth_k < m.  A square holding atoms turns, losing none, until its arc
    starts at the first atom it holds, so only arcs starting at an atom i
    matter.  With o_k the offset of atom k from atom i counter-clockwise,
    in turns, and tau_k = max(o_k, depth_k), a scale just above tau_k
    holds exactly the atoms with tau <= tau_k, and between consecutive
    tau the mass is constant while the ratio falls.  The supremum is the
    max over i and over tau_k < 1 of (mass with tau <= tau_k) / tau_k; a
    limit from above when the depth binds.

    The atoms are sorted once, by angle and then depth.  Atoms at one
    angle share a row, read from the first of them, and the atoms
    counter-clockwise from it are a window of the doubled arrays: the
    offsets (turn_k - turn_i, plus 1 past the end, the bits of
    (turn_k - turn_i) % 1) rise along the window, and tau breaks that
    order only where a depth binds.  A stable sort of such a row is near
    linear, and ties keep window order, so the masses of tied atoms are
    summed in an order that does not depend on the order of the input.
    Rows go in tiles of _BLOCK elements, each sorted and summed at once.
    """
    n = len(angles)
    by_angle = np.lexsort((depths, angles))
    turns = angles[by_angle] / (2 * np.pi)
    window = lambda x: np.lib.stride_tricks.sliding_window_view(x, n)
    turns2 = window(np.concatenate([turns, turns]))
    past_end = window(np.repeat([0.0, 1.0], n))
    depths2 = window(np.concatenate([depths[by_angle]] * 2))
    weights2 = np.concatenate([weights[by_angle]] * 2)
    starts = np.flatnonzero(np.diff(turns, prepend=np.nan))
    best = 0.0
    rows = max(1, _BLOCK // n)
    for i in range(0, len(starts), rows):
        first = starts[i:i + rows]
        tau = turns2[first]
        tau -= turns[first, None]
        tau[tau == 1.0] = 0.0  # from turn -1/2 to 1/2, which % 1 reads as 0
        tau += past_end[first]
        np.maximum(tau, depths2[first], out=tau)
        order = np.argsort(tau, axis=1, kind="stable")
        order += first[:, None]
        mass = np.cumsum(weights2[order], axis=1)
        tau.sort(axis=1, kind="stable")
        mass /= tau
        mass[tau >= 1.0] = 0.0
        best = max(best, float(mass.max()))
    return best


def carleson_norm(s: FiniteSequence) -> float:
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
        return 0.0
    return _square_sup(np.angle(zs[keep]), depths[keep], (s.mults * d2)[keep])


def uniform_blaschke_sup(s: FiniteSequence, probe_centers) -> float:
    """Max over probe centers c (an array-like of complex) of
    sum_j mult_j (1 - |phi_c(z_j)|^2), the transformed mass, alone: the pass
    over the pairs of zeros and centers forms no other sum and no
    logarithm (blaschke._pair_sum with disk._one_minus_rho2)."""
    pts = _coords(np.asarray(probe_centers, dtype=complex).ravel())
    mass = _pair_sum(_coords(s.zs), s.mults.astype(float), pts, _one_minus_rho2)
    return float(mass.max(initial=0.0))


class _ArcTable:
    """The arcs of positive length as arrays: centre c, rho = |c|,
    gamma = arg c, radius r, start t0, span t1 - t0 and length; the least
    and largest modulus along each arc; and the half-width of its circle's
    angle range about gamma (pi when the circle winds around 0)."""

    def __init__(self, center, radius, t0, t1):
        c = np.asarray(center, dtype=complex)
        r, t0, t1 = (np.asarray(x, dtype=float) for x in (radius, t0, t1))
        if c.ndim != 1 or not c.shape == r.shape == t0.shape == t1.shape:
            raise ValueError("arc centres, radii, t0 and t1 must be parallel 1-D arrays")
        span = t1 - t0
        kept = r * span > 0
        self.c, self.r, self.t0, self.span = c[kept], r[kept], t0[kept], span[kept]
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
        self.half = np.full(len(self.r), np.pi)
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


def arc_carleson_constant(center, radius, t0, t1) -> float:
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
    factor 1 + _GAP.  Arc i runs along |z - center[i]| = radius[i] from
    t0[i] to t1[i] radians, t0 <= t1 <= t0 + 2 pi, in the open disk; the
    four arguments are parallel 1-D arrays, and arcs of length 0 drop out.
    """
    tab = _ArcTable(center, radius, t0, t1)
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
