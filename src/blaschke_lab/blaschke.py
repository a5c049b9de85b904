"""Finite Blaschke products and separation diagnostics.

A finite Blaschke product is the bounded analytic function

    B(z) = z^m * prod_k (conj(a_k)/|a_k|) (a_k - z) / (1 - conj(a_k) z)

over the nonzero points a_k of its zero sequence, with m the multiplicity
of 0.  This module evaluates B and its derivative, forms deleted products,
measures separation constants, counts zeros in metric disks, partitions
sequences into separated pieces, and probes compositions with disk
automorphisms.

Every modulus (log|B|, the separation constants, zero counts) comes from
the metric's kernel for log rho^2 between a tile of zeros and a tile of
points (disk._log_rho2), in real arithmetic and free of cancellation near
the circle; complex values come from the factors in complex arithmetic
over the same tiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .disk import (
    FiniteSequence,
    InvariantViolation,
    _coords,
    _log_rho2,
    _one_minus_abs2,
    _tiles,
    _tocomplex,
)


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite Blaschke product determined by a zero sequence with multiplicities."""

    zeros: FiniteSequence

    @classmethod
    def from_complex(cls, values, multiplicities=None) -> "BlaschkeProduct":
        return cls(FiniteSequence.from_complex(values, multiplicities))

    @property
    def degree(self) -> int:
        return self.zeros.total_count

    @cached_property
    def _table(self):
        """Listed zeros, multiplicities (as floats), their kernel
        coordinates and the unimodular constants conj(a)/|a| of the
        factors (-1 for a zero at 0, whose factor is z)."""
        zs = self.zeros.zs
        units = -np.ones(len(zs), dtype=complex)
        nonzero = zs != 0
        units[nonzero] = np.conj(zs[nonzero]) / np.abs(zs[nonzero])
        return zs, self.zeros.mults.astype(float), _coords(zs), units


@dataclass(frozen=True)
class SeparationReport:
    """Separation constants of a zero sequence.

    delta        min over j of |B_j(z_j)| (deleted products)
    delta_prime  min over j of (1 - |z_j|^2) |B'(z_j)|
    discreteness min pairwise pseudohyperbolic distance (0 with repeated points)
    per_point    the individual |B_j(z_j)| values
    """

    delta: float
    delta_prime: float
    discreteness: float
    per_point: np.ndarray


def _factors(a, units, z):
    """Factor values units (a - z) / (1 - conj(a) z) for zeros a (rows)
    against points z (columns), in complex arithmetic."""
    return units[:, None] * np.subtract.outer(a, z) / (1.0 - np.multiply.outer(np.conj(a), z))


def _points(z):
    """(flat complex array, scalar flag) for a scalar or array argument."""
    if isinstance(z, np.ndarray):
        return np.asarray(z, dtype=complex).ravel(), False
    return np.array([_tocomplex(z)]), True


def evaluate(b: BlaschkeProduct, z):
    """Value of the product at z; scalars map to complex, arrays to arrays."""
    w, scalar = _points(z)
    zs, mults, _, units = b._table
    res = np.ones(len(w), dtype=complex)
    if len(zs):
        simple = b.zeros.is_simple()
        for r, c in _tiles(len(zs), len(w)):
            f = _factors(zs[r], units[r], w[c])
            res[c] *= (f if simple else f ** mults[r, None]).prod(axis=0)
    return complex(res[0]) if scalar else res.reshape(np.shape(z))


def _log_abs(coords: np.ndarray, mults: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """sum of mults * log rho for zeros (coords) at points (pts), both
    given by their kernel coordinates."""
    res = np.zeros(pts.shape[1])
    if coords.shape[1]:
        for r, c in _tiles(coords.shape[1], pts.shape[1]):
            res[c] += mults[r] @ _log_rho2(coords[:, r], pts[:, c])
        res *= 0.5
    return res


def log_abs_evaluate(b: BlaschkeProduct, z):
    """sum of mult * log|factor|; -inf at zeros.  Stable for long products."""
    w, scalar = _points(z)
    _, mults, coords, _ = b._table
    res = _log_abs(coords, mults, _coords(w))
    return float(res[0]) if scalar else res.reshape(np.shape(z))


def _moved(b: BlaschkeProduct, c: complex) -> np.ndarray:
    """Kernel coordinates of the zeros moved by phi_c(z) = (c - z)/(1 - conj(c) z).

    With dc = 1 - |c|^2 and da = 1 - |a|^2 error-free, 1 - conj(c) a =
    dc + conj(c)(c - a) and 1 - |phi_c(a)|^2 = dc da / (|c - a|^2 + dc da),
    so no step cancels near the circle.  The moved depths can fall far
    below BOUNDARY_FLOOR and |phi_c(a)| can round to 1: these are kernel
    coordinates only, never a FiniteSequence.
    """
    zs, _, coords, _ = b._table
    dc = float(_one_minus_abs2(c))
    d = c - zs
    moved = d / (dc + np.conj(c) * d)
    prod = dc * coords[2]
    return np.stack([moved.real, moved.imag, prod / (d.real**2 + d.imag**2 + prod)])


def log_abs_composed(b: BlaschkeProduct, centers, z) -> np.ndarray:
    """log|B(phi_c(z))| for each center c (rows) at the points z (columns).

    phi_c preserves rho and is an involution, so rho(a, phi_c(z)) =
    rho(phi_c(a), z): the zeros move and the points stay.  Mapping the
    points instead would move the point evaluated by about eps/|phi_c'(z)|,
    which grows like 1/(1 - |c|^2) at deep centers.  The kernel
    coordinates of z are formed once for all centers.
    """
    w = np.asarray(z, dtype=complex).ravel()
    moved = [_moved(b, _tocomplex(c)) for c in centers]
    return _log_abs_moved(b, moved, _coords(w)).reshape((len(centers),) + np.shape(z))


def _log_abs_moved(b: BlaschkeProduct, moved: list, pts: np.ndarray) -> np.ndarray:
    """log|B o phi_c| at points given by kernel coordinates, one row per
    table of moved zeros from _moved."""
    out = np.empty((len(moved), pts.shape[1]))
    for k, coords in enumerate(moved):
        out[k] = _log_abs(coords, b._table[1], pts)
    return out


def deleted_product(b: BlaschkeProduct, j: int) -> complex:
    """B_j(z_j): the product over all other zeros, evaluated at zero j.

    Returns 0 when zero j is repeated, 1 for a lone zero (empty product).
    The modulus comes from the log rho^2 kernel, as in separation_report;
    the argument is the sum of the complex factors' arguments.
    """
    n = len(b.zeros)
    if not 0 <= j < n:
        raise IndexError(f"zero index {j} out of range for {n} listed zeros")
    zs, mults, coords, units = b._table
    if mults[j] > 1:
        return 0.0 + 0.0j
    a, m, unit = (np.delete(v, j) for v in (zs, mults, units))
    log_mod = 0.5 * m @ _log_rho2(np.delete(coords, j, axis=1), coords[:, j:j + 1])[:, 0]
    arg = m @ np.angle(_factors(a, unit, zs[j:j + 1])[:, 0])
    return complex(np.exp(log_mod + 1j * arg))


def derivative(b: BlaschkeProduct, z) -> complex:
    """Analytic derivative B'(z).

    Off the zero set this is B(z) times the logarithmic derivative; at a
    simple zero the product rule leaves the deleted product times the own
    factor's derivative; at a multiple zero the derivative is exactly 0.
    """
    w = _tocomplex(z)
    zs, mults, _, units = b._table
    hit = np.nonzero(zs == w)[0]
    if hit.size:
        j = int(hit[0])
        if mults[j] > 1:
            return 0.0 + 0.0j
        # the own factor's derivative -unit / (1 - |a|^2), with -unit = 1 at a = 0
        return deleted_product(b, j) * -units[j] / float(_one_minus_abs2(zs[j]))
    # the term m (|a|^2 - 1) / ((1 - conj(a) w)(a - w)) is m / w for a = 0
    logd = (mults * (np.abs(zs) ** 2 - 1.0) / ((1.0 - np.conj(zs) * w) * (zs - w))).sum()
    return evaluate(b, w) * complex(logd)


def separation_report(b: BlaschkeProduct) -> SeparationReport:
    """Compute all separation constants of the zero sequence.

    One pass over the pairwise log rho^2 matrix, its diagonal masked, gives
    the deleted products and the discreteness.  delta_prime follows from
    the identity (1 - |z_j|^2)|B'(z_j)| = |B_j(z_j)| at a simple zero
    (the derivative vanishes at a multiple one), so it equals delta.
    """
    n = len(b.zeros)
    if n == 0:
        raise InvariantViolation("separation report needs a nonempty sequence")
    _, mults, coords, _ = b._table
    logs = np.zeros(n)
    nearest = 0.0
    for r, c in _tiles(n, n):
        lr = _log_rho2(coords[:, r], coords[:, c])
        i = np.arange(max(r.start, c.start), min(r.stop, c.stop))
        lr[i - r.start, i - c.start] = 0.0
        logs[c] += mults[r] @ lr
        nearest = min(nearest, float(lr.min()))
    per_point = np.where(mults > 1, 0.0, np.exp(0.5 * logs))
    delta = float(per_point.min())
    # log rho^2 < 0 off the diagonal, so the masked zeros never win the min
    # and a lone point keeps discreteness 1
    discreteness = float(np.exp(0.5 * nearest)) if b.zeros.is_simple() else 0.0
    return SeparationReport(delta, delta, discreteness, per_point)


def _local_counts(b: BlaschkeProduct, centers: np.ndarray, r: float) -> np.ndarray:
    """Zeros (with multiplicity) at pseudohyperbolic distance < r from each center."""
    zs, mults, coords, _ = b._table
    counts = np.zeros(len(centers))
    pts = _coords(centers)
    bound = 2.0 * np.log(r)
    for rows, cols in _tiles(len(zs), len(centers)):
        counts[cols] += mults[rows] @ (_log_rho2(coords[:, rows], pts[:, cols]) < bound)
    return counts


def max_local_count(b: BlaschkeProduct, r: float, extra_centers=()) -> int:
    """Max over the zeros themselves plus optional centers of the number of
    zeros (with multiplicity) at pseudohyperbolic distance < r.

    Searching centers in the zero set is a certified lower bound for the
    supremum over the whole disk: a disk D(c, r) holding k zeros contains a
    zero z* whose doubled disk D(z*, 2r/(1+r^2)) holds the same k.  Pass a
    fine grid through ``extra_centers`` to tighten the search.
    """
    if not 0 < r < 1:
        raise ValueError("radius must lie in (0, 1)")
    if len(b.zeros) == 0:
        return 0
    centers = np.concatenate([b._table[0],
                              np.array([_tocomplex(c) for c in extra_centers], dtype=complex)])
    return int(_local_counts(b, centers, r).max())


def _greedy_parts(zs: np.ndarray, sep: float) -> list:
    """Greedy first fit of the points zs (repeats allowed) into parts with
    pairwise distance > sep; returns index lists.

    Points go in order of increasing modulus, then angle, then position;
    each joins the first part all of whose members are farther than sep,
    else opens a new part.  The kernel coordinates are formed once, and
    each point's distances to all points in one kernel call.
    """
    coords = _coords(zs)
    points = zs.tolist()  # scalar moduli: numpy's vectorised abs can differ in the last bit
    order = sorted(range(len(points)), key=lambda i: (abs(points[i]), np.angle(points[i])))
    parts: list[list[int]] = []
    for i in order:
        dist = np.exp(0.5 * _log_rho2(coords[:, i:i + 1], coords)[0])
        for part in parts:
            if dist[part].min() > sep:
                part.append(i)
                break
        else:
            parts.append([i])
    return parts


def partition_separated(s: FiniteSequence, sep: float):
    """Split a simple sequence into parts with pairwise distance > sep each.

    Greedy first fit over points sorted by increasing modulus: each point
    joins the first part all of whose members are farther than sep, else
    opens a new part.  Deterministic; the part count is bounded by the max
    local zero count at radius sep.
    """
    if not 0 < sep < 1:
        raise ValueError("separation must lie in (0, 1)")
    if not s.is_simple():
        raise InvariantViolation("inseparable multiplicity")
    return [
        FiniteSequence(tuple(s.points[i] for i in part), (1,) * len(part))
        for part in _greedy_parts(s.zs, sep)
    ]


def compose_min_on_compact(
    b: BlaschkeProduct, center, rho: float, grid: int = 512
) -> float:
    """Size of B composed with the automorphism swapping 0 and center,
    measured as the max of |B(phi_center(z))| over a grid on |z| <= rho.

    The modulus of an analytic function peaks on the bounding circle, so the
    grid samples |z| = rho; the circle stays fixed and the zeros move
    (log_abs_composed).  A small value certifies that this composition
    is nearly 0 on the compact set, the failure mode of the 'uniformly
    nonzero' property.
    """
    if not 0 < rho < 1:
        raise ValueError("rho must lie in (0, 1)")
    if grid < 8:
        raise ValueError("need at least 8 grid samples")
    theta = 2.0 * np.pi * np.arange(grid) / grid
    circle = rho * np.exp(1j * theta)
    return float(np.exp(log_abs_composed(b, [center], circle).max()))
