"""Finite Blaschke products and separation diagnostics.

A finite Blaschke product is the bounded analytic function

    B(z) = z^m * prod_k (conj(a_k)/|a_k|) (a_k - z) / (1 - conj(a_k) z)

over the nonzero points a_k of its zero sequence, with m the multiplicity
of 0.  This module evaluates B, measures separation constants (the
deleted products), counts zeros in metric disks, partitions sequences
into separated pieces, and probes compositions with disk automorphisms.

Every modulus (log|B|, the separation constants, zero counts) comes from
the metric's kernel for log rho^2 between a tile of zeros and a tile of
points (disk._log_rho2), in real arithmetic and free of cancellation near
the circle; complex values come from the factors in complex arithmetic
over the same tiles.  The per-point sums over the zeros that the battery
reads (sum m log rho^2 for the deleted products, the nearest zero, the
transformed mass sum m (1 - rho^2) and the zero count in a metric disk)
come from one pass over the pairs of zeros and points (_pair_sums).

log|B o phi_c| at many points (the recentred probes' quadrature nodes)
is a logarithmic potential of the moved zeros, and from _TREE_ZEROS
zeros and _TREE_POINTS points on it runs as a one-level treecode
(_Boxes): the points are grouped once into compact boxes, the zeros far
from a box enter through a local expansion about its centre, and only
the near ones go through the kernel.  A near pair is gathered pair by
pair, at about twice the cost of a pair of the plain kernel (17 to 25
against 8 to 11 ns per evaluation, one thread), so a box that at least
half of the zeros are near (2 near >= n) takes the plain kernel over all
of them instead: on the analysis grid these are the wide boxes of its
sparse rings, which hold 85-96% of the near pairs of the benchmark's
inputs.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import disk
from .disk import (
    FiniteSequence,
    InvariantViolation,
    _coords,
    _log_rho2,
    _one_minus_abs2,
    _one_minus_conj,
    _tiles,
    moebius,
)


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite Blaschke product determined by a zero sequence with multiplicities."""

    zeros: FiniteSequence

    @cached_property
    def _table(self):
        """Multiplicities (as floats), kernel coordinates of the listed
        zeros and the unimodular constants conj(a)/|a| of the factors (-1
        for a zero at 0, whose factor is z)."""
        zs = self.zeros.zs
        units = -np.ones(len(zs), dtype=complex)
        nonzero = zs != 0
        units[nonzero] = np.conj(zs[nonzero]) / np.abs(zs[nonzero])
        return self.zeros.mults.astype(float), _coords(zs), units


@dataclass(frozen=True)
class SeparationReport:
    """Separation constants of a zero sequence.

    delta        min over j of |B_j(z_j)| (deleted products), which is also
                 min over j of (1 - |z_j|^2) |B'(z_j)|
    discreteness min pairwise pseudohyperbolic distance (0 with repeated points)
    per_point    the individual |B_j(z_j)| values
    """

    delta: float
    discreteness: float
    per_point: np.ndarray


def _factors(a, da, units, z):
    """Factor values units (a - z) / (1 - conj(a) z) for zeros a (rows)
    against points z (columns), in complex arithmetic, with 1 - conj(a) z
    from _one_minus_conj and the error-free da = 1 - |a|^2: no cancelling."""
    a = a[:, None]
    return units[:, None] * (a - z) / _one_minus_conj(a, da[:, None], z)


def _points(z):
    """(flat complex array, scalar flag) for a scalar or array argument."""
    if isinstance(z, np.ndarray):
        return np.asarray(z, dtype=complex).ravel(), False
    return np.array([complex(z)]), True


def evaluate(b: BlaschkeProduct, z):
    """Value of the product at z; scalars map to complex, arrays to arrays."""
    w, scalar = _points(z)
    zs = b.zeros.zs
    mults, coords, units = b._table
    res = np.ones(len(w), dtype=complex)
    simple = b.zeros.is_simple()
    for r, c in _tiles(len(zs), len(w)):
        f = _factors(zs[r], coords[2, r], units[r], w[c])
        res[c] *= (f if simple else f ** mults[r, None]).prod(axis=0)
    return complex(res[0]) if scalar else res.reshape(np.shape(z))


def _log_abs(coords: np.ndarray, mults: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """sum of mults * log rho for zeros (coords) at points (pts), both
    given by their kernel coordinates."""
    res = np.zeros(pts.shape[1])
    for r, c in _tiles(coords.shape[1], pts.shape[1]):
        res[c] += mults[r] @ _log_rho2(coords[:, r], pts[:, c])
    res *= 0.5
    return res


def log_abs_evaluate(b: BlaschkeProduct, z):
    """sum of mult * log|factor|; -inf at zeros.  Stable for long products."""
    w, scalar = _points(z)
    mults, coords, _ = b._table
    res = _log_abs(coords, mults, _coords(w))
    return float(res[0]) if scalar else res.reshape(np.shape(z))


def _moved(b: BlaschkeProduct, c: complex) -> np.ndarray:
    """Kernel coordinates of the zeros moved by phi_c (disk.moebius).

    With dc = 1 - |c|^2 and da = 1 - |a|^2 error-free,
    1 - |phi_c(a)|^2 = dc da / (|c - a|^2 + dc da), so no step cancels near
    the circle.  The moved depths can fall far below BOUNDARY_FLOOR and
    |phi_c(a)| can round to 1: these are kernel coordinates only, never a
    FiniteSequence.
    """
    zs = b.zeros.zs
    moved = moebius(c, zs)
    d = c - zs
    prod = float(_one_minus_abs2(c)) * b._table[1][2]
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
    moved = [_moved(b, complex(c)) for c in centers]
    return _log_abs_moved(b, moved, w).reshape((len(centers),) + np.shape(z))


def _log_abs_moved(b: BlaschkeProduct, moved: list, w: np.ndarray) -> np.ndarray:
    """log|B o phi_c| at the points w (a flat complex array), one row per
    table of moved zeros from _moved.  The kernel coordinates of w are
    formed once for all rows.

    From _TREE_ZEROS listed zeros and _TREE_POINTS points on, the points
    are grouped into boxes once (_Boxes) and every row comes from the
    boxes' local expansions plus the direct kernel for near zeros; below,
    the direct kernel alone is cheaper.
    """
    mults = b._table[0]
    if len(mults) >= _TREE_ZEROS and len(w) >= _TREE_POINTS:
        boxes = _Boxes(w)  # before out: its temporaries go first
        out = np.empty((len(moved), len(w)))
        for k, coords in enumerate(moved):
            boxes.log_abs(coords, mults, out[k])
        return out
    pts = _coords(w)
    out = np.empty((len(moved), len(w)))
    for k, coords in enumerate(moved):
        out[k] = _log_abs(coords, mults, pts)
    return out


# The one-level treecode of _Boxes: a zero a is far from a box of nodes w
# with centre t and radius R >= |w - t| when R < _FAR * |a - t|.  Then
# log rho^2(a, w) = log rho^2(a, t) - 2 Re sum_k (d^k / k)(X^k - Y^k) with
# d = w - t, X = 1/(a - t) and Y = conj(a)/(1 - conj(a) t), |Y| <= |X|,
# and the series cut after _ORDER terms misses by at most
# 2 _FAR^(P+1) / ((P+1)(1 - _FAR)) = 2.5e-16 per pair.
_FAR = 0.2
_ORDER = 20
_BOX = 128  # nodes per box
# From these counts on the boxes beat the direct kernel.  Over the
# analysis grid with five centres the two tie at 20 zeros: the boxes take
# 1.13 to 1.14 of the kernel's time at 16 zeros and 0.88 to 0.93 at 24
# (random Carleson clouds and radial rays, medians of three runs).  At
# 200 zeros they take 0.62 of the kernel's time on 2,048 consecutive
# nodes near the circle but 1.16 on 1,024, and 0.20 on the graded rings
# near 0, while on 512 points of |z| = 1/2 every box takes the plain
# kernel and building the boxes makes them 1.5 to 1.7 times as slow.
_TREE_ZEROS = 20
_TREE_POINTS = 2048


def _morton_keys(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Z-order keys of points of the unit square [0, 1]^2: the bits of
    the 31-bit cell indices of x and y, interleaved."""
    keys = np.zeros(len(x), dtype=np.uint64)
    for bit, v in enumerate((x, y)):
        q = (v * float(1 << 31)).astype(np.uint64)
        for shift, mask in ((16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF),
                            (4, 0x0F0F0F0F0F0F0F0F), (2, 0x3333333333333333),
                            (1, 0x5555555555555555)):
            q |= q << np.uint64(shift)
            q &= np.uint64(mask)
        q <<= np.uint64(bit)
        keys |= q
    return keys


class _Boxes:
    """Points grouped into boxes of _BOX consecutive points along the
    Z-order curve of their polar coordinates, the last box padded with
    copies of its last point.

    The layout depends on the points alone, so one serves every table of
    moved zeros.  Slots hold in (boxes, _BOX) arrays: order (the point
    index of each slot) and coords (their kernel coordinates).  Each box
    has a centre t (the centroid) and a radius R = max |w - t|.
    """

    def __init__(self, w: np.ndarray):
        order = np.argsort(_morton_keys((np.angle(w) + np.pi) / (2.0 * np.pi),
                                        np.abs(w) / (2.0 * np.pi)), kind="stable")
        boxes = -(-len(order) // _BOX)
        order = np.concatenate([order, np.full(boxes * _BOX - len(order), order[-1])])
        self.order = order.reshape(boxes, _BOX)
        self.coords = _coords(w[order]).reshape(3, boxes, _BOX)
        self.centers = self.coords[0].mean(axis=1) + 1j * self.coords[1].mean(axis=1)
        self.radii = np.hypot(self.coords[0] - self.centers.real[:, None],
                              self.coords[1] - self.centers.imag[:, None]).max(axis=1)
        self.center_coords = _coords(self.centers)

    def log_abs(self, coords: np.ndarray, mults: np.ndarray, out: np.ndarray) -> None:
        """Write sum of mults * log rho for zeros (coords) at the points
        into out; a box that at least half of the zeros are near takes the
        plain kernel over all of them (see the module docstring)."""
        coef, half, near = self._expansions(coords, mults)
        plain = 2 * np.bincount(near[:, 1], minlength=len(self.centers)) >= len(mults)
        near = near[~plain[near[:, 1]]]
        step = max(1, disk._BLOCK // (4 * _BOX))
        for i in range(0, len(self.centers), step):
            bs = slice(i, i + step)
            # the local series by Horner in u = (w - t)/R, |u| <= 1
            u = self.coords[0, bs] + 1j * self.coords[1, bs]
            u -= self.centers[bs, None]
            u /= np.where(self.radii[bs] > 0.0, self.radii[bs], 1.0)[:, None]
            acc = u * coef[-1, bs, None]
            for k in range(_ORDER - 2, -1, -1):
                acc += coef[k, bs, None]
                acc *= u
            out[self.order[bs]] = 0.5 * half[bs, None] - acc.real
        for i in range(0, len(near), step):
            j, box = near[i:i + step].T
            lr = _log_rho2(coords[:, j], self.coords[:, box])
            lr *= mults[j][:, None]
            first = np.flatnonzero(np.diff(box, prepend=-1))
            # the padding repeats one point with one value: repeated
            # indices are harmless
            out[self.order[box[first]]] += 0.5 * np.add.reduceat(lr, first, axis=0)
        out[self.order[plain]] = _log_abs(coords, mults, self.coords[:, plain].reshape(3, -1)
                                          ).reshape(-1, _BOX)

    def _expansions(self, coords: np.ndarray, mults: np.ndarray):
        """Local expansion coefficients of the far zeros, one column per box
        (the 1/k folded in), sum of m log rho^2 at the box centres over the
        far zeros, and the near (zero, box) pairs, sorted by box."""
        boxes = len(self.centers)
        coef = np.empty((_ORDER, boxes), dtype=complex)
        half = np.empty(boxes)
        near = []
        step = max(1, disk._BLOCK // (4 * coords.shape[1]))
        for i in range(0, boxes, step):
            bs = slice(i, min(i + step, boxes))
            coef[:, bs], half[bs], (box, j) = self._far_field(coords, mults, bs)
            near.append(np.stack([j, box + i], axis=1))
        return coef, half, np.concatenate(near)

    def _far_field(self, coords: np.ndarray, mults: np.ndarray, bs: slice):
        """_expansions for the boxes bs; the near pairs as (box, zero)
        index arrays.  Its temporaries die on return.

        In the scaled variables x = R X and y = R Y the coefficients are
        sums of m (x^k - y^k)/k.  For a zero near the circle x and y nearly
        agree, so the powers are not subtracted: d_k = x^k - y^k follows
        d_(k+1) = x d_k + y^k d_1 from d_1 = R (1 - |a|^2) X / (1 - conj(a) t),
        and every term keeps its relative accuracy.
        """
        zs = (coords[0] + 1j * coords[1])[:, None]
        depth = coords[2][:, None]
        radii = self.radii[bs]
        centers = self.centers[bs]
        x = zs - centers
        den = _one_minus_conj(zs, depth, centers)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(radii, x, out=x)
            near = ~(np.abs(x) < _FAR)  # nan and inf (a at t) are near
            y = np.conj(zs) * radii
            y /= den
            d = np.divide(depth, den, out=den)
            d *= x
        for v in (x, y, d):
            v[near] = 0.0
        lr = _log_rho2(coords, self.center_coords[:, bs])
        lr[near] = 0.0
        half = mults @ lr
        del lr
        coef = np.empty((_ORDER, len(radii)), dtype=complex)
        e = y * d  # y^k d_1
        for k in range(_ORDER):
            # real weights against the interleaved real and imaginary parts
            coef[k] = (mults @ d.view(float)).view(complex) / (k + 1)
            d *= x
            d += e
            e *= y
        return coef, half, np.nonzero(near.T)


_PairSums = namedtuple("_PairSums", "logs least mass count")


def _pair_sums(b: BlaschkeProduct, w, r: float = 0.5) -> _PairSums:
    """Sums over the listed zeros z_j at each point of w (an array-like of
    complex), from one pass over the pairs in tiles of the log rho^2 kernel:

    logs   sum of m_j log rho^2(w, z_j)
    least  min of log rho^2(w, z_j), 0 when no zero is left
    mass   sum of m_j (1 - rho^2(w, z_j)), each term -expm1(log rho^2)
    count  sum of m_j over the zeros with rho(w, z_j) < r

    A zero at w itself (where the kernel is -inf) counts in mass and count,
    not in logs or least, so at the zeros logs gives the deleted products
    and least the nearest pair.
    """
    mults, coords, _ = b._table
    pts = _coords(np.asarray(w, dtype=complex).ravel())
    logs, least, mass, count = (np.zeros(pts.shape[1]) for _ in range(4))
    bound = 2.0 * np.log(r)
    for rows, cols in _tiles(len(mults), pts.shape[1]):
        lr = _log_rho2(coords[:, rows], pts[:, cols])
        m = mults[rows]
        mass[cols] += m @ -np.expm1(lr)
        count[cols] += m @ (lr < bound)
        lr[lr == -np.inf] = 0.0
        logs[cols] += m @ lr
        np.minimum(least[cols], lr.min(axis=0), out=least[cols])
    return _PairSums(logs, least, mass, count)


def separation_report(b: BlaschkeProduct) -> SeparationReport:
    """Compute all separation constants of the zero sequence.

    One pass over the pairs of zeros (_pair_sums at the zeros) gives the
    deleted products and the discreteness.  By the identity
    (1 - |z_j|^2)|B'(z_j)| = |B_j(z_j)| at a simple zero (the derivative
    vanishes at a multiple one) delta is also the derivative form delta'.
    """
    if len(b.zeros) == 0:
        raise InvariantViolation("separation report needs a nonempty sequence")
    return _separation(b, _pair_sums(b, b.zeros.zs))


def _separation(b: BlaschkeProduct, at_zeros: _PairSums) -> SeparationReport:
    """The separation constants from the pair sums at the zeros."""
    per_point = np.where(b.zeros.mults > 1, 0.0, np.exp(0.5 * at_zeros.logs))
    # a lone point keeps discreteness 1
    discreteness = float(np.exp(0.5 * at_zeros.least.min())) if b.zeros.is_simple() else 0.0
    return SeparationReport(float(per_point.min()), discreteness, per_point)


def max_local_count(b: BlaschkeProduct, r: float) -> int:
    """Max over the zeros themselves of the number of zeros (with
    multiplicity) at pseudohyperbolic distance < r.

    Searching centers in the zero set is a certified lower bound for the
    supremum over the whole disk: a disk D(c, r) holding k zeros contains a
    zero z* whose doubled disk D(z*, 2r/(1+r^2)) holds the same k.
    """
    if not 0 < r < 1:
        raise ValueError("radius must lie in (0, 1)")
    return int(_pair_sums(b, b.zeros.zs, r).count.max(initial=0.0))


def _greedy_parts(zs: np.ndarray, sep: float, mults=None) -> list:
    """Greedy first fit of the points zs, each taken mults times (once by
    default), into parts with pairwise distance > sep; returns index lists.

    Points go in order of increasing modulus, then angle, then position;
    each joins the first part all of whose members are farther than sep,
    else opens a new part.  A point of multiplicity m takes the m lowest
    parts its earlier near neighbours leave free, as its m adjacent copies
    would one by one, each blocking the next.  The kernel coordinates are
    formed once, and the near rows of a chunk of points (in that order)
    against all points in one kernel call; part_of holds the part of each
    copy, those of point i at the slots first[i] to first[i + 1] - 1.
    """
    n = len(zs)
    coords = _coords(zs)
    points = zs.tolist()  # scalar moduli: numpy's vectorised abs can differ in the last bit
    order = np.array(sorted(range(n), key=lambda i: (abs(points[i]), np.angle(points[i]))),
                     dtype=int)
    ms = [1] * n if mults is None else mults.tolist()
    owner = np.repeat(np.arange(n), ms)  # the point of each slot
    first = np.cumsum([0] + ms).tolist()
    part_of = np.full(len(owner), -1)
    count = 0
    step = max(1, disk._BLOCK // max(1, len(owner)))
    for start in range(0, n, step):
        chunk = order[start:start + step]
        near = np.exp(0.5 * _log_rho2(coords[:, chunk], coords)) <= sep
        if len(owner) > n:
            near = near[:, owner]
        for i, row in zip(chunk.tolist(), near):
            m = ms[i]
            # slots 0..count+m-1 are the candidate parts, m of them free,
            # and the last slot absorbs the unplaced copies (part -1)
            free = np.ones(count + m + 1, dtype=bool)
            free[part_of[row]] = False
            parts = free.nonzero()[0][:m]
            part_of[first[i]:first[i + 1]] = parts
            count = max(count, int(parts[-1]) + 1)
    # the members of each part in placement order
    members = owner[np.lexsort((np.argsort(order)[owner], part_of))]
    return [p.tolist() for p in np.split(members, np.cumsum(np.bincount(part_of)))[:-1]]


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
    return [FiniteSequence(s.zs[part]) for part in _greedy_parts(s.zs, sep)]


# radius and samples of the composition probe's circle
_PROBE_RHO = 0.5
_PROBE_GRID = 512


def compose_min_on_compact(b: BlaschkeProduct, center) -> float:
    """Size of B composed with the automorphism swapping 0 and center,
    measured as the max of |B(phi_center(z))| over a grid on |z| <= 1/2.

    The modulus of an analytic function peaks on the bounding circle, so the
    grid samples _PROBE_GRID points of |z| = _PROBE_RHO; the circle stays
    fixed and the zeros move (log_abs_composed).  A small value certifies
    that this composition is nearly 0 on the compact set, the failure mode
    of the 'uniformly nonzero' property.
    """
    return float(np.exp(log_abs_composed(b, [center], _circle(_PROBE_RHO, _PROBE_GRID)).max()))


def _circle(rho: float, grid: int) -> np.ndarray:
    """The probe's samples rho exp(2 pi i k / grid) of |z| = rho."""
    theta = 2.0 * np.pi * np.arange(grid) / grid
    return rho * np.exp(1j * theta)


# The pruned probe (_least_compose_max) first reads every _COARSE-th sample
# of the circle: 32 of 512.  On the bench inputs 16, 32 and 64 samples
# leave the same centres to evaluate in full, except the radial rays at 1
# and 1 + pi (66, 40 and 40 of 92); more samples add kernel work to every
# centre and prune no further.
_COARSE = 16


def _probe_bounds(b: BlaschkeProduct, centers: np.ndarray) -> np.ndarray:
    """Per center c, a lower bound on log compose_min_on_compact(b, c)
    as that call computes it, from every _COARSE-th of its samples.

    The samples are a subset of the call's own, so their exact log max L*
    is at most the exact full one F*.  Each computed log modulus is a sum of
    n terms m log rho^2 <= 0, one per listed zero, and each term carries a
    relative error of a few units of 2^-53 after the shared coordinates;
    summed in any order (however BLAS blocks the product), a computed log
    max is within e = (n + 16) 2^-53 of its own magnitude of the exact one.
    So the computed L and F obey L - e|L| <= L* <= F* <= F + e|L|, and
    L (1 + 4 (n + 16) 2^-53) <= F with room for the rounding of the product.
    Centers go in chunks whose moved zeros stay within the kernel's tile.
    """
    coarse = _circle(_PROBE_RHO, _PROBE_GRID)[::_COARSE]
    out = np.empty(len(centers))
    step = max(1, disk._BLOCK // len(b.zeros))
    for i in range(0, len(centers), step):
        out[i:i + step] = log_abs_composed(b, centers[i:i + step], coarse).max(axis=1)
    out *= 1.0 + 4.0 * (len(b.zeros) + 16) * 2.0**-53
    return out


def _least_compose_max(b: BlaschkeProduct, centers: np.ndarray) -> float:
    """min over centers of compose_min_on_compact(b, c), by a pruned
    search that returns the same float.

    The centers are visited in increasing _probe_bounds, each with the full
    call, until the exp of the next bound exceeds the least value found:
    exp is monotone, so no center left can fall below it.  A value of 0
    (a sample on a moved zero) ends the search at once.  On the benchmark's
    random Carleson clouds (n = 200 and 800) one center gets the full call.
    """
    bounds = _probe_bounds(b, centers)
    best = np.inf
    for i in np.argsort(bounds, kind="stable"):
        if best == 0.0 or np.exp(bounds[i]) > best:
            break
        best = min(best, compose_min_on_compact(b, centers[i]))
    return float(best)
