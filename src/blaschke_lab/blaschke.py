"""Finite Blaschke products and separation diagnostics.

A finite Blaschke product is the bounded analytic function

    B(z) = z^m * prod_k (conj(a_k)/|a_k|) (a_k - z) / (1 - conj(a_k) z)

over the nonzero points a_k of its zero sequence, with m the multiplicity
of 0.  This module evaluates B, measures separation constants (the
deleted products), counts zeros in metric disks, partitions sequences
into separated pieces, and probes compositions with disk automorphisms.

Every sum over pairs of zeros and points is one tiled loop, _pair_sum,
with the kernel its caller reads: log rho^2 (disk._log_rho2) for log|B|,
in real arithmetic and free of cancellation near the circle; 1 - rho^2 =
q / (|a - z|^2 + q) (disk._one_minus_rho2) for the transformed mass of
carleson.uniform_blaschke_sup; and the test 1 - rho^2 > 1 - r^2 for the
zero count of max_local_count, these two with no logarithm; and the
closed-form mean of log|factor| over the composition probe's circle
(_jensen_terms), which prunes the probe's search.
separation_report keeps a loop of its own, which forms sum m log rho^2
and the least log rho^2 at the zeros and nothing else.  The depths of the
moved zeros come from 1 - rho^2 too; complex values come from the factors
in complex arithmetic.

log|B o phi_c| at many points (the recentred probes' quadrature nodes)
is a logarithmic potential of the moved zeros, and from _TREE_ZEROS
zeros and _TREE_POINTS points on it runs as a one-level treecode
(_Boxes): the points are grouped into compact boxes once per grid, the
zeros far from a box enter through a local expansion about its centre,
and only the near ones go through the kernel.  A near pair is gathered
pair by pair, at about twice the cost of a pair of the plain kernel (17
to 25 against 8 to 11 ns per evaluation, one thread), so a box that at least
half of the zeros are near (2 near >= n) takes the plain kernel over all
of them instead: on the analysis grid these are the wide boxes of its
sparse rings, which hold 85-96% of the near pairs of the benchmark's
inputs.  Such a plain box is picked out before the far-field recurrence
and gets neither expansion coefficients nor a Horner pass.  The zeros
are moved by every centre of a call in one array operation
(_moved_zeros).  A fixed grid holds its boxes, which carry the one table
of its points' kernel coordinates, across calls: the analysis grid's node
blocks (bergman.QuadratureGrid) and the composition probe's circle
(_probe_circle).  Any other points are grouped, or given coordinates,
per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from . import disk
from .disk import (
    FiniteSequence,
    InvariantViolation,
    _coords,
    _log_rho2,
    _one_minus_conj,
    _one_minus_rho2,
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


def _pair_sum(coords: np.ndarray, mults: np.ndarray, pts: np.ndarray, kernel) -> np.ndarray:
    """sum over the zeros a_j of m_j kernel(a_j, z) at each point z, for
    zeros (coords) and points (pts) given by their kernel coordinates, one
    tile of disk._tiles at a time (the kernels: see the module docstring)."""
    out = np.zeros(pts.shape[1])
    for r, c in _tiles(coords.shape[1], pts.shape[1]):
        out[c] += mults[r] @ kernel(coords[:, r], pts[:, c])
    return out


def log_abs_evaluate(b: BlaschkeProduct, z):
    """sum of mult * log|factor|; -inf at zeros.  Stable for long products."""
    w, scalar = _points(z)
    mults, coords, _ = b._table
    res = 0.5 * _pair_sum(coords, mults, _coords(w), _log_rho2)
    return float(res[0]) if scalar else res.reshape(np.shape(z))


def _moved_zeros(b: BlaschkeProduct, centers) -> np.ndarray:
    """Kernel coordinates of the zeros moved by phi_c (disk.moebius), one
    (3, zeros) table per center c of the array-like centers, all centers
    in one array operation: shape (centers, 3, zeros).

    With dc = 1 - |c|^2 and da = 1 - |a|^2 error-free,
    1 - |phi_c(a)|^2 = 1 - rho^2(c, a) = dc da / (|c - a|^2 + dc da)
    (disk._one_minus_rho2), so no step cancels near the circle.  The moved
    depths can fall far below BOUNDARY_FLOOR and |phi_c(a)| can round to 1:
    these are kernel coordinates only, never a FiniteSequence.
    """
    c = np.asarray(centers, dtype=complex).ravel()
    moved = moebius(c[:, None], b.zeros.zs)
    return np.stack([moved.real, moved.imag, _one_minus_rho2(_coords(c), b._table[1])], axis=1)


def log_abs_composed(b: BlaschkeProduct, centers, z) -> np.ndarray:
    """log|B(phi_c(z))| for each center c (rows) at the points z (columns).

    phi_c preserves rho and is an involution, so rho(a, phi_c(z)) =
    rho(phi_c(a), z): the zeros move and the points stay.  Mapping the
    points instead would move the point evaluated by about eps/|phi_c'(z)|,
    which grows like 1/(1 - |c|^2) at deep centers.  The kernel
    coordinates of z are formed once for all centers.
    """
    w = np.asarray(z, dtype=complex).ravel()
    out = _log_abs_moved(b, _moved_zeros(b, centers), w)
    return out.reshape((len(out),) + np.shape(z))


def _log_abs_moved(b: BlaschkeProduct, moved: np.ndarray, w: np.ndarray,
                   boxes: _Boxes | None = None) -> np.ndarray:
    """log|B o phi_c| at the points w (a flat complex array), one row per
    table of moved zeros from _moved_zeros.  The kernel coordinates of w
    are formed once for all rows.

    From _TREE_ZEROS listed zeros and _TREE_POINTS points on, the points
    are grouped into boxes once (_Boxes) and every row comes from the
    boxes' local expansions plus the direct kernel for near zeros; below,
    the direct kernel alone is cheaper.  A fixed grid passes the boxes it
    holds for w, and both paths read their coordinates instead of forming
    new ones.
    """
    mults = b._table[0]
    if len(mults) >= _TREE_ZEROS and len(w) >= _TREE_POINTS:
        if boxes is None:
            boxes = _Boxes(w)  # before out: its temporaries go first
        out = np.empty((len(moved), len(w)))
        for k, coords in enumerate(moved):
            boxes.log_abs(coords, mults, out[k])
        return out
    pts = _coords(w) if boxes is None else boxes.node_coords()
    out = np.empty((len(moved), len(w)))
    for k, coords in enumerate(moved):
        out[k] = 0.5 * _pair_sum(coords, mults, pts, _log_rho2)
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
    moved zeros, and a fixed grid holds it across calls.  Slots hold in
    (boxes, _BOX) arrays: order (the point index of each slot) and coords
    (their kernel coordinates, the only coordinate table kept).  Once
    read, slots maps each point back to its slot, so that a held layout
    also gives the points and their coordinates in their own order.  Each
    box has a centre t (the centroid) and a radius R = max |w - t|.
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

    @cached_property
    def slots(self) -> np.ndarray:
        """The slot of each point (of a padded point, its last copy), kept
        with the boxes once read: 4 bytes a point."""
        slots = np.empty(self.order.max() + 1, dtype=np.int32)
        slots[self.order.ravel()] = np.arange(self.order.size)
        return slots

    def node_coords(self) -> np.ndarray:
        """The kernel coordinates in the points' own order, copied from the
        slots."""
        return np.take(self.coords.reshape(3, -1), self.slots, axis=1)

    def points(self) -> np.ndarray:
        """The points in their own order, the floats they were given,
        copied from the slots' coordinates."""
        flat = self.coords.reshape(3, -1)
        w = np.empty(len(self.slots), dtype=complex)
        np.take(flat[0], self.slots, out=w.real)
        np.take(flat[1], self.slots, out=w.imag)
        return w

    def log_abs(self, coords: np.ndarray, mults: np.ndarray, out: np.ndarray) -> None:
        """Write sum of mults * log rho for zeros (coords) at the points
        into out.  A box that at least half of the zeros are near takes the
        plain kernel over all of them (see the module docstring), and no
        expansion or series; the others take their series and near pairs."""
        tree, coef, half, near = self._expansions(coords, mults)
        step = max(1, disk._BLOCK // (4 * _BOX))
        for i in range(0, len(tree), step):
            bs, cs = tree[i:i + step], slice(i, i + step)
            # the local series by Horner in u = (w - t)/R, |u| <= 1
            u = self.coords[0, bs] + 1j * self.coords[1, bs]
            u -= self.centers[bs, None]
            u /= np.where(self.radii[bs] > 0.0, self.radii[bs], 1.0)[:, None]
            acc = u * coef[-1, cs, None]
            for k in range(_ORDER - 2, -1, -1):
                acc += coef[k, cs, None]
                acc *= u
            out[self.order[bs]] = 0.5 * half[cs, None] - acc.real
        for i in range(0, len(near), step):
            j, box = near[i:i + step].T
            lr = _log_rho2(coords[:, j], self.coords[:, box])
            lr *= mults[j][:, None]
            first = np.flatnonzero(np.diff(box, prepend=-1))
            # the padding repeats one point with one value: repeated
            # indices are harmless
            out[self.order[box[first]]] += 0.5 * np.add.reduceat(lr, first, axis=0)
        plain = np.ones(len(self.centers), dtype=bool)
        plain[tree] = False
        pts = self.coords[:, plain].reshape(3, -1)
        out[self.order[plain]] = 0.5 * _pair_sum(coords, mults, pts, _log_rho2).reshape(-1, _BOX)

    def _expansions(self, coords: np.ndarray, mults: np.ndarray):
        """The boxes that fewer than half of the zeros are near (the tree
        boxes, in increasing order), the local expansion coefficients of
        their far zeros, one column per tree box (the 1/k folded in), the
        sums of m log rho^2 at their centres over the far zeros, and their
        near (zero, box) pairs, sorted by box.  Plain boxes get nothing."""
        parts = []
        step = max(1, disk._BLOCK // (4 * coords.shape[1]))
        for i in range(0, len(self.centers), step):
            tree, coef, half, (box, j) = self._far_field(coords, mults, slice(i, i + step))
            parts.append((tree + i, coef, half, np.stack([j, tree[box] + i], axis=1)))
        tree, coef, half, near = zip(*parts)
        return (np.concatenate(tree), np.concatenate(coef, axis=1), np.concatenate(half),
                np.concatenate(near))

    def _far_field(self, coords: np.ndarray, mults: np.ndarray, bs: slice):
        """_expansions for the boxes bs, with the tree boxes numbered from
        the start of bs and the near pairs as (tree box, zero) index arrays
        into that selection.  Its temporaries die on return.

        In the scaled variables x = R X and y = R Y the coefficients are
        sums of m (x^k - y^k)/k.  For a zero near the circle x and y nearly
        agree, so the powers are not subtracted: d_k = x^k - y^k follows
        d_(k+1) = x d_k + y^k d_1 from d_1 = R (1 - |a|^2) X / (1 - conj(a) t),
        and every term keeps its relative accuracy.
        """
        zs = (coords[0] + 1j * coords[1])[:, None]
        depth = coords[2][:, None]
        x = zs - self.centers[bs]
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(self.radii[bs], x, out=x)
            near = ~(np.abs(x) < _FAR)  # nan and inf (a at t) are near
        tree = np.flatnonzero(2 * np.count_nonzero(near, axis=0) < len(mults))
        x, near = x[:, tree], near[:, tree]
        centers, radii = self.centers[bs][tree], self.radii[bs][tree]
        den = _one_minus_conj(zs, depth, centers)
        with np.errstate(divide="ignore", invalid="ignore"):
            y = np.conj(zs) * radii
            y /= den
            d = np.divide(depth, den, out=den)
            d *= x
        for v in (x, y, d):
            v[near] = 0.0
        lr = _log_rho2(coords, self.center_coords[:, bs][:, tree])
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
        return tree, coef, half, np.nonzero(near.T)


def separation_report(b: BlaschkeProduct) -> SeparationReport:
    """Compute all separation constants of the zero sequence.

    One pass over the pairs of zeros, in tiles of disk._tiles, forms at
    each zero z_i the sum of m_j log rho^2(z_i, z_j) over the other zeros,
    whose exp(1/2 .) is the deleted product, and the least of their
    log rho^2, the nearest pair; a zero's own pair (-inf) enters neither.
    By the identity (1 - |z_j|^2)|B'(z_j)| = |B_j(z_j)| at a simple zero
    (the derivative vanishes at a multiple one) delta is also the
    derivative form delta'.
    """
    if len(b.zeros) == 0:
        raise InvariantViolation("separation report needs a nonempty sequence")
    mults, coords, _ = b._table
    logs, least = np.zeros(len(mults)), np.zeros(len(mults))
    for rows, cols in _tiles(len(mults), len(mults)):
        lr = _log_rho2(coords[:, rows], coords[:, cols])
        lr[lr == -np.inf] = 0.0
        logs[cols] += mults[rows] @ lr
        np.minimum(least[cols], lr.min(axis=0), out=least[cols])
    per_point = np.where(b.zeros.mults > 1, 0.0, np.exp(0.5 * logs))
    # a lone point keeps discreteness 1
    discreteness = float(np.exp(0.5 * least.min())) if b.zeros.is_simple() else 0.0
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
    mults, coords, _ = b._table
    near = 1.0 - r * r  # rho < r read as 1 - rho^2 > 1 - r^2, with no logarithm
    count = _pair_sum(coords, mults, coords, lambda a, z: _one_minus_rho2(a, z) > near)
    return int(count.max(initial=0.0))


def _lowest_free(taken: list, m: int) -> list:
    """The m lowest integers >= 0 outside the half-open ranges taken, as
    half-open ranges in increasing order."""
    out, start = [], 0
    for lo, hi in sorted(taken):
        if lo > start:
            out.append((start, min(lo, start + m)))
            m -= out[-1][1] - start
            if m == 0:
                return out
        start = max(start, hi)
    return out + [(start, start + m)]


def _greedy_parts(zs: np.ndarray, sep: float, mults=None) -> list:
    """Greedy first fit of the points zs, each taken mults times (once by
    default), into parts with pairwise distance > sep; returns the parts
    as (index list, count) pairs: count consecutive parts that hold the
    same listed points, in part order.

    Points go in order of increasing modulus, then angle, then position;
    each joins the first part all of whose members are farther than sep,
    else opens a new part.  A point of multiplicity m takes the m lowest
    parts its earlier near neighbours leave free, as its m adjacent copies
    would one by one, each blocking the next.  Each point's parts are kept
    as ranges, so the work and memory follow the listed points and their
    ranges, not the multiplicities.  The kernel coordinates are formed
    once, and the near rows of a chunk of points (in that order) against
    all points in one kernel call.
    """
    n = len(zs)
    coords = _coords(zs)
    points = zs.tolist()  # scalar moduli: numpy's vectorised abs can differ in the last bit
    order = sorted(range(n), key=lambda i: (abs(points[i]), np.angle(points[i])))
    ms = [1] * n if mults is None else mults.tolist()
    ranges = [[] for _ in range(n)]  # the parts of each placed point
    step = max(1, disk._BLOCK // max(1, n))
    for start in range(0, n, step):
        chunk = order[start:start + step]
        near = np.exp(0.5 * _log_rho2(coords[:, chunk], coords)) <= sep
        for i, row in zip(chunk, near):
            ranges[i] = _lowest_free([r for j in np.flatnonzero(row).tolist() for r in ranges[j]],
                                     ms[i])
    # cut the parts where any point's ranges start or stop; the members of
    # each piece in placement order
    cuts = sorted({x for rs in ranges for r in rs for x in r})
    piece = {x: k for k, x in enumerate(cuts)}
    members = [[] for _ in cuts[1:]]
    for i in order:
        for lo, hi in ranges[i]:
            for k in range(piece[lo], piece[hi]):
                members[k].append(i)
    return [(part, hi - lo) for part, lo, hi in zip(members, cuts, cuts[1:])]


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
    return [FiniteSequence(s.zs[part]) for part, _ in _greedy_parts(s.zs, sep)]


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
    return float(_composed_max(b, [center])[0])


def _circle(rho: float, grid: int) -> np.ndarray:
    """The probe's samples rho exp(2 pi i k / grid) of |z| = rho."""
    theta = 2.0 * np.pi * np.arange(grid) / grid
    return rho * np.exp(1j * theta)


@cache
def _probe_circle() -> tuple:
    """The probe's samples and their _Boxes (the table of their kernel
    coordinates), built once."""
    w = _circle(_PROBE_RHO, _PROBE_GRID)
    w.flags.writeable = False
    return w, _Boxes(w)


def _composed_max(b: BlaschkeProduct, centers) -> np.ndarray:
    """compose_min_on_compact(b, c) at each of the centers: one row of
    log|B o phi_c| per center on the held circle, each row the pair sum
    a single center would get, bit for bit."""
    rows = _log_abs_moved(b, _moved_zeros(b, centers), *_probe_circle())
    return np.exp(rows.max(axis=1))


# _least_compose_max: Jensen bounds within this fraction of the least one
# tie, and the ordered search evaluates this many centers in one call
_TIED = 2.0**-20
_BATCH = 8

# The pruned probe's second filter (_probe_bounds) reads every _COARSE-th
# sample of the circle, 32 of 512, at the centres that the closed-form
# Jensen means (_jensen_bounds) leave.  On the bench inputs, before the
# Jensen filter, 16, 32 and 64 samples left the same centres to evaluate
# in full, except the radial rays at 1 and 1 + pi (66, 40 and 40 of 92);
# more samples add kernel work to every centre they read and prune no
# further.
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
    _least_compose_max reads it only at the centers whose Jensen means
    (_jensen_bounds) leave them in the running.
    """
    coarse = _probe_circle()[0][::_COARSE]
    out = np.empty(len(centers))
    step = max(1, disk._BLOCK // len(b.zeros))
    for i in range(0, len(centers), step):
        out[i:i + step] = log_abs_composed(b, centers[i:i + step], coarse).max(axis=1)
    out *= 1.0 + 4.0 * (len(b.zeros) + 16) * 2.0**-53
    return out


# _jensen_terms forms the phase term only where |v|^N >= 2^-64, that is
# where |phi_c(a)| lies within a factor 2^(1/8) of _PROBE_RHO: at moved
# depths 1 - |phi_c(a)|^2 between these two.
_PHASE_DEPTHS = (1.0 - _PROBE_RHO**2 * 2.0**0.25, 1.0 - _PROBE_RHO**2 * 2.0**-0.25)


def _jensen_terms(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """For zeros a (rows) and centers c (columns), both given by their
    kernel coordinates, the mean of log rho(a', w) with a' = phi_c(a) over
    the probe's N = 2^9 nodes w = r exp(2 pi i k / N), r = _PROBE_RHO, in
    closed form; -inf where a node lies within 2^-18 of a'.

    The nodes' products of a' - w and of 1 - conj(a') w are a'^N - r^N
    and 1 - (conj(a') r)^N.  With v = a'/r inside |w| = r and r/a'
    outside, the mean is max(log|a'|, log r) + log|1 - v^N| / N, less a
    term below 2^-511, which is dropped.  log|a'| = log1p(-d)/2 comes from
    the moved depth d = 1 - |a'|^2 (the depth _moved_zeros gives the full
    call), so it keeps its digits however near the circle a' lies.  The
    phase term, from a' = disk.moebius(c, a) and nine squarings of v, is
    formed only at depths inside _PHASE_DEPTHS and is below 2^-64 / N
    elsewhere.  Where |1 - v^N| < 2^-8 the term is -inf; otherwise
    |a' - w| >= 2^-18 at every node, since |1 - v^N| <= N |v - w/r|.
    """
    depth = _one_minus_rho2(a, c)
    out = np.log1p(-np.minimum(depth, 1.0 - _PROBE_RHO**2))
    out *= 0.5
    phase = (depth > _PHASE_DEPTHS[0]) & (depth < _PHASE_DEPTHS[1])
    if phase.any():
        zero, center = np.nonzero(phase)
        moved = moebius(c[0, center] + 1j * c[1, center], a[0, zero] + 1j * a[1, zero])
        v = np.where(depth[phase] > 1.0 - _PROBE_RHO**2, moved / _PROBE_RHO, _PROBE_RHO / moved)
        for _ in range(_PROBE_GRID.bit_length() - 1):
            v *= v
        gap = np.abs(1.0 - v)
        with np.errstate(divide="ignore"):
            out[phase] += np.where(gap < 2.0**-8, -np.inf, np.log(gap) / _PROBE_GRID)
    return out


def _jensen_bounds(b: BlaschkeProduct, centers: np.ndarray) -> np.ndarray:
    """Per center c, a lower bound on log compose_min_on_compact(b, c) as
    that call computes it: the mean J of log|B o phi_c| over the call's
    own nodes, which is at most their max, in closed form (_jensen_terms)
    from one pass of _pair_sum, with no sample taken.

    The slack.  J and the call's log max F are sums of n terms <= 0, one
    per listed zero, so a relative bound on every term bounds the sum.
    Let k units of 2^-53 be the relative error of a moved zero (a few for
    disk.moebius; the slack allows 2^5).  (1) Summed in any order, J and
    F each carry (n + 16) 2^-53 of themselves, as in _probe_bounds.
    (2) Each term of J is within 2^8 (k + 4) 2^-53 of itself of the exact
    mean: log1p of the moved depth keeps its relative accuracy at any
    depth, repeated squaring is backward stable, and an error of
    N (k + 3) units in v^N moves log|1 - v^N| >= -8 log 2 by at most
    2^8 N (k + 3) units.  (3) The call reads nodes and moved zeros that
    are rounded, and log rho^2(a', w) changes by at most
    2 (|da'| + |dw|) / |a' - w| of itself, plus the depth's relative
    error; a' lies 2^-18 or more from every node (outside the phase band
    by 0.04), so each of the call's terms is within 2^19 (k + 4) 2^-53 of
    its exact value.  The three stay below 4 (n + 16) 2^-53 + 2^-28 of
    |J|, so J (1 + that) <= F.
    """
    mults, coords, _ = b._table
    out = _pair_sum(coords, mults, _coords(np.asarray(centers, dtype=complex)), _jensen_terms)
    out *= 1.0 + 4.0 * (len(mults) + 16) * 2.0**-53 + 2.0**-28
    return out


def _least_compose_max(b: BlaschkeProduct, centers: np.ndarray) -> float:
    """min over centers of compose_min_on_compact(b, c), by a pruned
    search that returns the same float.

    Two filters, both lower bounds on the log of the full call: the
    Jensen mean (_jensen_bounds, no samples) and _probe_bounds (32 samples
    each).  The centers whose Jensen bound ties the least one to within
    _TIED of itself get their _probe_bounds, and the one of least bound
    takes the full call first: on the split escalating family the points
    of one level tie to 4e-7 and the least Jensen mean is not the winner.
    Only the centers whose Jensen bound's exp is at or below that value
    are left.  They are visited in increasing _probe_bounds, _BATCH at a
    time, each batch one call on the held circle (_composed_max), until
    the exp of the next bound exceeds the least value found: exp is
    monotone, so no center left can fall below it, and a center of a
    batch that the sequential order would have skipped has a value above
    its bound, so it cannot lower the minimum.  A value of 0 (a sample on
    a moved zero) ends the search.  On the benchmark's random Carleson
    clouds (n = 200 and 800) 1 to 9 centers besides the first pass the
    Jensen filter, and one or two get the full call; on the split
    escalating family the first one is the winner.
    """
    jensen = _jensen_bounds(b, centers)
    bounds = np.full(len(centers), np.nan)
    tied = np.flatnonzero(jensen <= jensen.min() * (1.0 - _TIED))
    bounds[tied] = _probe_bounds(b, centers[tied])
    first = tied[np.argmin(bounds[tied])]
    best = compose_min_on_compact(b, centers[first])
    left = np.flatnonzero(np.exp(jensen) <= best)
    left = left[left != first]
    fresh = left[np.isnan(bounds[left])]
    bounds[fresh] = _probe_bounds(b, centers[fresh])
    order = left[np.argsort(bounds[left], kind="stable")]
    for i in range(0, len(order), _BATCH):
        batch = order[i:i + _BATCH]
        batch = batch[np.exp(bounds[batch]) <= best]  # a prefix: the bounds ascend
        if best == 0.0 or not len(batch):
            break
        best = min(best, float(_composed_max(b, centers[batch]).min()))
    return float(best)
