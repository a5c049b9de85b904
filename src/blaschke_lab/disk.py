"""Pseudohyperbolic geometry of the open unit disk.

Finite point sequences with multiplicities (two read-only arrays), the
disk automorphisms ``(c - z) / (1 - conj(c) z)``, the metric
``rho = |(z - w) / (1 - conj(w) z)|``, and small grid helpers.  Everything
here is immutable after construction and every operation is a pure function.

The metric comes from one kernel for log rho^2 between a tile of points
and another, in real arithmetic and free of cancellation near the circle
(_log_rho2); the Blaschke moduli, separation constants and zero counts of
the other modules use the same kernel.  Every complex 1 - conj(c) z of the
package comes from one error-free form too (_one_minus_conj).
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass

import numpy as np

# Below this gap double precision loses all accuracy in 1 - conj(w)z, so
# construction rejects such points instead of propagating garbage.
BOUNDARY_FLOOR = 1e-14

# 2**27 + 1: Veltkamp's constant, splitting a double into two 26-bit halves
_SPLITTER = 134217729.0

# Elements per tile of the rho kernel, and the widest row of a tile.
# Every temporary the kernel allocates has at most _BLOCK elements,
# however many points a call passes; smaller calls get a single tile of
# their size.  A tile's rows are min(k, _ROW) columns wide for k points:
# on numpy 2.4.6 (one thread) the broadcast a[:, None] - z costs 0.9 to
# 1.1 ns per element on rows of 128 to 2,048 columns and 0.3 ns from
# 4,096 on, and _log_rho2 with its reduction 7.1 to 7.2 ns per pair on
# tiles of 92 x 356 or 200 x 163 against 4.6 ns on 8 x 4,096 (2.9 ns for
# _one_minus_rho2).
_BLOCK = 1 << 15
_ROW = 1 << 12


class InvariantViolation(ValueError):
    """A domain invariant was broken (point outside disk, duplicate entry, ...)."""


def _one_minus_abs2(z):
    """1 - |z|^2 of a complex scalar or array, accurate to about one
    rounding also near the unit circle, where the naive difference cancels.

    Each square is split error-free (Dekker's product with Veltkamp's
    split), the sum of the two squares by Knuth's error-free sum; with
    x^2 + y^2 rounded to s in [1/2, 2], 1 - s is exact and the three
    rounding errors make up the rest (Ogita, Rump and Oishi 2005).
    """
    z = np.asarray(z, dtype=complex)
    v = np.ascontiguousarray(z).reshape(-1).view(np.float64)  # re, im interleaved
    sq = v * v
    hi = _SPLITTER * v
    hi -= hi - v
    lo = v - hi
    err = hi * hi
    err -= sq
    hi *= lo
    hi += hi
    err += hi
    lo *= lo
    err += lo  # v^2 = sq + err exactly, up to lo^2's last bits
    re2, im2 = sq[0::2], sq[1::2]
    s = re2 + im2
    t = s - re2
    corr = (re2 - (s - t)) + (im2 - t)
    corr += err[0::2]
    corr += err[1::2]
    return ((1.0 - s) - corr).reshape(z.shape)


def _one_minus_conj(c, dc, z):
    """1 - conj(c) z for complex scalars or broadcasting arrays c and z, as
    dc + conj(c)(c - z) with dc = 1 - |c|^2 from _one_minus_abs2: it does
    not cancel near the circle, and it is exactly dc at z = c."""
    return dc + c.conjugate() * (c - z)


def _tiles(m: int, k: int):
    """Row and column slices covering an m x k array in tiles of at most
    _BLOCK elements, with rows min(k, _ROW) columns wide (narrower only
    when _BLOCK is); none when the array is empty."""
    cols = max(1, min(k, _ROW, _BLOCK))
    rows = _BLOCK // cols
    for i in range(0, m, rows):
        for j in range(0, k, cols):
            yield slice(i, min(i + rows, m)), slice(j, min(j + cols, k))


def _coords(z: np.ndarray) -> np.ndarray:
    """Kernel coordinates of a flat complex array: rows re, im, 1 - |z|^2.
    The depths are formed a tile at a time, so their temporaries stay
    within _BLOCK elements."""
    out = np.empty((3, len(z)))
    out[0] = z.real
    out[1] = z.imag
    step = max(1, _BLOCK // 8)
    for i in range(0, len(z), step):
        out[2, i:i + step] = _one_minus_abs2(z[i:i + step])
    return out


def _log_rho2(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """log rho^2(a_i, z_j) for points a (rows) against points z (columns),
    both given by their kernel coordinates.  z may also hold one row of
    points per point of a, shape (3, rows, columns).

    rho = |(a - z) / (1 - conj(a) z)| is the pseudohyperbolic distance, and
    the modulus of the Blaschke factor with zero a.
    With the depths da = 1 - |a|^2 and dz = 1 - |z|^2 exact, the identity
    |1 - conj(a) z|^2 = |a - z|^2 + da dz gives
    log rho^2 = -log1p(da dz / |a - z|^2) in real arithmetic, free of the
    cancellation in 1 - conj(a) z near the circle; -inf where z = a.

    Below |a - z| = 1.5e-154 the square |a - z|^2 underflows and the
    quotient can overflow.  A tile whose floating-point flags report either
    is formed again, those pairs from logarithms (_log_rho2_tiny).
    """
    dx = a[0][:, None] - z[0]
    dy = a[1][:, None] - z[1]
    try:
        with np.errstate(divide="ignore", over="raise", under="raise"):
            dx *= dx
            dy *= dy
            dx += dy
            out = a[2][:, None] * z[2]
            out /= dx
    except FloatingPointError:
        return _log_rho2_tiny(a, z)
    np.log1p(out, out=out)
    return np.negative(out, out=out)


def _one_minus_rho2(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """1 - rho^2(a_i, z_j) for points a (rows) against points z (columns),
    both given by their kernel coordinates, as q / (|a - z|^2 + q) with
    q = da dz: the identity of _log_rho2 with no transcendental.  It is
    exactly 1 where z = a, and where |a - z|^2 underflows, silently."""
    dx = a[0][:, None] - z[0]
    dy = a[1][:, None] - z[1]
    dx *= dx
    dy *= dy
    dx += dy
    q = a[2][:, None] * z[2]
    dx += q
    return np.divide(q, dx, out=q)


def _log_rho2_tiny(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """_log_rho2 for a tile whose flags fired.  Where |a - z|^2 falls below
    the least normal double, log rho^2 = 2 log|a - z| - log(da dz) -
    log1p(|a - z|^2/(da dz)) with |a - z| from hypot, which neither
    underflows nor overflows; the other pairs as in _log_rho2, bit for bit."""
    dx = a[0][:, None] - z[0]
    dy = a[1][:, None] - z[1]
    depth = a[2][:, None] * z[2]
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        out = -np.log1p(depth / (dx * dx + dy * dy))
        tiny = dx * dx + dy * dy < np.finfo(float).tiny
        h, depth = np.hypot(dx[tiny], dy[tiny]), depth[tiny]
        out[tiny] = 2.0 * np.log(h) - np.log(depth) - np.log1p(h / depth * h)
    return out


def inside_floor(z) -> bool:
    """True when |z| < 1 - BOUNDARY_FLOOR, the test by which points are
    accepted.  It takes Python's abs of a scalar: numpy's vectorised
    modulus can differ from it in the last bit, and does at the floor."""
    return abs(z) < 1.0 - BOUNDARY_FLOOR


def _check_point(z: complex) -> None:
    if not cmath.isfinite(z):
        raise InvariantViolation("disk point coordinates must be finite")
    if not inside_floor(z):
        raise InvariantViolation(
            f"point {z.real}+{z.imag}j too close to the unit circle "
            f"(need 1 - |z| >= {BOUNDARY_FLOOR})"
        )


_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True, eq=False)
class FiniteSequence:
    """A finite list of distinct disk points with positive multiplicities.

    zs (complex128) and mults (int64, all ones by default) are parallel
    1-D arrays, validated once and read-only.  Repetition is expressed
    only through mults; two listed entries are never equal as complex
    numbers.  The total count fits int64, so sums of mults never wrap.
    """

    zs: np.ndarray
    mults: np.ndarray | None = None

    def __post_init__(self):
        zs = np.array(self.zs, dtype=complex)
        if zs.ndim != 1:
            raise InvariantViolation("points must form a 1-D array")
        values = zs.tolist()
        for z in values:
            _check_point(z)
        if self.mults is None:
            mults = np.ones(len(zs), dtype=np.int64)
        else:
            ms = list(self.mults)
            if len(ms) != len(zs):
                raise InvariantViolation("multiplicities must parallel points")
            for m in ms:
                if not isinstance(m, (int, np.integer)) or m < 1:
                    raise InvariantViolation(f"multiplicity {m!r} is not a positive integer")
            total = sum(int(m) for m in ms)
            if total > _INT64_MAX:
                raise InvariantViolation(f"total multiplicity {total} exceeds the int64 limit")
            mults = np.array(ms, dtype=np.int64)
        if len(set(values)) != len(values):
            raise InvariantViolation("duplicate points; use multiplicities for repetition")
        zs.flags.writeable = False
        mults.flags.writeable = False
        object.__setattr__(self, "zs", zs)
        object.__setattr__(self, "mults", mults)

    @property
    def total_count(self) -> int:
        """Number of points counted with multiplicity."""
        return int(self.mults.sum())

    def is_simple(self) -> bool:
        return bool((self.mults == 1).all())

    def __len__(self) -> int:
        return len(self.zs)


def moebius(c, z):
    """phi_c(z) = (c - z) / (1 - conj(c) z), the involutive disk automorphism
    swapping 0 and c, at scalars or arrays z.  c is a complex scalar, or an
    array of centres broadcasting against z (c[:, None] gives one row per
    centre), each element as a scalar c would give it.  The denominator
    comes from _one_minus_conj with the error-free dc = 1 - |c|^2, so it
    does not cancel near the circle.  c is not checked against the floor:
    no outside input reaches it.  A Python-scalar z with a scalar c runs
    Python's complex division, which can differ in the last bits from
    numpy's for the same z in an array: it did in 54% of 20,000 random
    pairs in |z| < 0.999."""
    dc = _one_minus_abs2(c)
    # a scalar c keeps Python's complex arithmetic, and with it its bits
    return (c - z) / _one_minus_conj(c, dc if dc.ndim else float(dc), z)


def psh_distance(z, w) -> float:
    """Pseudohyperbolic distance |(z - w) / (1 - conj(w) z)| in [0, 1)."""
    return float(psh_distance_pairwise(np.array([complex(z)]), np.array([complex(w)]))[0, 0])


def psh_distance_pairwise(zs: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """Matrix of distances between two complex arrays (rows: zs, cols: ws),
    exp(log rho^2 / 2) from the kernel, tile by tile."""
    a = _coords(np.asarray(zs, dtype=complex))
    b = _coords(np.asarray(ws, dtype=complex))
    out = np.empty((a.shape[1], b.shape[1]))
    for r, c in _tiles(*out.shape):
        out[r, c] = np.exp(0.5 * _log_rho2(a[:, r], b[:, c]))
    return out


# most centers hyperbolic_grid returns
_GRID_POINTS = 20000


def hyperbolic_grid(r_max: float, pitch: float) -> np.ndarray:
    """Centers covering |z| <= r_max with pseudohyperbolic pitch about
    ``pitch``, at most _GRID_POINTS of them.

    Rings advance by the metric's addition law r' = (r + pitch)/(1 + r*pitch)
    and each ring carries enough angles that neighbours stay within one pitch.
    Ring sizes grow like 1/(1 - r), so the cap binds on deep inputs: at
    pitch 0.25 and any r_max from 1 - 4^-8 on (the deep inputs of
    ``verify --level full``) the grid ends at r = 0.9984, its last ring
    only partly filled, not at r_max.  The rings up to r_max are a prefix
    of the capped grid of the pitch, which is built once (_pitch_grid);
    each call returns a copy of that prefix.
    """
    if not 0 < pitch < 1:
        raise ValueError("pitch must lie in (0, 1)")
    centers, radii, ends = _pitch_grid(pitch)
    # the rings with r <= r_max (all of them when r_max is nan), as the
    # loop that stopped at the first ring past r_max took them
    return centers[:ends[np.count_nonzero(~(radii > r_max))]].copy()


@functools.lru_cache(maxsize=2)
def _pitch_grid(pitch: float) -> tuple:
    """hyperbolic_grid's centers with no bound on r, read-only; the radius
    of each ring; and the number of centers up to each ring (ends[k] after
    the first k rings, ends[0] = 1 for the center 0)."""
    centers, radii, ends = [0.0 + 0.0j], [], [1]
    r = 0.0
    while len(centers) < _GRID_POINTS:
        r = (r + pitch) / (1.0 + r * pitch)
        n_theta = max(6, int(np.ceil(2.0 * np.pi * r / ((1.0 - r * r) * pitch))))
        n_theta = min(n_theta, _GRID_POINTS - len(centers))
        theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
        centers.extend(r * np.exp(1j * theta))
        radii.append(r)
        ends.append(len(centers))
    centers, radii = np.array(centers, dtype=complex), np.array(radii)
    centers.flags.writeable = radii.flags.writeable = False
    return centers, radii, tuple(ends)
