"""Pseudohyperbolic geometry of the open unit disk.

Points, finite point sequences with multiplicities, the disk automorphisms
``(c - z) / (1 - conj(c) z)``, the metric ``rho = |(z - w) / (1 - conj(w) z)|``,
and small grid helpers.  Everything here is immutable after construction
and every operation is a pure function.

The metric comes from one kernel for log rho^2 between a tile of points
and another, in real arithmetic and free of cancellation near the circle
(_log_rho2); the Blaschke moduli, separation constants and zero counts of
the other modules use the same kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Below this gap double precision loses all accuracy in 1 - conj(w)z, so
# construction rejects such points instead of propagating garbage.
BOUNDARY_FLOOR = 1e-14

# 2**27 + 1: Veltkamp's constant, splitting a double into two 26-bit halves
_SPLITTER = 134217729.0

# Elements per tile of the rho kernel.  Every temporary the kernel
# allocates has at most this many elements, however many points a call
# passes; smaller calls get a single tile of their size.
_BLOCK = 1 << 15


class InvariantViolation(ValueError):
    """A domain invariant was broken (point outside disk, duplicate entry, ...)."""


def _tocomplex(z) -> complex:
    """Accept DiskPoint, complex or real and return a plain complex number."""
    if isinstance(z, DiskPoint):
        return z.z
    return complex(z)


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


def _tiles(m: int, k: int):
    """Row and column slices covering an m x k array (m, k >= 1) in tiles
    of at most _BLOCK elements."""
    rows = min(m, _BLOCK)
    cols = max(1, _BLOCK // rows)
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
    """True when |z| < 1 - BOUNDARY_FLOOR, the test by which DiskPoint
    accepts a point."""
    return abs(z) < 1.0 - BOUNDARY_FLOOR


@dataclass(frozen=True)
class DiskPoint:
    """A point of the open unit disk, kept strictly inside the conditioning floor."""

    re: float
    im: float

    def __post_init__(self):
        if not (np.isfinite(self.re) and np.isfinite(self.im)):
            raise InvariantViolation("disk point coordinates must be finite")
        if not inside_floor(self.z):
            raise InvariantViolation(
                f"point {self.re}+{self.im}j too close to the unit circle "
                f"(need 1 - |z| >= {BOUNDARY_FLOOR})"
            )

    @property
    def z(self) -> complex:
        return complex(self.re, self.im)

    @classmethod
    def from_complex(cls, z) -> "DiskPoint":
        z = complex(z)
        return cls(z.real, z.imag)

    def __abs__(self) -> float:
        return abs(self.z)


@dataclass(frozen=True)
class FiniteSequence:
    """A finite list of distinct disk points with positive multiplicities.

    Repetition is expressed only through ``multiplicities``; two listed
    entries are never equal as complex numbers.
    """

    points: tuple = field(default_factory=tuple)
    multiplicities: tuple = field(default_factory=tuple)

    def __post_init__(self):
        pts = tuple(
            p if isinstance(p, DiskPoint) else DiskPoint.from_complex(p)
            for p in self.points
        )
        mults = tuple(self.multiplicities) if self.multiplicities else (1,) * len(pts)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "multiplicities", mults)
        if len(mults) != len(pts):
            raise InvariantViolation("multiplicities must parallel points")
        for m in mults:
            if not isinstance(m, (int, np.integer)) or m < 1:
                raise InvariantViolation(f"multiplicity {m!r} is not a positive integer")
        zs = [p.z for p in pts]
        if len(set(zs)) != len(zs):
            raise InvariantViolation("duplicate points; use multiplicities for repetition")

    @classmethod
    def from_complex(cls, values, multiplicities=None) -> "FiniteSequence":
        pts = tuple(DiskPoint.from_complex(v) for v in values)
        mults = tuple(int(m) for m in multiplicities) if multiplicities is not None else None
        return cls(pts, mults if mults is not None else ())

    @property
    def zs(self) -> np.ndarray:
        """Listed points as a complex array (no multiplicity expansion)."""
        return np.array([p.z for p in self.points], dtype=complex)

    @property
    def mults(self) -> np.ndarray:
        return np.array(self.multiplicities, dtype=int)

    @property
    def total_count(self) -> int:
        """Number of points counted with multiplicity."""
        return int(sum(self.multiplicities))

    def expanded(self) -> np.ndarray:
        """Points repeated according to multiplicity."""
        if not self.points:
            return np.zeros(0, dtype=complex)
        return np.repeat(self.zs, self.mults)

    def is_simple(self) -> bool:
        return all(m == 1 for m in self.multiplicities)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


@dataclass(frozen=True)
class MoebiusMap:
    """The involutive disk automorphism ``z -> (c - z) / (1 - conj(c) z)``.

    It swaps 0 and its center c, and applying it twice is the identity.
    """

    center: DiskPoint

    def __post_init__(self):
        if not isinstance(self.center, DiskPoint):
            object.__setattr__(self, "center", DiskPoint.from_complex(self.center))

    def __call__(self, z):
        """Apply the map; accepts scalars or complex arrays, returns the same."""
        c = self.center.z
        if isinstance(z, np.ndarray):
            return (c - z) / (1.0 - np.conj(c) * z)
        w = _tocomplex(z)
        return (c - w) / (1.0 - c.conjugate() * w)

    def jacobian(self, w) -> float:
        """Area-distortion factor |d(map)/dz|^2 = (1-|c|^2)^2 / |1 - conj(c) w|^4 at w."""
        c = self.center.z
        depth = float(_one_minus_abs2(c))
        if isinstance(w, np.ndarray):
            return depth**2 / np.abs(1.0 - np.conj(c) * w) ** 4
        v = _tocomplex(w)
        return depth**2 / abs(1.0 - c.conjugate() * v) ** 4


def psh_distance(z, w) -> float:
    """Pseudohyperbolic distance |(z - w) / (1 - conj(w) z)| in [0, 1)."""
    return float(psh_distance_pairwise(np.array([_tocomplex(z)]), np.array([_tocomplex(w)]))[0, 0])


def psh_distance_pairwise(zs: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """Matrix of distances between two complex arrays (rows: zs, cols: ws),
    exp(log rho^2 / 2) from the kernel, tile by tile."""
    a = _coords(np.asarray(zs, dtype=complex))
    b = _coords(np.asarray(ws, dtype=complex))
    out = np.empty((a.shape[1], b.shape[1]))
    if out.size:
        for r, c in _tiles(*out.shape):
            out[r, c] = np.exp(0.5 * _log_rho2(a[:, r], b[:, c]))
    return out


def psh_diameter(s: FiniteSequence) -> float:
    """Largest pairwise distance among the listed points; 0 for singletons."""
    if len(s) == 0:
        raise InvariantViolation("empty set")
    if len(s) == 1:
        return 0.0
    d = psh_distance_pairwise(s.zs, s.zs)
    return float(d.max())


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
    only partly filled, not at r_max.
    """
    if not 0 < pitch < 1:
        raise ValueError("pitch must lie in (0, 1)")
    centers = [0.0 + 0.0j]
    r = 0.0
    while len(centers) < _GRID_POINTS:
        r = (r + pitch) / (1.0 + r * pitch)
        if r > r_max:
            break
        n_theta = max(6, int(np.ceil(2.0 * np.pi * r / ((1.0 - r * r) * pitch))))
        n_theta = min(n_theta, _GRID_POINTS - len(centers))
        theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
        centers.extend(r * np.exp(1j * theta))
    return np.array(centers, dtype=complex)
