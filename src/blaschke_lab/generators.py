"""Seeded generators for the sequence families used across the toolkit.

Every generator is a pure function of its parameters and seed; the same
inputs reproduce the same sequence bit for bit.  Families:

* radial geometric -- depths 1 - q^k on prescribed rays; uniformly
  separated for a single ray with q <= 1/2;
* unions of rotated, jittered copies of a base family;
* the repeated-point escalation family: the point at depth gap^n carries
  multiplicity n, so transformed zero masses grow linearly with the level
  while the plain zero mass stays summable;
* Carleson-controlled random clouds, rejection-sampled square by square;
  each candidate takes three doubles of the seeded stream, drawn in
  blocks, and the clouds are bit-identical to per-candidate draws;
* perturbed variants: satellites at small pseudohyperbolic distance and
  occasional doubled points, for clustered interpolation problems.
"""

from __future__ import annotations

import numpy as np

from .carleson import carleson_norm
from .disk import FiniteSequence, InvariantViolation, inside_floor

# candidates of the random-Carleson sampler drawn per call to the generator
_DRAW_BLOCK = 256
# jitter draws of gen_union before it gives up on a colliding union
_UNION_ATTEMPTS = 16
# pseudohyperbolic spacing of the split escalating points, and distance of
# the perturbed family's satellites (well below cluster scale)
_SPLIT_SPACING = 1e-4
_SATELLITE_PSH = 0.09


def gen_radial_geometric(q: float, n: int, ray_angles=(0.0,)) -> FiniteSequence:
    """Points 1 - q^k for k = 1..n on each given ray angle."""
    if not 0 < q < 1:
        raise ValueError("q must lie in (0, 1)")
    if n < 1:
        raise ValueError("n must be positive")
    pts = []
    for th in ray_angles:
        rot = np.exp(1j * float(th))
        for k in range(1, n + 1):
            pts.append((1.0 - q**k) * rot)
    return FiniteSequence.from_complex(pts)


def gen_union(m: int, base: FiniteSequence, seed: int) -> FiniteSequence:
    """Union of m rotated and jittered copies of the base sequence.

    Copy j rotates by 2*pi*j/m plus a small jitter drawn from seed.  If two
    copies collide exactly the jitter is drawn again with seed + attempt.
    """
    if m < 1:
        raise ValueError("m must be positive")
    zs = base.zs
    mults = list(base.multiplicities) * m
    for attempt in range(_UNION_ATTEMPTS):
        rng = np.random.default_rng(seed + attempt)
        pts = []
        for j in range(m):
            jitter = rng.uniform(-np.pi / (8 * m), np.pi / (8 * m)) if m > 1 else 0.0
            pts.extend(zs * np.exp(1j * (2.0 * np.pi * j / m + jitter)))
        try:
            return FiniteSequence.from_complex(pts, mults)
        except InvariantViolation:
            pass
    raise RuntimeError("union generator kept colliding; widen the jitter")


def gen_escalating_multiplicity(n_max: int, base_gap: float = 0.25,
                                split: bool = False) -> FiniteSequence:
    """Escalating multiplicity family: depth gap^n with multiplicity n.

    The transformed zero mass probed at level n's point is at least n while
    sum n * gap^n stays finite, so separation-flavored diagnostics fail in
    a controlled way as n_max grows.  With split=True each level's repeated
    point becomes n distinct points at pseudohyperbolic spacing about
    _SPLIT_SPACING, for operations requiring simple zeros.
    """
    if not 0 < base_gap < 1:
        raise ValueError("base_gap must lie in (0, 1)")
    if n_max < 1:
        raise ValueError("n_max must be positive")
    pts = []
    mults = []
    for n in range(1, n_max + 1):
        zn = 1.0 - base_gap**n
        if not split:
            pts.append(zn + 0.0j)
            mults.append(n)
        else:
            for j in range(n):
                pts.append(zn + 1j * j * _SPLIT_SPACING * (1.0 - zn**2))
                mults.append(1)
    return FiniteSequence.from_complex(pts, mults)


def gen_random_carleson(seed: int, n: int, target_norm: float,
                        max_tries_per_point: int = 400) -> FiniteSequence:
    """Random cloud whose Carleson norm stays below 1.2 * target_norm.

    Points draw a dyadic depth level and a uniform angle; a candidate is
    accepted only while the squares it lands in keep mass/size below a
    safety fraction of the target and its point keeps 1 - |z| above the
    disk's boundary floor; a refused candidate counts against the budget.
    The final norm is then asserted against the exact supremum.

    Each candidate takes three doubles of the seeded stream, the ones that
    ``rng.choice(4, p=...)``, ``rng.uniform()`` and ``rng.uniform(0, 2 pi)``
    would take; they are drawn in blocks of ``_DRAW_BLOCK`` candidates, so
    the clouds are bit-identical to per-candidate draws.  Every point gets
    ``max_tries_per_point`` candidates, across block boundaries.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 < target_norm < np.inf:
        raise ValueError("target_norm must be positive and finite")
    rng = np.random.default_rng(seed)
    # cap every dyadic square at 0.3 * target: the covering argument then
    # bounds the exact supremum by 1.2 * target unconditionally.
    margin = 0.3 * target_norm
    # each dyadic level-l cell admits mass about margin * 2^-l while one
    # atom at that level weighs about 1.5 * 2^-l, so the levels must be
    # deep enough that the cells can hold n points between them (and the
    # whole-circle cell caps the total mass at margin).
    try:
        base_level = max(1, int(np.ceil(np.log2(max(2.0 * n / margin, 2.0)))) - 1)
        deepest = base_level + 3
        half_sizes = np.array([2.0 ** (-l - 1) for l in range(base_level, deepest + 1)])
        sizes = [2.0 ** -k for k in range(deepest + 1)]
        counts = np.array([2.0 ** k for k in range(deepest + 1)])
    except (OverflowError, ZeroDivisionError):  # levels past 2^1023, or margin 0
        raise RuntimeError("sampling budget exhausted") from None
    # rng.choice(4, p=level_probs) searches this cdf for one uniform draw
    level_probs = np.array([1.0, 2.0, 4.0, 8.0]) / 15.0
    cdf = level_probs.cumsum()
    cdf /= cdf[-1]
    two_pi = 2.0 * np.pi

    def candidates():
        """(levels visited, weight, radius, angle, cell per level) of each
        candidate, in the order of the stream."""
        while True:
            u = rng.random((_DRAW_BLOCK, 3))
            depth = half_sizes[cdf.searchsorted(u[:, 0], side="right")] * (1.0 + u[:, 1])
            ang = two_pi * u[:, 2]
            r = 1.0 - depth
            # the squares through a candidate are those of the levels k
            # with depth < 2^-k; cell 2^k (an angle of 2 pi) wraps to 0
            visits = (depth[:, None] < sizes).sum(axis=1)
            cells = np.floor(ang[:, None] / two_pi * counts) % counts
            yield from zip(visits.tolist(), (1.0 - r * r).tolist(), r.tolist(),
                           ang.tolist(), cells.tolist())

    # mass[k][cell]: weight of the accepted atoms with depth < 2^-k in the
    # level-k dyadic cell, held only for cells that hold an atom (a small
    # target makes the levels deep and a full table huge).  Controlling
    # every dyadic square at every insertion dominates the full arc family:
    # any arc is covered by two adjacent dyadic arcs of at most twice its
    # length, so the true norm stays below 4x the dyadic cap.
    mass = [{} for _ in range(deepest + 1)]
    draws = candidates()
    pts = []
    for _ in range(n):
        # range before draws: zip stops without taking a candidate past
        # the budget, so the next point starts on it
        for _attempt, (visits, wgt, r, ang, cells) in zip(range(max_tries_per_point), draws):
            # the deepest square is the likeliest to overflow: test it first
            for k in range(visits - 1, -1, -1):
                if (mass[k].get(cells[k], 0.0) + wgt) / sizes[k] > margin:
                    break
            else:
                z = r * np.exp(1j * ang)
                if not inside_floor(z):
                    continue
                for k in range(visits):
                    mass[k][cells[k]] = mass[k].get(cells[k], 0.0) + wgt
                pts.append(z)
                break
        else:
            raise RuntimeError("sampling budget exhausted")
    seq = FiniteSequence.from_complex(pts)
    norm = carleson_norm(seq).norm
    if norm > 1.2 * target_norm:
        raise RuntimeError(
            f"sampling budget exhausted: norm {norm:.3f} above 1.2 * target"
        )
    return seq


def gen_perturbed(base: FiniteSequence, n_satellites: int = 0,
                  n_doubles: int = 0, seed: int = 0) -> FiniteSequence:
    """Satellites at small pseudohyperbolic distance plus doubled points.

    Satellites attach to distinct seeded base points at distance about
    _SATELLITE_PSH; doubled points raise the multiplicity of further
    distinct points to 2.
    """
    rng = np.random.default_rng(seed)
    zs = list(base.zs)
    mults = list(base.multiplicities)
    n_base = len(zs)
    if min(n_satellites, n_doubles) < 0 or n_satellites + n_doubles > n_base:
        raise ValueError("satellite and double counts must be >= 0 and fit the base points")
    chosen = rng.choice(n_base, size=n_satellites + n_doubles, replace=False)
    for i in chosen[:n_satellites]:
        z = zs[i]
        zs.append(z + _SATELLITE_PSH * (1.0 - abs(z) ** 2)
                  * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
        mults.append(1)
    for i in chosen[n_satellites:]:
        mults[i] = 2
    return FiniteSequence.from_complex(zs, mults)
