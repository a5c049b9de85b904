"""Reference functions shared by the tests.

They build test integrands with known closed-form norms and zero sets,
products B * g that remember both parts, quotients by B, weighted Bergman
norms by direct quadrature, Hardy circle means, the pointwise division
bound, local zero counts, the tail kernel sums beta, the interpolant's
reverse pass in separate per-cluster steps, zero targets, target files,
sampled arcs, a rescanning random-Carleson sampler, the uniformly-nonzero probe
by one full call per zero and on a finer circle, the anchored square
family carleson_norm once searched and a brute-force Carleson norm; the
library itself has no use for them.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from blaschke_lab.bergman import QuadratureGrid, area_integral, constant_fn
from blaschke_lab.blaschke import (
    _PROBE_GRID,
    BlaschkeProduct,
    _circle,
    compose_min_on_compact,
    evaluate,
    log_abs_composed,
    log_abs_evaluate,
)
from blaschke_lab.carleson import carleson_norm
from blaschke_lab.disk import FiniteSequence, MoebiusMap, _tocomplex, psh_distance_pairwise
from blaschke_lab.geninterp import HermiteJet, _exponents


def poly_from_zeros(zeros, lead=1.0):
    """The polynomial lead * prod (z - a_j)."""
    zs = [complex(a) for a in zeros]
    lead = complex(lead)

    def ev(z):
        out = np.full_like(np.asarray(z, dtype=complex), lead) if isinstance(z, np.ndarray) else lead
        for a in zs:
            out = out * (z - a)
        return out

    return ev


def conformal_density(center, power: float):
    """Analytic function with modulus |phi_center'|^power.

    Computed as ((1-|c|^2)/(1 - conj(c) z)^2)^power with principal logs;
    1 - conj(c) z has positive real part on the disk so the branch is safe.
    """
    c = _tocomplex(center)
    amp = math.log(1.0 - abs(c) ** 2)

    def ev(z):
        v = 1.0 - np.conj(c) * np.asarray(z, dtype=complex)
        out = np.exp(power * (amp - 2.0 * np.log(v)))
        return out if isinstance(z, np.ndarray) else complex(out)

    return ev


@dataclass(frozen=True)
class BlaschkeMultiple:
    """The analytic function B * cofactor (no cofactor stands for 1), with
    both parts kept so that quotients by B cancel exactly and |B|^p comes
    from the cancellation-free log-modulus."""

    product: BlaschkeProduct
    cofactor: object = None  # a callable, or None for 1

    def __call__(self, z):
        out = evaluate(self.product, z)
        return out if self.cofactor is None else out * self.cofactor(z)


def times_blaschke(g, b: BlaschkeProduct) -> BlaschkeMultiple:
    """The product B*g, remembering both parts for exact later division."""
    return BlaschkeMultiple(b, g)


def quotient(f, b: BlaschkeProduct):
    """The quotient f / B.

    Exact (symbolic cancellation) when f is a BlaschkeMultiple of the same
    product.  Otherwise the quotient is formed numerically; evaluation
    points that collide with a zero of B are nudged by 1e-7, so generic
    quotients are approximate near zeros.
    """
    if isinstance(f, BlaschkeMultiple) and f.product.zeros == b.zeros:
        return f.cofactor if f.cofactor is not None else constant_fn(1.0)
    zs = b.zeros.zs

    def ev(z):
        arr = isinstance(z, np.ndarray)
        w = np.asarray(z, dtype=complex).copy()
        if len(zs):
            bad = np.min(np.abs(w[..., None] - zs), axis=-1) < 1e-12
            if bad.any():
                w = np.where(bad, w + 1e-7 * np.exp(0.4j), w)
        out = f(w) / evaluate(b, w)
        return out if arr else complex(out)

    return ev


def _abs_power(f, z: np.ndarray, p: float) -> np.ndarray:
    """|f(z)|^p; for a BlaschkeMultiple, |B|^p comes from the
    cancellation-free log-modulus of the Blaschke product."""
    if not isinstance(f, BlaschkeMultiple):
        return np.abs(f(z)) ** p
    out = np.exp(p * log_abs_evaluate(f.product, z))
    return out if f.cofactor is None else out * np.abs(f.cofactor(z)) ** p


def ap_norm(f, p: float, alpha: float = 0.0,
            g: QuadratureGrid | None = None) -> float:
    """Weighted Bergman norm (integral of |f|^p (1-|z|^2)^alpha dA)^(1/p),
    integrated directly on the grid."""
    if not p > 0:
        raise ValueError("p must be positive")
    if not alpha > -1:
        raise ValueError("alpha must exceed -1")
    if alpha == 0.0:
        val = area_integral(lambda z: _abs_power(f, z, p), g)
    else:
        val = area_integral(
            lambda z: _abs_power(f, z, p) * (1.0 - np.abs(z) ** 2) ** alpha, g)
    return val ** (1.0 / p)


# radii of the Hardy convexity check: M_p(f, r) is nondecreasing in r
HARDY_RADII = (0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999)


def circle_mean(f, p, r: float) -> float:
    """The Hardy circle mean M_p(f, r) on the angular samples hp_norm
    takes at radius r (8 / (1 - r) of them, clipped to [64, 2^14]); the
    max over them at p = inf."""
    n = int(np.clip(np.ceil(8.0 / (1.0 - r)), 64, 1 << 14))
    theta = 2.0 * np.pi * np.arange(n) / n
    vals = np.abs(f(r * np.exp(1j * theta)))
    if p == np.inf:
        return float(vals.max())
    return float(np.mean(vals**p) ** (1.0 / p))


@dataclass(frozen=True)
class DivisionBound:
    holds: bool
    margin: float
    lhs: float
    rhs: float


def pointwise_division_bound(f, b: BlaschkeProduct, zeta, p: float, C: float,
                             g: QuadratureGrid | None = None) -> DivisionBound:
    """Check |f(zeta)/B(zeta)|^(p/2) <= (e^(C p/2)/pi) * integral of
    |f|^(p/2) times the area-distortion kernel of phi_zeta.

    The integral is taken as the integral of |f o phi_zeta|^(p/2) dA; for a
    BlaschkeMultiple the zeros of B move by phi_zeta and the nodes stay,
    and only the cofactor is evaluated at phi_zeta(w).  C should dominate
    the transformed zero-mass sums of b's zero sequence (the uniform
    Blaschke supremum).
    """
    phi = MoebiusMap(zeta)
    q = p / 2.0

    def field(z):
        if not isinstance(f, BlaschkeMultiple):
            return np.abs(f(phi(z))) ** q
        out = np.exp(q * log_abs_composed(f.product, [zeta], z)[0])
        return out if f.cofactor is None else out * np.abs(f.cofactor(phi(z))) ** q

    rhs = math.exp(C * q) * area_integral(field, g) / np.pi
    lhs = abs(quotient(f, b)(_tocomplex(zeta))) ** q
    return DivisionBound(lhs <= rhs * (1.0 + 1e-12) + 1e-300, rhs - lhs, lhs, rhs)


def local_zero_count(b: BlaschkeProduct, center, r: float) -> int:
    """Zeros (with multiplicity) at pseudohyperbolic distance < r from center."""
    if not 0 < r < 1:
        raise ValueError("radius must lie in (0, 1)")
    dist = psh_distance_pairwise(np.array([_tocomplex(center)]), b.zeros.zs)[0]
    return int(b.zeros.mults[dist < r].sum())


def beta(part, k: int, z):
    """Tail kernel sum over anchors j >= k (0-based, anchor order):
    sum (1-|a_j|^2)(1 + conj(a_j) z)/(1 - conj(a_j) z), summed from the
    last anchor down.  Re beta > 0."""
    anchors = part.anchors
    if not 0 <= k < len(anchors):
        raise IndexError("cluster index out of range")
    scalar = not isinstance(z, np.ndarray)
    w = np.asarray(_tocomplex(z) if scalar else z, dtype=complex)
    acc = np.zeros_like(w)
    for a in anchors[k:][::-1]:
        ca = a.conjugate()
        acc = acc + (1.0 - abs(a) ** 2) * (1.0 + ca * w) / (1.0 - ca * w)
    return complex(acc) if scalar else acc


def _tail_sums(anchors, w):
    """Yield (k, beta_k(w)) for k from the last anchor down to 0, as a
    running sum of the tail terms."""
    acc = np.zeros_like(w)
    for k in range(len(anchors) - 1, -1, -1):
        ca = anchors[k].conjugate()
        acc = acc + (1.0 - abs(anchors[k]) ** 2) * (1.0 + ca * w) / (1.0 - ca * w)
        yield k, acc


def summed_by_rows(problem, w, weights):
    """sum_k weights[k](w) B~_k(w) kernel_k(w) over the clusters k whose
    weight is not None, by the reverse pass over the clusters in three
    separate steps per cluster, each with its own 1 - conj(a_k) w: the
    running tail sum beta_k(w), the kernel
    ((1-|a_k|^2)/(1 - conj(a_k) w))^q exp((beta_k(a_k) - beta_k(w))/s)
    through np.power, and the own-cluster product through evaluate."""
    part = problem.partition
    q, s = _exponents(problem.p)
    anchors = part.anchors
    beta_anchor = np.empty(len(anchors), dtype=complex)
    for k, acc in _tail_sums(anchors, anchors):
        beta_anchor[k] = acc[k]
    out = np.zeros_like(w)
    after = np.ones_like(w)
    for k, beta_w in _tail_sums(anchors, w):
        a = anchors[k]
        kern = np.power((1.0 - abs(a) ** 2) / (1.0 - a.conjugate() * w), q) \
            * np.exp((beta_anchor[k] - beta_w) / s)
        own = evaluate(BlaschkeProduct(part.clusters[k].points), w)
        out *= own
        if weights[k] is not None:
            out += weights[k](w) * after * kern
        after *= own
    return out


def _dyadic_ints(values):
    """Exact integers X and a common exponent S with values = X / 2^S."""
    ratios = [float(v).as_integer_ratio() for v in values]
    scale = max(den.bit_length() - 1 for _, den in ratios)
    return [num << (scale - den.bit_length() + 1) for num, den in ratios], scale


def deleted_product_moduli(zs, digits=50):
    """|B_j(z_j)| and 1 - |z_j|^2 at every point of a simple sequence, as
    mpmath numbers with ``digits`` digits.

    The coordinates are taken exactly, as integers at a common binary
    scale, so the differences, |z_k - z_j|^2 and the depths 1 - |z|^2 are
    exact.  rho^2 = |z_k - z_j|^2 / (|z_k - z_j|^2 + (1-|z_k|^2)(1-|z_j|^2))
    and the running product over k are kept in fixed point with twice the
    bits of ``digits`` digits, so a product keeps ``digits`` digits down to
    about len(zs) * 10^-digits; mpmath takes the square root.  Python
    integers form the products about five times faster than mpmath numbers.
    """
    import mpmath

    ints, scale = _dyadic_ints([c for z in zs for c in (z.real, z.imag)])
    x = np.array(ints[0::2], dtype=object)
    y = np.array(ints[1::2], dtype=object)
    one = 1 << (2 * scale)
    depth = one - x * x - y * y
    bits = 2 * math.ceil(digits * math.log2(10))
    out = []
    for j in range(len(zs)):
        dx = x - x[j]
        dy = y - y[j]
        d2 = dx * dx + dy * dy
        rho2 = np.delete((d2 << (2 * scale + bits)) // (d2 * one + depth * depth[j]), j)
        acc = 1 << bits
        for r in rho2.tolist():
            acc = (acc * r) >> bits
        out.append(acc)
    with mpmath.workdps(digits):
        return ([mpmath.sqrt(mpmath.ldexp(a, -bits)) for a in out],
                [mpmath.ldexp(d, -2 * scale) for d in depth])


def zero_jet(cluster) -> HermiteJet:
    """The all-zero target on a cluster."""
    return HermiteJet(tuple((0.0,) * m for m in cluster.points.multiplicities))


def format_targets(jets) -> str:
    """Target-file text for the given jets, one line per derivative."""
    lines = ["# cluster point order value_re value_im"]
    for k, jet in enumerate(jets):
        for i, row in enumerate(jet.derivatives):
            for order, v in enumerate(row):
                lines.append(f"{k} {i} {order} {v.real!r} {v.imag!r}")
    return "\n".join(lines) + "\n"


def arc_samples(arc, n: int):
    """Midpoint quadrature: n points along the arc with equal length weights."""
    t = arc.t0 + (arc.t1 - arc.t0) * (np.arange(n) + 0.5) / n
    return arc.center + arc.radius * np.exp(1j * t), np.full(n, arc.length() / n)


def _dyadic_ratios_through(angles, depths, weights, cand_angle, cand_depth,
                           cand_weight, levels: int) -> float:
    """Largest mass/size ratio over the fixed dyadic squares that would
    contain the candidate, with the candidate included, from a rescan of
    every accepted atom."""
    a = np.append(angles, cand_angle)
    d = np.append(depths, cand_depth)
    w = np.append(weights, cand_weight)
    worst = 0.0
    for l in range(levels + 1):
        m = 2.0 ** (-l)
        if cand_depth >= m:
            break
        cell = np.floor(cand_angle / (2.0 * np.pi) * 2**l)
        lo = cell * 2.0 * np.pi / 2**l
        inside = (d < m) & ((a - lo) % (2.0 * np.pi) < 2.0 * np.pi * m)
        worst = max(worst, float(w[inside].sum()) / m)
    return worst


def rescanning_random_carleson(seed: int, n: int, target_norm: float,
                               max_tries_per_point: int = 400) -> FiniteSequence:
    """``generators.gen_random_carleson`` with every dyadic square through
    a candidate re-summed over all accepted atoms: the same draws, the same
    acceptance test and the same final norm check, in O(n^2 levels) work."""
    rng = np.random.default_rng(seed)
    margin = 0.3 * target_norm
    base_level = max(1, int(np.ceil(np.log2(max(2.0 * n / margin, 2.0)))) - 1)
    level_probs = np.array([1.0, 2.0, 4.0, 8.0]) / 15.0
    deepest = base_level + 3
    angles = np.zeros(0)
    depths = np.zeros(0)
    weights = np.zeros(0)
    pts = []
    for _ in range(n):
        for _attempt in range(max_tries_per_point):
            l = base_level + int(rng.choice(4, p=level_probs))
            depth = 2.0 ** (-l - 1) * (1.0 + rng.uniform())
            ang = rng.uniform(0.0, 2.0 * np.pi)
            r = 1.0 - depth
            wgt = 1.0 - r * r
            if _dyadic_ratios_through(angles, depths, weights, ang, depth, wgt,
                                      deepest) <= margin:
                angles = np.append(angles, ang)
                depths = np.append(depths, depth)
                weights = np.append(weights, wgt)
                pts.append(r * np.exp(1j * ang))
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


def exhaustive_nonzero_probe(b: BlaschkeProduct, zs) -> float:
    """The uniformly-nonzero probe as the plain minimum of one full
    compose_min_on_compact call per zero."""
    return min(compose_min_on_compact(b, z) for z in zs)


def dense_composed_log_max(b: BlaschkeProduct, c, refine: int = 64) -> float:
    """log of the max of |B o phi_c| over refine times the probe's samples of
    |z| = 1/2, taken as refine rotated copies of its grid.  Copy 0 holds
    the probe's samples bit for bit (index refine * j), evaluated in the
    same call shape, so the result is never below the probe's own."""
    circle = _circle(0.5, _PROBE_GRID * refine)
    return max(float(log_abs_composed(b, [c], circle[k::refine]).max()) for k in range(refine))


ANCHOR_ETAS = (0.001, 0.1, 1.0)


def _dyadic_levels(depths: np.ndarray) -> int:
    """Smallest L with 2^-L below half the shallowest atom depth, capped."""
    if depths.size == 0:
        return 0
    return int(min(60, np.ceil(np.log2(2.0 / depths.min())) + 1))


def _wrap(x):
    """Angles reduced to [-pi, pi)."""
    return (x + np.pi) % (2 * np.pi) - np.pi


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
        d = np.abs(_wrap(angles - c))
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


def brute_carleson_norm(s: FiniteSequence) -> float:
    """Carleson norm of mu_Z by brute force: every arc from atom i to atom
    j, with every atom depth as threshold, scores the mass of the atoms in
    the arc no deeper than the threshold over max(arc / 2 pi, threshold).
    The weights 1 - |z|^2 are rounded once from exact fractions."""
    zs = np.asarray(s.zs)
    exact = [Fraction(1) - Fraction(z.real) ** 2 - Fraction(z.imag) ** 2 for z in zs.tolist()]
    weights = s.mults * np.array([float(q) for q in exact])
    depths = np.array([float(q) for q in exact]) / (1.0 + np.abs(zs))
    keep = depths < 1.0
    angles, depths, weights = np.angle(zs[keep]), depths[keep], weights[keep]
    held = (depths[:, None] <= depths[None, :]) * weights[:, None]  # atom k x threshold t
    best = 0.0
    for start in angles:
        offsets = (angles - start) % (2 * np.pi)
        in_arc = offsets[None, :] <= offsets[:, None]  # arc end j x atom k
        mass = in_arc @ held
        scale = np.maximum(offsets[:, None] / (2 * np.pi), depths[None, :])
        best = max(best, float((mass / scale).max()))
    return best
