"""Reference functions shared by the tests.

They build test integrands with known closed-form norms and zero sets,
products B * g that remember both parts, quotients by B, weighted Bergman
norms by direct quadrature, the pointwise division bound, local zero
counts, the tail kernel sums beta, zero targets, target files, sampled
arcs, a rescanning random-Carleson sampler and the uniformly-nonzero probe
by one full call per zero and on a finer circle; the library itself has no
use for them.
"""

import math
from dataclasses import dataclass

import numpy as np

from blaschke_lab.bergman import AnalyticFunction, QuadratureGrid, area_integral, constant_fn
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
from blaschke_lab.geninterp import HermiteJet


def poly_from_zeros(zeros, lead=1.0) -> AnalyticFunction:
    """The polynomial lead * prod (z - a_j)."""
    zs = [complex(a) for a in zeros]
    lead = complex(lead)

    def ev(z):
        out = np.full_like(np.asarray(z, dtype=complex), lead) if isinstance(z, np.ndarray) else lead
        for a in zs:
            out = out * (z - a)
        return out

    return AnalyticFunction(ev, f"poly deg {len(zs)}")


def conformal_density(center, power: float) -> AnalyticFunction:
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

    return AnalyticFunction(ev, f"|phi'_{c:.3g}|^{power:.3g}")


@dataclass(frozen=True)
class BlaschkeMultiple:
    """The analytic function B * cofactor (no cofactor stands for 1), with
    both parts kept so that quotients by B cancel exactly and |B|^p comes
    from the cancellation-free log-modulus."""

    product: BlaschkeProduct
    cofactor: AnalyticFunction | None = None
    label: str = ""

    def __call__(self, z):
        out = evaluate(self.product, z)
        return out if self.cofactor is None else out * self.cofactor(z)


def times_blaschke(g: AnalyticFunction, b: BlaschkeProduct, label: str = "") -> BlaschkeMultiple:
    """The product B*g, remembering both parts for exact later division."""
    return BlaschkeMultiple(b, g, label or f"B*{g.label}")


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

    return AnalyticFunction(ev, f"({f.label})/B")


def _abs_power(f, z: np.ndarray, p: float) -> np.ndarray:
    """|f(z)|^p; for a BlaschkeMultiple, |B|^p comes from the
    cancellation-free log-modulus of the Blaschke product."""
    if not isinstance(f, BlaschkeMultiple):
        return np.abs(f(z)) ** p
    out = np.exp(p * log_abs_evaluate(f.product, z))
    return out if f.cofactor is None else out * np.abs(f.cofactor(z)) ** p


def ap_norm(f: AnalyticFunction, p: float, alpha: float = 0.0,
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
    return min(compose_min_on_compact(b, z, 0.5) for z in zs)


def dense_composed_log_max(b: BlaschkeProduct, c, refine: int = 64) -> float:
    """log of the max of |B o phi_c| over refine times the probe's samples of
    |z| = 1/2, taken as refine rotated copies of its grid.  Copy 0 holds
    the probe's samples bit for bit (index refine * j), evaluated in the
    same call shape, so the result is never below the probe's own."""
    circle = _circle(0.5, _PROBE_GRID * refine)
    return max(float(log_abs_composed(b, [c], circle[k::refine]).max()) for k in range(refine))
