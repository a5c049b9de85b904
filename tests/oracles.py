"""Reference functions shared by the tests.

They build the constant function, the closed-form Jacobian of the disk
automorphism, the weighted sequence norm of criterion 8, test integrands
with known closed-form norms and zero sets, products B * g that remember
both parts, quotients by B, weighted Bergman norms by direct quadrature,
the fine grid FINE, the analysis grid before its cut UNCUT, the kernel
mass (pi) and the area Jensen residual (0) that certify a grid, Hardy
circle means, the pointwise division bound, local zero counts, the tail
kernel sums beta, the interpolant's reverse pass in separate per-cluster
steps, the Poisson angular mean and the summed kernel bound of the
interpolation kernel, zero targets, target files, sampled arcs, a
rescanning random-Carleson sampler, the uniformly-nonzero probe by one
full call per zero and on a finer circle, |B'| at the zeros from the
complex factors in 50 digits, the pairwise rho^2 table in exact
rationals and the report keys it gives, the plain greedy partition loop,
the anchored square family carleson_norm once searched, a brute-force
Carleson norm and the hyperbolic probe grid as a loop over rings; the
library itself has no use for them.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from blaschke_lab import disk
from blaschke_lab.bergman import QuadratureGrid, area_integral
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
from blaschke_lab.disk import FiniteSequence, moebius, psh_distance, psh_distance_pairwise
from blaschke_lab.geninterp import ClusterPartition, _exponents

# the 3,775,327-node grid of QuadratureGrid.build's defaults, for oracles
# whose integrands peak near the circle
FINE = QuadratureGrid.build()
# the 63,994-node analysis grid before its 30 bands of a tenth of a decade
# from 1 - r = 1e-4 to 1e-7 became three decade bands
UNCUT = QuadratureGrid.build(rings=140, min_gap=1e-7, max_angular=512)


def constant_fn(c):
    """The constant function c on complex scalars and arrays."""
    c = complex(c)
    return lambda z: (np.full_like(np.asarray(z, dtype=complex), c)
                      if isinstance(z, np.ndarray) else c)


def moebius_jacobian(c, w):
    """|phi_c'(w)|^2 = (1 - |c|^2)^2 / |1 - conj(c) w|^4 in closed form, the
    area distortion of the disk automorphism phi_c (disk.moebius)."""
    c = complex(c)
    return (1.0 - abs(c) ** 2) ** 2 / np.abs(1.0 - c.conjugate() * w) ** 4


def lp_sequence_norm(s: FiniteSequence, values, p) -> float:
    """Weighted sequence norm (sum mult |w|^p (1 - |z|^2))^(1/p), the sup
    of |w| at p = inf."""
    vals = np.abs(np.asarray(values, dtype=complex))
    if p == np.inf:
        return float(vals.max())
    return float((s.mults * (1.0 - np.abs(s.zs) ** 2) * vals**p).sum() ** (1.0 / p))


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
    c = complex(center)
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


def ap_norm(f, p: float, alpha: float, g: QuadratureGrid) -> float:
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


def kernel_mass(zeta, g: QuadratureGrid) -> float:
    """Integral over the disk of the area-distortion kernel of phi_zeta.

    Equals pi for every center by change of variables; the quadrature value
    certifies grid accuracy.
    """
    return area_integral(lambda z: moebius_jacobian(zeta, z), g)


def jensen_area_residual(f, zeros: FiniteSequence, g: QuadratureGrid) -> float:
    """Defect of the area Jensen identity for f against a listed zero set.

    Writes log|f| = log|f_reg| + sum mult * log|w - z_j| and integrates the
    regular part only; each singular term integrates in closed form to
    -(1-|z_j|^2)/2 times pi.  Zero when the listed zeros are exactly the
    zero set of f, strictly negative when some zeros are withheld.
    """
    f0 = abs(f(0.0 + 0.0j))
    if f0 == 0.0:
        raise ValueError("shift required: f(0) must be nonzero")
    zs = zeros.zs
    mults = zeros.mults

    def regular_log(z):
        w = z
        collide = np.zeros(z.shape, dtype=bool)
        for a in zs:  # one zero at a time: temporaries the size of the block
            collide |= np.abs(w - a) < 1e-13
        if collide.any():
            w = np.where(collide, w + 1e-7 * np.exp(0.3j), w)
        out = np.log(np.abs(f(w)))
        for a, m in zip(zs, mults):
            out = out - m * np.log(np.abs(w - a))
        return out

    quad = area_integral(regular_log, g) / np.pi
    lhs = math.log(f0) - float((mults * np.log(np.abs(zs))).sum()) if len(zs) else math.log(f0)
    return lhs - quad


# radii of the Hardy convexity check: M_p(f, r) is nondecreasing in r
HARDY_RADII = (0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999)


def circle_mean(f, p, r: float) -> float:
    """The Hardy circle mean M_p(f, r) over direct samples of f at
    8 / (1 - r) equally spaced angles, clipped to [64, 2^14]; the max over
    them at p = inf.  At r = 0.99999 these are hp_norm's 2^14 nodes, and
    this is the mean hp_norm falls back on when its FFT does not resolve f,
    taken as hp_norm takes it: M (mean (|f|/M)^p)^(1/p) with M the largest
    sample, so that no power overflows."""
    n = int(np.clip(np.ceil(8.0 / (1.0 - r)), 64, 1 << 14))
    theta = 2.0 * np.pi * np.arange(n) / n
    vals = np.abs(f(r * np.exp(1j * theta)))
    top = vals.max()
    if p == np.inf or not 0.0 < top < np.inf:
        return float(top)
    return float(top * np.mean((vals / top) ** p) ** (1.0 / p))


@dataclass(frozen=True)
class DivisionBound:
    holds: bool
    margin: float
    lhs: float
    rhs: float


def pointwise_division_bound(f, b: BlaschkeProduct, zeta, p: float, C: float,
                             g: QuadratureGrid) -> DivisionBound:
    """Check |f(zeta)/B(zeta)|^(p/2) <= (e^(C p/2)/pi) * integral of
    |f|^(p/2) times the area-distortion kernel of phi_zeta.

    The integral is taken as the integral of |f o phi_zeta|^(p/2) dA; for a
    BlaschkeMultiple the zeros of B move by phi_zeta and the nodes stay,
    and only the cofactor is evaluated at phi_zeta(w).  C should dominate
    the transformed zero-mass sums of b's zero sequence (the uniform
    Blaschke supremum).
    """
    q = p / 2.0

    def field(z):
        if not isinstance(f, BlaschkeMultiple):
            return np.abs(f(moebius(zeta, z))) ** q
        out = np.exp(q * log_abs_composed(f.product, [zeta], z)[0])
        return out if f.cofactor is None else out * np.abs(f.cofactor(moebius(zeta, z))) ** q

    rhs = math.exp(C * q) * area_integral(field, g) / np.pi
    lhs = abs(quotient(f, b)(complex(zeta))) ** q
    return DivisionBound(lhs <= rhs * (1.0 + 1e-12) + 1e-300, rhs - lhs, lhs, rhs)


def local_zero_count(b: BlaschkeProduct, center, r: float) -> int:
    """Zeros (with multiplicity) at pseudohyperbolic distance < r from center."""
    if not 0 < r < 1:
        raise ValueError("radius must lie in (0, 1)")
    dist = psh_distance_pairwise(np.array([complex(center)]), b.zeros.zs)[0]
    return int(b.zeros.mults[dist < r].sum())


def beta(part, k: int, z):
    """Tail kernel sum over anchors j >= k (0-based, anchor order):
    sum (1-|a_j|^2)(1 + conj(a_j) z)/(1 - conj(a_j) z), summed from the
    last anchor down.  Re beta > 0."""
    anchors = part.anchors
    if not 0 <= k < len(anchors):
        raise IndexError("cluster index out of range")
    scalar = not isinstance(z, np.ndarray)
    w = np.asarray(complex(z) if scalar else z, dtype=complex)
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


def _kernels(anchors, w, q, s):
    """Yield (k, kernel_k(w)) for k from the last anchor down to 0, in
    closed form: ((1-|a_k|^2)/(1 - conj(a_k) w))^q
    exp((beta_k(a_k) - beta_k(w))/s) through np.power, with beta from the
    running tail sums and its own 1 - conj(a_k) w."""
    beta_anchor = np.empty(len(anchors), dtype=complex)
    for k, acc in _tail_sums(anchors, anchors):
        beta_anchor[k] = acc[k]
    for k, beta_w in _tail_sums(anchors, w):
        a = anchors[k]
        yield k, np.power((1.0 - abs(a) ** 2) / (1.0 - a.conjugate() * w), q) \
            * np.exp((beta_anchor[k] - beta_w) / s)


def summed_by_rows(problem, w, weights):
    """sum_k weights[k](w) B~_k(w) kernel_k(w) over the clusters k whose
    weight is not None, by the reverse pass over the clusters in three
    separate steps per cluster: the running tail sum beta_k(w), the
    kernel (_kernels) and the own-cluster product through evaluate."""
    part = problem.partition
    q, s = _exponents(problem.p)
    out = np.zeros_like(w)
    after = np.ones_like(w)
    for k, kern in _kernels(part.anchors, w, q, s):
        own = evaluate(BlaschkeProduct(part.clusters[k]), w)
        out *= own
        if weights[k] is not None:
            out += weights[k](w) * after * kern
        after *= own
    return out


def poisson_angular_mean(anchor, r: float) -> float:
    """Angular mean of (1-|a|^2)/|1 - conj(a) r e^(i theta)|^2 over 2048
    angles; equals (1-|a|^2)/(1-r^2|a|^2) <= 1 in closed form, so the
    sampled mean certifies the kernel's row bound."""
    a = complex(anchor)
    theta = 2.0 * np.pi * np.arange(2048) / 2048
    vals = (1.0 - abs(a) ** 2) / np.abs(1.0 - a.conjugate() * r * np.exp(1j * theta)) ** 2
    return float(vals.mean())


def vgh_kernel_bound(part: ClusterPartition, grid) -> float:
    """Max over the grid of the summed kernel sum_k |kernel_k(z)| at
    (q, s) = (2, 1), that is
    sum_k |(1-|a_k|^2)/(1 - conj(a_k) z)|^2 exp(Re(beta_k(a_k) - beta_k(z))).

    Also certifies the angular-mean bound (<= 1 + 1e-8) for every anchor at
    r = 0.5, 0.9 and 0.99, failing loudly if the sampled mean exceeds it.
    """
    anchors = part.anchors
    if len(anchors) == 0:
        return 0.0
    for a in anchors:
        for r in (0.5, 0.9, 0.99):
            if poisson_angular_mean(a, r) > 1.0 + 1e-8:
                raise RuntimeError(f"angular mean above 1 at anchor {a}, r={r}")
    w = np.asarray([complex(g) for g in grid], dtype=complex)
    total = np.zeros(w.shape)
    for _, kern in _kernels(anchors, w, 2.0, 1.0):
        total += np.abs(kern)
    return float(total.max())


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


def blaschke_derivative_moduli(zs, digits=50):
    """|B'(z_j)| at every point of a simple sequence, as mpmath numbers with
    ``digits`` digits, from the complex factors of B.

    At a simple zero z_j, B' is the own factor's derivative, of modulus
    1 / (1 - |z_j|^2), times the other factors (a_k - z)/(1 - conj(a_k) z)
    at z_j; their unimodular constants drop out of the modulus.  The
    coordinates are taken exactly, as integers at a common binary scale, so
    each factor is an exact rational; its value and the running complex
    product are kept in fixed point with twice the bits of ``digits``
    digits.  The moduli come from the complex denominators
    1 - conj(a_k) z_j, not from the identity
    |1 - conj(a) z|^2 = |a - z|^2 + (1 - |a|^2)(1 - |z|^2) that
    deleted_product_moduli uses.
    """
    import mpmath

    ints, scale = _dyadic_ints([c for z in zs for c in (z.real, z.imag)])
    x = np.array(ints[0::2], dtype=object)
    y = np.array(ints[1::2], dtype=object)
    one = 1 << (2 * scale)
    bits = 2 * math.ceil(digits * math.log2(10))
    out = []
    for j in range(len(zs)):
        # a - z_j and 1 - conj(a) z_j at the scales 2^scale and 2^(2 scale),
        # so the factor is (a - z_j) conj(1 - conj(a) z_j) 2^scale / |1 - conj(a) z_j|^2
        nx, ny = x - x[j], y - y[j]
        dx, dy = one - x * x[j] - y * y[j], y * x[j] - x * y[j]
        mod2 = dx * dx + dy * dy
        fx = np.delete(((nx * dx + ny * dy) << (scale + bits)) // mod2, j)
        fy = np.delete(((ny * dx - nx * dy) << (scale + bits)) // mod2, j)
        re, im = 1 << bits, 0
        for a, b in zip(fx.tolist(), fy.tolist()):
            re, im = (re * a - im * b) >> bits, (re * b + im * a) >> bits
        out.append((re, im, dx[j]))
    with mpmath.workdps(digits):
        return [mpmath.hypot(mpmath.ldexp(re, -bits), mpmath.ldexp(im, -bits))
                / mpmath.ldexp(depth, -2 * scale) for re, im, depth in out]


def exact_rho2(zs) -> list:
    """rho^2(z_j, z_k) between every two listed points, as exact Fractions.

    The coordinates are taken exactly as integers at a common binary scale,
    as in deleted_product_moduli, and rho^2 = |z_k - z_j|^2 /
    (|z_k - z_j|^2 + (1 - |z_k|^2)(1 - |z_j|^2)) is formed without rounding.
    """
    ints, scale = _dyadic_ints([c for z in zs for c in (z.real, z.imag)])
    x, y = ints[0::2], ints[1::2]
    one = 1 << (2 * scale)
    depth = [one - a * a - b * b for a, b in zip(x, y)]
    table = []
    for j in range(len(x)):
        d2 = [((a - x[j]) ** 2 + (b - y[j]) ** 2) * one for a, b in zip(x, y)]
        table.append([Fraction(d, d + depth[j] * dk) for d, dk in zip(d2, depth)])
    return table


def exact_pair_keys(s: FiniteSequence, sep: float = 0.3) -> dict:
    """The analyze keys that sum over pairs of zeros, from exact_rho2 and
    deleted_product_moduli: delta, discreteness, max_count_half (zeros
    with rho < 1/2 about each zero, exact), blaschke_sup at the zero
    centres (sum of m (1 - rho^2), exact, rounded once) and part_delta (the
    least deleted product over the parts of reference_greedy on the
    expanded points).  The irrational values come as 50-digit mpmath
    numbers.
    """
    import mpmath

    rho2 = exact_rho2(s.zs)
    mults = s.mults.tolist()
    simple = max(mults) == 1
    nearest = min((r for j, row in enumerate(rho2) for k, r in enumerate(row) if k != j),
                  default=Fraction(1))
    quarter = Fraction(1, 4)
    count = max(sum(m for m, r in zip(mults, row) if r < quarter) for row in rho2)
    mass = max(sum(m * (1 - r) for m, r in zip(mults, row)) for row in rho2)
    expanded = np.repeat(s.zs, s.mults)
    part_delta = min(min(deleted_product_moduli(expanded[part])[0])
                     for part in reference_greedy(expanded, sep))
    with mpmath.workdps(50):
        discreteness = mpmath.sqrt(mpmath.mpf(nearest.numerator) / nearest.denominator)
    return {
        "delta": min(deleted_product_moduli(s.zs)[0]) if simple else 0,
        "discreteness": discreteness if simple else 0,
        "max_count_half": count,
        "blaschke_sup": float(mass),
        "part_delta": part_delta,
    }


def reference_greedy(zs, sep):
    """Plain first-fit loop with scalar distances, as index lists."""
    order = sorted(range(len(zs)), key=lambda i: (abs(zs[i]), np.angle(zs[i])))
    parts = []
    for i in order:
        for part in parts:
            if all(psh_distance(zs[i], zs[j]) > sep for j in part):
                part.append(i)
                break
        else:
            parts.append([i])
    return parts


def zero_jet(cluster) -> tuple:
    """The all-zero target on a cluster."""
    return tuple((0.0,) * m for m in cluster.mults.tolist())


def format_targets(jets) -> str:
    """Target-file text for the given jets, one line per derivative."""
    lines = ["# cluster point order value_re value_im"]
    for k, jet in enumerate(jets):
        for i, row in enumerate(jet):
            for order, v in enumerate(row):
                lines.append(f"{k} {i} {order} {v.real!r} {v.imag!r}")
    return "\n".join(lines) + "\n"


def arc_samples(arc, n: int):
    """Midpoint quadrature: n points along the arc (center, radius, t0, t1)
    with equal length weights."""
    center, radius, t0, t1 = arc
    t = t0 + (t1 - t0) * (np.arange(n) + 0.5) / n
    return center + radius * np.exp(1j * t), np.full(n, radius * (t1 - t0) / n)


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
    seq = FiniteSequence(pts)
    norm = carleson_norm(seq)
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


def reference_hyperbolic_grid(r_max: float, pitch: float) -> np.ndarray:
    """disk.hyperbolic_grid as a loop over rings that stops at the first
    ring past r_max or at disk._GRID_POINTS centers."""
    centers = [0.0 + 0.0j]
    r = 0.0
    while len(centers) < disk._GRID_POINTS:
        r = (r + pitch) / (1.0 + r * pitch)
        if r > r_max:
            break
        n_theta = max(6, int(np.ceil(2.0 * np.pi * r / ((1.0 - r * r) * pitch))))
        n_theta = min(n_theta, disk._GRID_POINTS - len(centers))
        theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
        centers.extend(r * np.exp(1j * theta))
    return np.array(centers, dtype=complex)
