"""Clustered interpolation with exponential kernels.

A finite sequence is split into clusters of small pseudohyperbolic
diameter whose eps-neighborhoods are pairwise disjoint.  Targets live on
clusters as jets (value and derivatives up to multiplicity).  The solver
assembles

    f(z) = sum_k  P_k(z) B_k~(z) kernel_k(z),
    kernel_k(z) = ((1-|a_k|^2)/(1 - conj(a_k) z))^q
                  exp((beta_k(a_k) - beta_k(z)) / s)

where a_k is the cluster anchor, B_k~ is the Blaschke product over all
points of the *other* clusters, beta_k sums the anchor tail terms
(1-|a_j|^2)(1 + conj(a_j) z)/(1 - conj(a_j) z) over j >= k, and P_k is the
confluent interpolation polynomial that makes the k-th summand carry the
prescribed jet.  Exponents (q, s) are (2, 1) for p >= 1 and (2/p, p) for
p < 1.  Every cross summand vanishes on cluster k to full multiplicity,
so jets add up exactly; solutions are verified independently through
Cauchy-circle derivative extraction.

The sum is evaluated in one pass over the clusters from last to first.
Cluster k forms the denominator 1 - conj(a_k) z once and
x = (1-|a_k|^2)/(1 - conj(a_k) z) with one division, and x serves both
the tail term 2x - (1-|a_k|^2) of the running beta_k (its constant cancels
in beta_k(a_k) - beta_k(z), so only x is summed) and kernel_k = x^q exp(...).
The pass keeps ``after``, the product of the own-cluster Blaschke products
B_j for j > k, and updates

    out <- out * B_k + P_k * after * kernel_k,    after <- after * B_k,

so each summand ends up multiplied by exactly the B_j with j != k: no
product over all points, no division by B_k and nothing special at points
that land on zeros.  Memory stays at a few arrays of the evaluation
points' size, whatever the number of clusters.

P_k is formed from the jets of h_k = B_k~ kernel_k at the points z0 of
cluster k.  The value h_k(z0) comes from the same pass with every P_k = 1:
each cross summand carries B_k, which is exactly 0 at z0.  The Taylor
coefficients L_n of log h_k at z0 are closed-form geometric sums over the
zeros of the other clusters, the anchor's power and the tail anchors,
computed for all points at once (_log_coefficients).  P_k's jet at z0 is
then target * exp(-L) / h_k(z0): no series division, no series log and no
second principal-branch power, whose guard stays with the value.

Anchors are ordered by increasing modulus, which empirically keeps
Re beta_k(a_k) tightest; partitions built by hand may use any order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bergman import hp_norm
from .blaschke import BlaschkeProduct, evaluate, log_abs_evaluate, max_local_count
from .carleson import CircleArc, arc_carleson_constant
from .disk import (
    DiskPoint,
    FiniteSequence,
    InvariantViolation,
    _one_minus_abs2,
    _tiles,
    _tocomplex,
    psh_distance_pairwise,
)
from .hermite import hermite_interpolant, jet_exp, jet_from_derivatives, jet_mul

EPS_HALVINGS = 5  # eps floor is eps / 2**EPS_HALVINGS
_CIRCLE_SAMPLES = 256  # samples per circle of a cluster's eps-neighborhood
_CAUCHY_NODES = 128  # nodes per Cauchy circle of the jet check


@dataclass(frozen=True)
class Cluster:
    """A finite cluster of points together with its chosen anchor."""

    points: FiniteSequence
    anchor: DiskPoint

    @property
    def cardinality(self) -> int:
        return self.points.total_count


@dataclass(frozen=True)
class ClusterPartition:
    """Clusters with disjoint eps-neighborhoods, plus their boundary gaps.

    d[k] is the Euclidean distance from the eps-neighborhood of cluster k
    to the unit circle.  Clusters are kept in anchor order; the order fixes
    the tail sums beta_k.
    """

    clusters: tuple
    eps: float
    d: tuple
    R_max: float

    def __post_init__(self):
        if self.clusters and len(self.d) != len(self.clusters):
            raise InvariantViolation("boundary gaps must parallel clusters")
        for dk in self.d:
            if not 0 < dk <= 1:
                raise InvariantViolation("boundary gaps must lie in (0, 1]")
        if not self.clusters:
            return
        diam, gaps = _cluster_distances(self.clusters)
        wide = np.flatnonzero(diam > self.R_max)
        if wide.size:
            i = wide[0]
            raise InvariantViolation(
                f"cluster {i} has diameter {diam[i]:.3f} above R_max"
            )
        close = np.argwhere(np.triu(gaps <= 2.0 * self.eps, 1))
        if close.size:
            i, j = close[0]
            raise InvariantViolation(
                f"clusters {i} and {j} at distance {gaps[i, j]:.3e} <= 2*eps; "
                "their neighborhoods overlap"
            )

    @property
    def anchors(self) -> np.ndarray:
        return np.array([c.anchor.z for c in self.clusters], dtype=complex)

    def all_points(self) -> FiniteSequence:
        pts = []
        mults = []
        for c in self.clusters:
            pts.extend(c.points.points)
            mults.extend(c.points.multiplicities)
        return FiniteSequence(tuple(pts), tuple(mults))


def _cluster_distances(clusters):
    """(diam, gaps) for a nonempty tuple of clusters: diam[k] is the
    pseudohyperbolic diameter of cluster k (0 for a single point) and
    gaps[i, j] the least distance between points of clusters i and j,
    both read block-wise off one pairwise matrix of all listed points."""
    sizes = [len(c.points) for c in clusters]
    starts = np.cumsum([0] + sizes[:-1])
    zs = np.concatenate([c.points.zs for c in clusters])
    dist = psh_distance_pairwise(zs, zs)
    gaps = np.minimum.reduceat(np.minimum.reduceat(dist, starts, axis=0), starts, axis=1)
    widest = np.maximum.reduceat(np.maximum.reduceat(dist, starts, axis=0), starts, axis=1)
    return np.diagonal(widest), gaps


@dataclass(frozen=True)
class HermiteJet:
    """Target data on one cluster: per point, derivatives f, f', ...
    up to order multiplicity - 1 (raw values, not Taylor coefficients)."""

    derivatives: tuple

    def __post_init__(self):
        object.__setattr__(
            self,
            "derivatives",
            tuple(tuple(complex(v) for v in row) for row in self.derivatives),
        )

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.derivatives for v in row)


@dataclass(frozen=True)
class InterpolationProblem:
    partition: ClusterPartition
    jets: tuple
    p: float

    def __post_init__(self):
        if len(self.jets) != len(self.partition.clusters):
            raise InvariantViolation("jets must parallel clusters")
        for jet, cluster in zip(self.jets, self.partition.clusters):
            if len(jet.derivatives) != len(cluster.points):
                raise InvariantViolation("jet rows must parallel cluster points")
            for row, m in zip(jet.derivatives, cluster.points.multiplicities):
                if len(row) != m:
                    raise InvariantViolation("jet order must equal point multiplicity")


@dataclass(frozen=True)
class InterpolationSolution:
    problem: InterpolationProblem
    function: object  # z -> f(z) on complex scalars and arrays
    achieved_norm: float
    jet_residual: float
    norm_ratio: float
    target_norm: float


def _euclid_disk(z: complex, eps: float):
    """Euclidean center and radius of the pseudohyperbolic disk D(z, eps)."""
    a = abs(z) ** 2
    c = z * (1.0 - eps * eps) / (1.0 - eps * eps * a)
    r = eps * (1.0 - a) / (1.0 - eps * eps * a)
    return c, r


def _outer_modulus(z: complex, eps: float) -> float:
    return (abs(z) + eps) / (1.0 + eps * abs(z))


def cluster_sequence(s: FiniteSequence, eps: float, R_max: float) -> ClusterPartition:
    """Greedy agglomeration into clusters with disjoint eps-neighborhoods.

    Points within pseudohyperbolic distance 2*eps merge into connected
    components.  If a component's diameter exceeds R_max the whole pass
    retries with eps halved, down to eps / 2**EPS_HALVINGS; beyond that the
    sequence admits no partition at this scale and the call fails.
    Anchors take the smallest-modulus point; clusters sort by anchor.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    if not 0 < R_max < 1:
        raise ValueError("R_max must lie in (0, 1)")
    if len(s) == 0:
        return ClusterPartition((), eps, (), R_max)
    zs = s.zs
    dist = psh_distance_pairwise(zs, zs)
    cur = float(eps)
    for _ in range(EPS_HALVINGS + 1):
        adj = dist <= 2.0 * cur
        labels = _components(adj)
        groups = [np.nonzero(labels == g)[0] for g in range(labels.max() + 1)]
        diams = [dist[np.ix_(g, g)].max() if len(g) > 1 else 0.0 for g in groups]
        if all(dm <= R_max for dm in diams):
            clusters = []
            for g in groups:
                pts = tuple(s.points[i] for i in g)
                mults = tuple(s.multiplicities[i] for i in g)
                anchor = min(pts, key=lambda q: (abs(q.z), np.angle(q.z)))
                clusters.append(Cluster(FiniteSequence(pts, mults), anchor))
            clusters.sort(key=lambda c: (abs(c.anchor.z), np.angle(c.anchor.z)))
            d = tuple(
                1.0 - max(_outer_modulus(p.z, cur) for p in c.points.points)
                for c in clusters
            )
            return ClusterPartition(tuple(clusters), cur, d, R_max)
        cur /= 2.0
    raise InvariantViolation("no admissible partition at eps floor")


def _components(adj: np.ndarray) -> np.ndarray:
    n = len(adj)
    labels = np.full(n, -1, dtype=int)
    count = 0
    for i in range(n):
        if labels[i] >= 0:
            continue
        stack = [i]
        labels[i] = count
        while stack:
            j = stack.pop()
            for nb in np.nonzero(adj[j])[0]:
                if labels[nb] < 0:
                    labels[nb] = count
                    stack.append(int(nb))
        count += 1
    return labels


def cluster_region_samples(cluster: Cluster, eps: float) -> np.ndarray:
    """Sample points of the eps-neighborhood: each constituent circle plus
    the cluster points and disk centers."""
    samples = [p.z for p in cluster.points.points]
    for p in cluster.points.points:
        c, r = _euclid_disk(p.z, eps)
        theta = 2.0 * np.pi * np.arange(_CIRCLE_SAMPLES) / _CIRCLE_SAMPLES
        samples.append(np.atleast_1d(c))
        samples.append(c + r * np.exp(1j * theta))
    return np.concatenate([np.atleast_1d(np.asarray(x, dtype=complex)) for x in samples])


def class_norm(cluster: Cluster, jet: HermiteJet, eps: float) -> float:
    """Size of the target class: sup over the sampled eps-neighborhood of
    the minimal-degree polynomial carrying the jet.

    The true quotient-class norm (inf of sup-norms over all analytic
    representatives) is not finitely computable; the canonical polynomial
    representative is equivalent for diameters bounded away from 1 and
    reduces to |value| on simple singletons.
    """
    pts = [p.z for p in cluster.points.points]
    mults = list(cluster.points.multiplicities)
    jets = [jet_from_derivatives(row) for row in jet.derivatives]
    P = hermite_interpolant(pts, mults, jets)
    return float(np.abs(P(cluster_region_samples(cluster, eps))).max())


def xp_norm(part: ClusterPartition, jets, p) -> float:
    """Target-sequence norm: (sum class_norm^p * d_k)^(1/p), sup at p=inf."""
    if len(jets) != len(part.clusters):
        raise InvariantViolation("jets must parallel clusters")
    norms = [class_norm(c, j, part.eps) for c, j in zip(part.clusters, jets)]
    if p == np.inf:
        return max(norms) if norms else 0.0
    if not p > 0:
        raise ValueError("p must be positive or inf")
    return float(sum(cn**p * dk for cn, dk in zip(norms, part.d)) ** (1.0 / p))


def _anchor_rows(anchors: np.ndarray, w: np.ndarray, q: float, s: float):
    """Yield (k, kernel_k(w)) for k from the last anchor down to 0 at a 1-D
    complex array w, on the principal branch, which needs
    Re(1 - conj(a_k) w) > 0.  The running sum of x = (1-|a_k|^2)/(1 - conj(a_k) w)
    over the anchors j >= k, carried at the anchors (appended to w) as well,
    is beta_k/2 up to a constant (see the module docstring).  The yielded
    array is overwritten by the next step."""
    n = len(w)
    wa = np.append(w, anchors)
    x = np.empty_like(wa)
    tails = np.zeros_like(wa)
    kern = np.empty_like(w)
    pw = np.empty_like(w)
    xw = x[:n]
    for k in range(len(anchors) - 1, -1, -1):
        a = anchors[k]
        np.multiply(wa, -a.conjugate(), out=x)
        x += 1.0
        if not (x.real > 0).all():
            raise RuntimeError("principal power guard: Re(1 - conj(a) z) <= 0")
        np.divide(1.0 - abs(a) ** 2, x, out=x)
        tails += x
        np.subtract(tails[n + k], tails[:n], out=kern)
        kern *= 2.0 / s
        np.exp(kern, out=kern)
        kern *= np.power(xw, q, out=pw)
        yield k, kern


def poisson_angular_mean(anchor, r: float) -> float:
    """Angular mean of (1-|a|^2)/|1 - conj(a) r e^(i theta)|^2 over 2048
    angles; equals (1-|a|^2)/(1-r^2|a|^2) <= 1 in closed form, so the
    sampled mean certifies the kernel's row bound."""
    a = _tocomplex(anchor)
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
    w = np.asarray([_tocomplex(g) for g in grid], dtype=complex)
    total = np.zeros(w.shape)
    for _, kern in _anchor_rows(anchors, w, 2.0, 1.0):
        total += np.abs(kern)
    return float(total.max())


def _exponents(p) -> tuple:
    if p == np.inf or p >= 1:
        return 2.0, 1.0
    return 2.0 / p, p


def _summands(problem: InterpolationProblem):
    """The reverse pass of the module docstring for this problem, as
    summed(w, weights) = sum_k weights[k](w) B~_k(w) kernel_k(w) over the
    clusters k whose weight is not None, at a 1-D complex array w."""
    part = problem.partition
    q, s = _exponents(problem.p)
    anchors = part.anchors
    b_own = [BlaschkeProduct(c.points) for c in part.clusters]

    def summed(w, weights):
        out = np.zeros_like(w)
        after = np.ones_like(w)
        for k, kern in _anchor_rows(anchors, w, q, s):
            own = evaluate(b_own[k], w)
            out *= own
            if weights[k] is not None:
                kern *= after
                kern *= weights[k](w)
                out += kern
            after *= own
        return out

    return summed


def _log_coefficients(part: ClusterPartition, q: float, s: float) -> np.ndarray:
    """L[n-1, i] for n = 1 .. M-1: the Taylor coefficients of log h_k at the
    i-th listed point z0 (in ``all_points`` order, cluster k), where
    h_k = B~_k kernel_k and M is the largest multiplicity.

    With x = 1/(a - z0) and y = conj(a)/(1 - conj(a) z0), each zero a of
    another cluster adds -(m_a/n)(x^n - y^n), formed as (x - y) times
    sum_i x^i y^(n-1-i) with x - y = (1-|a|^2)/((a - z0)(1 - conj(a) z0));
    anchor a_k's power adds (q/n) y^n, and each tail anchor a_j, j >= k,
    adds -(2/s)(1-|a_j|^2) y^n/(1 - conj(a_j) z0).
    """
    seq = part.all_points()
    z0, mults = seq.zs, seq.mults
    labels = np.repeat(np.arange(len(part.clusters)), [len(c.points) for c in part.clusters])
    out = np.zeros((mults.max(initial=1) - 1, len(z0)), dtype=complex)
    if not out.size:
        return out
    depth = _one_minus_abs2(z0)
    for r, c in _tiles(len(z0), len(z0)):
        other = np.not_equal.outer(labels[r], labels[c])
        diff = np.where(other, np.subtract.outer(z0[r], z0[c]), 1.0)
        v = 1.0 - np.multiply.outer(np.conj(z0[r]), z0[c])
        x = 1.0 / diff
        y = np.conj(z0[r])[:, None] / v
        scaled = (mults[r] * depth[r])[:, None] * other / (diff * v)  # m_a (x - y)
        geo = np.ones_like(x)  # sum_i x^i y^(n-1-i)
        yn = np.ones_like(x)
        for n in range(1, len(out) + 1):
            out[n - 1, c] -= (scaled * geo).sum(axis=0) / n
            yn *= y
            geo *= x
            geo += yn
    anchors = part.anchors
    idx = np.arange(len(anchors))
    for r, c in _tiles(len(anchors), len(z0)):
        v = 1.0 - np.multiply.outer(np.conj(anchors[r]), z0[c])
        y = np.conj(anchors[r])[:, None] / v
        own = np.equal.outer(idx[r], labels[c]) * q
        tail = np.greater_equal.outer(idx[r], labels[c]) * (2.0 / s) \
            * _one_minus_abs2(anchors[r])[:, None] / v
        yn = np.ones_like(y)
        for n in range(1, len(out) + 1):
            yn *= y
            out[n - 1, c] += ((own / n - tail) * yn).sum(axis=0)
    return out


def _multiplier_polynomials(problem: InterpolationProblem, values: np.ndarray) -> list:
    """Confluent polynomials P_k with jet target / h_k at the points of
    cluster k, or None where the target is zero; values holds h_k(z0) at
    the listed points in ``all_points`` order."""
    part = problem.partition
    L = _log_coefficients(part, *_exponents(problem.p))
    polys = []
    start = 0
    for cluster, target in zip(part.clusters, problem.jets):
        mults = cluster.points.multiplicities
        rows = range(start, start + len(mults))
        start += len(mults)
        if target.is_zero():
            polys.append(None)
            continue
        quotient_jets = [
            jet_mul(jet_from_derivatives(row), jet_exp(np.concatenate([[0.0], -L[: m - 1, i]])))
            / values[i]
            for i, m, row in zip(rows, mults, target.derivatives)
        ]
        polys.append(hermite_interpolant(cluster.points.zs, mults, quotient_jets))
    return polys


def _solution_evaluator(problem: InterpolationProblem):
    """Vectorized evaluator for the assembled interpolation sum (see the
    module docstring)."""
    summed = _summands(problem)
    points = problem.partition.all_points().zs
    polys = _multiplier_polynomials(problem, summed(points, [np.ones_like] * len(problem.jets)))

    def ev(z):
        scalar = not isinstance(z, np.ndarray)
        w = np.asarray(_tocomplex(z) if scalar else z, dtype=complex).ravel()
        out = summed(w, polys)
        return complex(out[0]) if scalar else out.reshape(np.shape(z))

    return ev


def _extract_jets(fn, centers, orders) -> list:
    """Derivatives f, f', ..., f^(order-1) at every center by Cauchy-circle
    means, from one call of fn on the stacked circles of radius
    0.1 (1 - |z0|) about the centers."""
    centers = np.asarray(centers, dtype=complex)
    rho = 0.1 * (1.0 - np.abs(centers))
    ring = np.exp(2j * np.pi * np.arange(_CAUCHY_NODES) / _CAUCHY_NODES)
    vals = fn(centers[:, None] + rho[:, None] * ring)
    jets = []
    for row, r, order in zip(vals, rho, orders):
        derivs = np.empty(order, dtype=complex)
        fact = 1.0
        for i in range(order):
            derivs[i] = np.mean(row * ring ** (-i)) / r**i * fact
            fact *= i + 1
        jets.append(derivs)
    return jets


def vgh_interpolate(problem: InterpolationProblem) -> InterpolationSolution:
    """Solve the clustered interpolation problem and verify the jets.

    Verification is independent of the construction: derivatives come back
    out of the assembled function through Cauchy-circle quadrature, and the
    largest mismatch (relative, with an absolute floor near zero targets)
    must stay below 1e-6 or the construction reports failure.
    """
    if problem.p != np.inf and not problem.p > 0:
        raise ValueError("p must be positive or inf")
    part = problem.partition
    # q = 2/p past the double range overflows the kernel; the inf and nan it
    # leaves give a nan residual, which fails the check below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ev = _solution_evaluator(problem)

    target_scale = 1.0
    for jet in problem.jets:
        for row in jet.derivatives:
            for v in row:
                target_scale = max(target_scale, abs(v))
    centers = [p.z for c in part.clusters for p in c.points.points]
    orders = [m for c in part.clusters for m in c.points.multiplicities]
    rows = [row for jet in problem.jets for row in jet.derivatives]
    worst = 0.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        got_jets = _extract_jets(ev, centers, orders)
    for got, row in zip(got_jets, rows):
        for g, t in zip(got, row):
            denom = max(abs(t), 0.01 * target_scale)
            worst = float(np.maximum(worst, abs(g - t) / denom))
    if not worst <= 1e-6:
        raise RuntimeError(
            f"construction failed: jet residual {worst:.3e} exceeds 1e-6"
        )

    achieved = hp_norm(ev, problem.p)
    xp = xp_norm(part, problem.jets, problem.p)
    ratio = achieved / xp if xp > 0 else 0.0
    return InterpolationSolution(problem, ev, achieved, worst, ratio, xp)


def hinf_bound_estimate(part: ClusterPartition, b: BlaschkeProduct) -> float:
    """Sup-norm interpolation bound C/delta from contour data.

    The contour around each cluster is the outer boundary of the union of
    pseudohyperbolic eps-disks about its points, realized as kept arcs of
    the constituent circles.  C is the Carleson constant of arc length on
    the whole family, within a factor 1 + 1e-3 of the supremum over all
    squares (arc_carleson_constant).  delta is the min of |b| over
    _CIRCLE_SAMPLES samples of each circle, so it can sit above the true
    minimum and C/delta below the true bound.
    """
    if len(part.clusters) == 0:
        return 0.0
    fragments = []
    log_min = np.inf
    for cluster in part.clusters:
        disks = [_euclid_disk(p.z, part.eps) for p in cluster.points.points]
        for j, (cj, rj) in enumerate(disks):
            theta = 2.0 * np.pi * (np.arange(_CIRCLE_SAMPLES) + 0.5) / _CIRCLE_SAMPLES
            pts = cj + rj * np.exp(1j * theta)
            keep = np.ones(_CIRCLE_SAMPLES, dtype=bool)
            for i, (ci, ri) in enumerate(disks):
                if i != j:
                    keep &= np.abs(pts - ci) >= ri
            if not keep.any():
                continue
            log_min = min(log_min, float(log_abs_evaluate(b, pts[keep]).min()))
            fragments.extend(_arcs_from_mask(cj, rj, theta, keep))
    delta = float(np.exp(log_min)) if np.isfinite(log_min) else 0.0
    if delta < 1e-12:
        raise InvariantViolation("contour touches zero set")
    c_arc = arc_carleson_constant(fragments)
    return c_arc / delta


def _arcs_from_mask(center: complex, radius: float, theta: np.ndarray,
                    keep: np.ndarray) -> list:
    """Merge consecutive kept samples (circularly) into circle arcs."""
    n = len(theta)
    step = 2.0 * np.pi / n
    if keep.all():
        return [CircleArc(center, radius, 0.0, 2.0 * np.pi)]
    # rotate so the run structure has a False at position 0
    shift = int(np.argmin(keep))
    edges = np.diff(np.roll(keep, -shift).astype(np.int8), append=0)
    firsts = (np.flatnonzero(edges == 1) + 1 + shift) % n
    lasts = (np.flatnonzero(edges == -1) + shift) % n
    t0 = theta[firsts] - step / 2.0
    t1 = theta[lasts] + step / 2.0
    t1[t1 < t0] += 2.0 * np.pi
    return [CircleArc(center, radius, a, b) for a, b in zip(t0, t1)]


@dataclass(frozen=True)
class FactsReport:
    separation_ok: bool
    separation_margin: float
    cardinality_ok: bool
    max_cardinality: int
    cardinality_bound: int
    subsequence_ok: bool
    worst_subsequence_factor: float
    violations: tuple


def verify_facts(part: ClusterPartition, solution_batch,
                 n_subsets: int = 10, seed: int = 0) -> FactsReport:
    """Check the structural facts of clustered interpolation on a batch.

    (a) clusters keep pairwise distance above 2*eps;
    (b) restricting targets to a subsequence of clusters never inflates the
        empirical norm ratio beyond 1.5x the full-problem ratio;
    (c) cluster cardinalities stay below the local zero-count bound.
    """
    violations = []
    clusters = part.clusters
    sep_margin = np.inf
    if len(clusters) > 1:
        _, gaps = _cluster_distances(clusters)
        sep_margin = gaps[np.triu_indices(len(clusters), 1)].min() - 2.0 * part.eps
    separation_ok = sep_margin > 0 or len(clusters) < 2
    if not separation_ok:
        violations.append(f"cluster separation short by {-sep_margin:.3e}")

    max_card = max((c.cardinality for c in clusters), default=0)
    if clusters:
        b_all = BlaschkeProduct(part.all_points())
        bound = max_local_count(b_all, min(0.999999, part.R_max * 1.001))
    else:
        bound = 0
    cardinality_ok = max_card <= bound
    if not cardinality_ok:
        violations.append(f"cardinality {max_card} above bound {bound}")

    rng = np.random.default_rng(seed)
    worst_factor = 0.0
    subsequence_ok = True
    for sol in solution_batch:
        if sol.norm_ratio <= 0 or len(clusters) < 2:
            continue
        for _ in range(n_subsets):
            size = int(rng.integers(1, len(clusters)))
            chosen = np.sort(rng.choice(len(clusters), size=size, replace=False))
            sub_part = ClusterPartition(
                tuple(clusters[i] for i in chosen),
                part.eps,
                tuple(part.d[i] for i in chosen),
                part.R_max,
            )
            sub_jets = tuple(sol.problem.jets[i] for i in chosen)
            if all(j.is_zero() for j in sub_jets):
                continue
            sub = vgh_interpolate(InterpolationProblem(sub_part, sub_jets, sol.problem.p))
            if sub.norm_ratio > 0:
                factor = sub.norm_ratio / sol.norm_ratio
                worst_factor = max(worst_factor, factor)
                if factor > 1.5:
                    subsequence_ok = False
                    violations.append(
                        f"subsequence ratio factor {factor:.3f} above 1.5"
                    )
    return FactsReport(
        separation_ok,
        float(sep_margin if np.isfinite(sep_margin) else 1.0),
        cardinality_ok,
        max_card,
        bound,
        subsequence_ok,
        worst_factor,
        tuple(violations),
    )
