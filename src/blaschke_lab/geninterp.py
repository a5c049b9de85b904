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
Cauchy-circle derivative extraction, against the nodes actually sampled.

The sum is evaluated in one pass over the clusters from last to first.
Cluster k forms one denominator: d = a_k - z and from it
v = 1 - conj(a_k) z = (1-|a_k|^2) + conj(a_k) d, disk._one_minus_conj's
expression written out so that d is kept, then x = (1-|a_k|^2)/v with one
division.  x serves the tail term 2x - (1-|a_k|^2) of the running beta_k
(its constant cancels in beta_k(a_k) - beta_k(z), so only x is summed),
kernel_k = x^q exp(...) and the anchor's own Blaschke factor
unit (a_k - z)/v = (unit/(1-|a_k|^2)) d x, with no second division.
blaschke.evaluate runs only on the cluster's other listed points, so only
for clusters of more than one point.  Integral powers, x^q at q = 2, 3,
4, ... and the anchor's multiplicity, are squares and multiplies
(_power): 0.8 and 1.5 ns a point at q = 2 and 4 against np.power's 5.8
and 9.5 (6,016 points, one thread).  np.power stays for non-integral q.
The complex np.exp, 14 ns a point, is the largest step left of the 36 to
39 ns per cluster and point that the pass takes at 6,016 points.
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

The pass multiplies in place in a fixed operand order, so a point's
value has the same bits in every call.  A call of one point runs on two
copies of it: numpy rounds a one-element in-place product differently.
hinf_bound_estimate passes the contour arcs to arc_carleson_constant as
four parallel arrays and takes delta from one kernel call.

A cluster is a FiniteSequence, and its target a tuple of per-point rows
of raw derivatives f, f', ..., f^(m-1) at a point of multiplicity m.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .bergman import _p_mean, hp_norm
from .blaschke import BlaschkeProduct, evaluate, log_abs_evaluate
from .carleson import arc_carleson_constant
from .disk import (
    FiniteSequence,
    InvariantViolation,
    _one_minus_abs2,
    _one_minus_conj,
    _tiles,
    psh_distance_pairwise,
)
from .hermite import hermite_interpolant, jet_exp, jet_from_derivatives, jet_mul

EPS_HALVINGS = 5  # eps floor is eps / 2**EPS_HALVINGS
_CIRCLE_SAMPLES = 256  # samples per circle of a cluster's eps-neighborhood
_JET_POWERS, _JET_PASSES = 16, 4  # Taylor coefficients fitted per circle, refining passes


def _anchor_key(z: complex) -> tuple:
    """Sort key of anchors: modulus, then angle."""
    return abs(z), np.angle(z)


@dataclass(frozen=True)
class ClusterPartition:
    """Clusters (FiniteSequences) with disjoint eps-neighborhoods.

    Worked out at construction: anchors[k], the least-modulus point of
    cluster k (ties by angle); d[k], the Euclidean distance from its
    eps-neighborhood to the unit circle, the least over its points z of
    (1 - |z|)(1 - eps)/(1 + eps |z|) with 1 - |z| = (1 - |z|^2)/(1 + |z|)
    from the error-free depth; and the points of all clusters in order
    (all_points).  Clusters are kept in the given order, which fixes the
    tail sums beta_k.  The diameters and gaps are checked on the pairwise
    distances of all_points; cluster_sequence, which has them already,
    hands them in (_dist), and otherwise they are formed here.
    """

    clusters: tuple
    eps: float
    R_max: float
    anchors: np.ndarray = field(init=False, repr=False, compare=False)
    d: tuple = field(init=False)
    _points: FiniteSequence = field(init=False, repr=False, compare=False)
    _dist: InitVar[np.ndarray | None] = None

    def __post_init__(self, _dist):
        zs = [c.zs.tolist() for c in self.clusters]
        if not all(zs):
            raise InvariantViolation("clusters must be nonempty")
        anchors = np.array([min(c, key=_anchor_key) for c in zs], dtype=complex)
        anchors.flags.writeable = False
        points = FiniteSequence(np.concatenate([c.zs for c in self.clusters]),
                                np.concatenate([c.mults for c in self.clusters])) \
            if self.clusters else FiniteSequence([])
        r = np.abs(points.zs)
        gaps = _one_minus_abs2(points.zs) / (1.0 + r) * (1.0 - self.eps) / (1.0 + self.eps * r)
        labels = self.labels()
        d = np.full(len(zs), np.inf)
        np.minimum.at(d, labels, gaps)
        d = tuple(d.tolist())
        if not all(0 < dk <= 1 for dk in d):
            raise InvariantViolation("boundary gaps must lie in (0, 1]")
        for name, value in (("anchors", anchors), ("d", d), ("_points", points)):
            object.__setattr__(self, name, value)
        if not self.clusters:
            return
        if _dist is None:
            _dist = psh_distance_pairwise(points.zs, points.zs)
        diam, gaps = _cluster_distances(_dist, labels)
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

    def all_points(self) -> FiniteSequence:
        return self._points

    def labels(self) -> np.ndarray:
        """The cluster index of each point of all_points."""
        return np.repeat(np.arange(len(self.clusters)), [len(c) for c in self.clusters])


def _cluster_distances(dist: np.ndarray, labels: np.ndarray):
    """(diam, gaps) for points labelled 0 .. K-1 by cluster, read block-wise
    off their pairwise matrix dist: diam[k] is the pseudohyperbolic
    diameter of cluster k (0 for a single point) and gaps[i, j] the least
    distance between points of clusters i and j."""
    order = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.diff(labels[order], prepend=-1))
    dist = dist[np.ix_(order, order)]
    gaps = np.minimum.reduceat(np.minimum.reduceat(dist, starts, axis=0), starts, axis=1)
    widest = np.maximum.reduceat(np.maximum.reduceat(dist, starts, axis=0), starts, axis=1)
    return np.diagonal(widest), gaps


@dataclass(frozen=True)
class InterpolationProblem:
    """Targets on a partition: jets[k][i] is the row of raw derivatives at
    point i of cluster k, as long as its multiplicity."""

    partition: ClusterPartition
    jets: tuple
    p: float

    def __post_init__(self):
        if self.p != np.inf and not self.p > 0:
            raise ValueError("p must be positive or inf")
        jets = tuple(tuple(tuple(complex(v) for v in row) for row in jet) for jet in self.jets)
        object.__setattr__(self, "jets", jets)
        if len(jets) != len(self.partition.clusters):
            raise InvariantViolation("jets must parallel clusters")
        for jet, cluster in zip(jets, self.partition.clusters):
            if len(jet) != len(cluster):
                raise InvariantViolation("jet rows must parallel cluster points")
            if [len(row) for row in jet] != cluster.mults.tolist():
                raise InvariantViolation("jet order must equal point multiplicity")


@dataclass(frozen=True)
class InterpolationSolution:
    problem: InterpolationProblem
    function: object  # z -> f(z) on complex scalars and arrays
    achieved_norm: float
    jet_residual: float
    norm_ratio: float
    target_norm: float


def _euclid_disks(zs: np.ndarray, eps: float):
    """Euclidean centres and radii of the pseudohyperbolic disks D(z, eps)
    about the points zs, the radii from the error-free depths 1 - |z|^2."""
    k = 1.0 - eps * eps * np.abs(zs) ** 2
    return zs * (1.0 - eps * eps) / k, eps * _one_minus_abs2(zs) / k


def _cluster_disks(part: ClusterPartition) -> list:
    """(centres, radii) of the eps-disks about the points of each cluster,
    from one _euclid_disks call over all_points, split by labels."""
    centres, radii = _euclid_disks(part.all_points().zs, part.eps)
    cuts = np.flatnonzero(np.diff(part.labels())) + 1
    return list(zip(np.split(centres, cuts), np.split(radii, cuts)))


def cluster_sequence(s: FiniteSequence, eps: float, R_max: float) -> ClusterPartition:
    """Greedy agglomeration into clusters with disjoint eps-neighborhoods.

    Points within pseudohyperbolic distance 2*eps merge into connected
    components.  If a component's diameter exceeds R_max the whole pass
    retries with eps halved, down to eps / 2**EPS_HALVINGS; beyond that the
    sequence admits no partition at this scale and the call fails.
    Clusters sort by anchor (_anchor_key).  The pairwise distances are
    formed once, and the partition checks its clusters on the same matrix.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    if not 0 < R_max < 1:
        raise ValueError("R_max must lie in (0, 1)")
    if len(s) == 0:
        return ClusterPartition((), eps, R_max)
    zs = s.zs
    points = zs.tolist()  # scalar moduli, as in blaschke._greedy_parts
    dist = psh_distance_pairwise(zs, zs)
    cur = float(eps)
    for _ in range(EPS_HALVINGS + 1):
        labels = _components(dist <= 2.0 * cur)
        diam, _ = _cluster_distances(dist, labels)
        if (diam <= R_max).all():
            groups = [np.flatnonzero(labels == g) for g in range(len(diam))]
            groups.sort(key=lambda g: min(_anchor_key(points[i]) for i in g))
            order = np.concatenate(groups)
            return ClusterPartition(
                tuple(FiniteSequence(zs[g], s.mults[g]) for g in groups), cur, R_max,
                dist[np.ix_(order, order)])
        cur /= 2.0
    raise InvariantViolation("no admissible partition at eps floor")


def _components(adj: np.ndarray) -> np.ndarray:
    """Labels 0, 1, ... of the connected components of the reflexive graph
    adj, in the order of their least indices: each node takes the least
    label among its neighbours, then the label of the node that names,
    until no label moves."""
    labels = np.arange(len(adj))
    while True:
        low = np.where(adj, labels, len(adj)).min(axis=1)
        low = low[low]
        if np.array_equal(low, labels):
            return np.unique(labels, return_inverse=True)[1]
        labels = low


def class_norms(part: ClusterPartition, jets) -> list:
    """Size of each cluster's target class: sup of the minimal-degree
    polynomial carrying its jet over its eps-neighborhood, sampled at the
    cluster points, the disk centres and each constituent circle.

    The true quotient-class norm (inf of sup-norms over all analytic
    representatives) is not finitely computable; the canonical polynomial
    representative is equivalent for diameters bounded away from 1 and
    reduces to |value| on simple singletons.
    """
    if len(jets) != len(part.clusters):
        raise InvariantViolation("jets must parallel clusters")
    theta = 2.0 * np.pi * np.arange(_CIRCLE_SAMPLES) / _CIRCLE_SAMPLES
    ring = np.exp(1j * theta)
    norms = []
    for cluster, jet, (c, r) in zip(part.clusters, jets, _cluster_disks(part)):
        P = hermite_interpolant(cluster.zs, cluster.mults,
                                [jet_from_derivatives(row) for row in jet])
        circles = c[:, None] + r[:, None] * ring
        norms.append(float(np.abs(P(np.concatenate([cluster.zs, c, circles.ravel()]))).max()))
    return norms


def xp_norm(part: ClusterPartition, jets, p) -> float:
    """Target-sequence norm: (sum n_k^p * d_k)^(1/p) over the class_norms
    n_k of the clusters, scaled by the largest n_k (bergman._p_mean), max
    n_k at p=inf."""
    norms = class_norms(part, jets)
    if p == np.inf:
        return max(norms) if norms else 0.0
    if not p > 0:
        raise ValueError("p must be positive or inf")
    return _p_mean(norms, p, part.d)


def _is_zero(jet) -> bool:
    return all(v == 0 for row in jet for v in row)


def _exponents(p) -> tuple:
    if p == np.inf or p >= 1:
        return 2.0, 1.0
    return 2.0 / p, p


def _power(x: np.ndarray, q, out: np.ndarray) -> np.ndarray:
    """x**q for a complex array x: x itself at q = 1, at any other integral
    q by left-to-right binary powering into out (x squared, then for each
    further bit of q a square, and a multiply by x where the bit is set),
    and by np.power into out otherwise.  out must not be x."""
    if q == 1:
        return x
    if not float(q).is_integer():
        return np.power(x, q, out=out)
    np.multiply(x, x, out=out)
    for i, bit in enumerate(bin(int(q))[3:]):
        if i:
            out *= out
        if bit == "1":
            out *= x
    return out


def _summands(problem: InterpolationProblem):
    """The reverse pass of the module docstring for this problem, as
    summed(w, weights) = sum_k weights[k](w) B~_k(w) kernel_k(w) over the
    clusters k whose weight is not None, at a 1-D complex array w.

    kernel_k is taken on the principal branch, which needs
    Re(1 - conj(a_k) w) > 0.  The running sum of x (module docstring) over
    the anchors j >= k, carried at the anchors (appended to w) as well, is
    beta_k/2 up to a constant."""
    part = problem.partition
    q, s = _exponents(problem.p)
    anchors = part.anchors
    depths = _one_minus_abs2(anchors)
    conj = anchors.conj()
    # the anchor's own factor unit (a - w)/v is (unit/depth) (a - w) x, with
    # unit = conj(a)/|a|, or -1 at a = 0, whose factor is w
    scales = np.divide(conj, np.abs(anchors), out=np.full(len(anchors), -1.0 + 0j),
                       where=anchors != 0) / depths
    own_mults, rests = [], []  # the anchor's multiplicity, the product of the rest
    for c, a in zip(part.clusters, anchors.tolist()):
        i = c.zs.tolist().index(a)
        own_mults.append(int(c.mults[i]))
        keep = np.arange(len(c)) != i
        rests.append(BlaschkeProduct(FiniteSequence(c.zs[keep], c.mults[keep]))
                     if len(c) > 1 else None)

    def summed(w, weights):
        n = len(w)
        wa = np.append(w, anchors)
        d, v, x = (np.empty_like(wa) for _ in range(3))
        tails = np.zeros_like(wa)
        kern, power = np.empty_like(w), np.empty_like(w)
        out = np.zeros_like(w)
        after = np.ones_like(w)
        for k in range(len(anchors) - 1, -1, -1):
            np.subtract(anchors[k], wa, out=d)
            # v = 1 - conj(a_k) w as disk._one_minus_conj forms it, from d
            np.multiply(conj[k], d, out=v)
            v += depths[k]
            if not (v.real > 0).all():
                raise RuntimeError("principal power guard: Re(1 - conj(a) z) <= 0")
            np.divide(depths[k], v, out=x)
            tails += x
            np.subtract(tails[n + k], tails[:n], out=kern)
            kern *= 2.0 / s
            np.exp(kern, out=kern)
            kern *= _power(x[:n], q, power)
            own = d[:n]  # a_k - w becomes B_k, the own-cluster product
            own *= scales[k]
            own *= x[:n]
            own = _power(own, own_mults[k], power)
            if rests[k] is not None:
                own *= evaluate(rests[k], w)
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
    labels = part.labels()
    out = np.zeros((mults.max(initial=1) - 1, len(z0)), dtype=complex)
    if not out.size:
        return out
    depth = _one_minus_abs2(z0)
    for r, c in _tiles(len(z0), len(z0)):
        other = np.not_equal.outer(labels[r], labels[c])
        diff = np.where(other, np.subtract.outer(z0[r], z0[c]), 1.0)
        v = _one_minus_conj(z0[r, None], depth[r, None], z0[c])
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
    depth = _one_minus_abs2(anchors)
    idx = np.arange(len(anchors))
    for r, c in _tiles(len(anchors), len(z0)):
        v = _one_minus_conj(anchors[r, None], depth[r, None], z0[c])
        y = np.conj(anchors[r])[:, None] / v
        own = np.equal.outer(idx[r], labels[c]) * q
        tail = np.greater_equal.outer(idx[r], labels[c]) * (2.0 / s) * depth[r, None] / v
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
    labels = part.labels()
    polys = []
    for k, (cluster, target) in enumerate(zip(part.clusters, problem.jets)):
        mults = cluster.mults.tolist()
        if _is_zero(target):
            polys.append(None)
            continue
        quotient_jets = [
            jet_mul(jet_from_derivatives(row), jet_exp(np.concatenate([[0.0], -L[: m - 1, i]])))
            / values[i]
            for i, m, row in zip(np.flatnonzero(labels == k), mults, target)
        ]
        polys.append(hermite_interpolant(cluster.zs, mults, quotient_jets))
    return polys


def _solution_evaluator(problem: InterpolationProblem):
    """Vectorized evaluator for the assembled interpolation sum (see the
    module docstring)."""
    summed = _summands(problem)
    points = problem.partition.all_points().zs
    polys = _multiplier_polynomials(problem, summed(points, [np.ones_like] * len(problem.jets)))

    def ev(z):
        w = np.asarray(z, dtype=complex).ravel()
        # one point runs as two (module docstring)
        out = summed(np.repeat(w, 2), polys)[::2] if len(w) == 1 else summed(w, polys)
        return out.reshape(z.shape) if isinstance(z, np.ndarray) else complex(out[0])

    return ev


def _jet_powers(q: float, order: int) -> int:
    """Taylor coefficients _extract_jets fits per circle for an interpolant
    whose kernel is raised to the power q: at least _JET_POWERS and the
    largest order, and enough that the trapezoid rule on twice as many
    nodes, which aliases coefficient n + nodes onto n, misses by less
    than 2^-53 of the kernel's value at the centre.

    Every anchor a lies at least 10 rho from the centre z0, so in
    u = (z - z0)/rho the kernel's power (1 - conj(a) z)^(-q) is its centre
    value times (1 - t u)^(-q) with |t| <= 1/10.  On |u| = R < 10 that is
    at most (1 - R/10)^(-q), so by Cauchy's estimate coefficient N is at
    most (1 - R/10)^(-q) R^(-N), which at the best R = 10 N / (q + N) is
    (1 + N/q)^q ((q + N) / (10 N))^N.  At q <= 4 (p >= 1/2) it falls
    below 2^-53 from N = 21 on, so the default 16 powers (32 nodes)
    stand; at q = 400 (p = 0.005) it asks for 82 powers.  The powers stop
    growing at 8 _JET_POWERS (q about 690): there the check's rounding,
    eps max|f| n!/rho^n, refuses the solve at any node count.
    """
    powers = max(_JET_POWERS, order)
    while powers < 8 * _JET_POWERS and (
            q * math.log1p(2 * powers / q)
            + 2 * powers * math.log((q + 2 * powers) / (20 * powers)) > -53 * math.log(2)):
        powers += 1
    return powers


def _extract_jets(fn, centers, orders, q: float) -> list:
    """Derivatives f, f', ..., f^(order-1) at every center by Cauchy-circle
    means, from one call of fn on the stacked circles of radius
    rho = 0.1 (1 - |z0|) about the centers, each with twice as many nodes
    as coefficients fitted, powers = _jet_powers(q, largest order): 32
    nodes a circle at q <= 4.  Every singularity of the interpolant lies at
    least 10 rho from z0, so its n-th coefficient on the circle falls off
    like 10^-n once n passes about q/9, and the trapezoid rule, which
    aliases coefficient n + nodes onto n, aliases below 2^-53 of the
    kernel's centre value (_jet_powers).  Near the
    circle the nodes round by a fair share of rho, so the Taylor
    coefficients c_n of f(z0 + rho u) are fitted to the offsets
    u = (w - z0)/rho of the nodes w actually sampled, which are exact: the
    FFT means of the samples, refined by passes that add the FFT means of
    vals - sum c_n u^n.  The passes stop early once one corrects no
    coefficient by more than a rounding of the circle's largest sample,
    eps max|vals|, on every circle."""
    centers = np.asarray(centers, dtype=complex)
    rho = 0.1 * (1.0 - np.abs(centers))
    powers = _jet_powers(q, max(orders, default=0))
    nodes = 2 * powers
    ring = np.exp(2j * np.pi * np.arange(nodes) / nodes)
    w = centers[:, None] + rho[:, None] * ring
    vals = fn(w)
    u = (w - centers[:, None]) / rho[:, None]
    coef = np.fft.fft(vals)[:, :powers] / nodes
    rounding = np.finfo(float).eps * np.abs(vals).max(axis=1)
    for _ in range(_JET_PASSES):
        fit = np.polynomial.polynomial.polyval(u, coef.T[:, :, None], tensor=False)
        step = np.fft.fft(vals - fit)[:, :powers] / nodes
        coef += step
        if (np.abs(step).max(axis=1) <= rounding).all():
            break
    fact = np.cumprod(np.r_[1.0, 1:powers])
    return [c[:m] / r ** np.arange(m) * fact[:m] for c, r, m in zip(coef, rho, orders)]


def vgh_interpolate(problem: InterpolationProblem) -> InterpolationSolution:
    """Solve the clustered interpolation problem and verify the jets.

    Verification is independent of the construction: derivatives come back
    out of the assembled function through Cauchy-circle quadrature, and the
    largest mismatch (relative, with an absolute floor near zero targets)
    must stay below 1e-6 or the construction reports failure.
    """
    part = problem.partition
    # q = 2/p past the double range overflows the kernel; the inf and nan it
    # leaves give a nan residual, which fails the check below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ev = _solution_evaluator(problem)

    rows = [row for jet in problem.jets for row in jet]
    target_scale = max([1.0] + [abs(v) for row in rows for v in row])
    seq = part.all_points()
    worst = 0.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        got_jets = _extract_jets(ev, seq.zs, seq.mults.tolist(), _exponents(problem.p)[0])
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
    squares (arc_carleson_constant).  delta is the min of |b| over the kept
    ones of _CIRCLE_SAMPLES samples of each circle, so it can sit above the
    true minimum and C/delta below the true bound.
    """
    if len(part.clusters) == 0:
        return 0.0
    arcs = ([], [], [], [])  # centres, radii, t0, t1
    samples = []  # the kept samples of every circle
    theta = 2.0 * np.pi * (np.arange(_CIRCLE_SAMPLES) + 0.5) / _CIRCLE_SAMPLES
    ring = np.exp(1j * theta)
    for centres, radii in _cluster_disks(part):
        for j, (cj, rj) in enumerate(zip(centres.tolist(), radii.tolist())):
            pts = cj + rj * ring
            outside = np.abs(pts[:, None] - centres) >= radii  # of each other disk
            outside[:, j] = True
            keep = outside.all(axis=1)
            if not keep.any():
                continue
            samples.append(pts[keep])
            t0, t1 = _arcs_from_mask(theta, keep)
            for col, v in zip(arcs, (np.full(len(t0), cj), np.full(len(t0), rj), t0, t1)):
                col.append(v)
    log_min = log_abs_evaluate(b, np.concatenate(samples)).min() if samples else -np.inf
    delta = float(np.exp(log_min)) if np.isfinite(log_min) else 0.0
    if delta < 1e-12:
        raise InvariantViolation("contour touches zero set")
    c_arc = arc_carleson_constant(*(np.concatenate(col) for col in arcs))
    return c_arc / delta


def _arcs_from_mask(theta: np.ndarray, keep: np.ndarray):
    """Merge consecutive kept samples (circularly) into arcs of one circle,
    returned as the arrays (t0, t1) of their start and end angles."""
    n = len(theta)
    step = 2.0 * np.pi / n
    if keep.all():
        return np.array([0.0]), np.array([2.0 * np.pi])
    # rotate so the run structure has a False at position 0
    shift = int(np.argmin(keep))
    edges = np.diff(np.roll(keep, -shift).astype(np.int8), append=0)
    firsts = (np.flatnonzero(edges == 1) + 1 + shift) % n
    lasts = (np.flatnonzero(edges == -1) + shift) % n
    t0 = theta[firsts] - step / 2.0
    t1 = theta[lasts] + step / 2.0
    t1[t1 < t0] += 2.0 * np.pi
    return t0, t1
