"""The per-sequence diagnostic battery behind analyze and verify.

Computes every boundedness-flavored indicator for a finite sequence: the
separation constants, Carleson norm, transformed zero-mass supremum, local
zero counts, the composition probe, the divisor and multiplication probes.
Each indicator gets a direction flag against a desk-scale threshold; a
sequence behaves like a finite union of interpolating sequences when all
flags point the same way.  The thresholds are documented heuristics for
the generator families shipped here, not theorems.

delta and discreteness come from blaschke.separation_report, the
transformed mass supremum from carleson.uniform_blaschke_sup at the zeros
(and at the probe grid's centres, if any) and the local count from
blaschke.max_local_count: each pass over the pairs forms only the sum it
reads.  The recentred means form sum m log rho^2 of the moved zeros
alone (bergman.recentred_means).  The composition probe's pruned search:
see blaschke._least_compose_max.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import bergman as bg
from .blaschke import (
    BlaschkeProduct,
    _greedy_parts,
    _least_compose_max,
    max_local_count,
    separation_report,
)
from .carleson import carleson_norm, uniform_blaschke_sup
from .disk import FiniteSequence, hyperbolic_grid

# desk-scale direction thresholds (see module docstring)
THRESHOLDS = {
    "union_parts_max": 5,   # greedy parts at separation 0.3
    "part_delta_min": 3e-3,
    "carleson_max": 10.0,
    "ubs_max": 9.0,
    "count_max": 5,
    "nonzero_min": 1e-2,
    "divisor_max": 16.0,
    "mb_min": 5e-2,
}
# the direction flags, in report order
_FLAG_NAMES = ("union_separation", "carleson", "blaschke_sup", "local_count",
              "uniformly_nonzero", "universal_divisor", "mult_bounded_below")


def union_separation(s: FiniteSequence, sep: float = 0.3):
    """Greedy split of the points, counted with multiplicity, into parts
    with pairwise distance > sep; returns (part count, min per-part delta).

    The copies of a repeated point land in distinct parts, so bounded
    multiplicity still reads as a small finite union while escalating
    multiplicity does not.  Parts with the same points come once, with
    their count, and share a delta; a lone point's is 1.
    """
    parts = _greedy_parts(s.zs, sep, s.mults)
    deltas = (separation_report(BlaschkeProduct(FiniteSequence(s.zs[list(p)]))).delta
              for p in {tuple(p) for p, _ in parts if len(p) > 1})
    return sum(count for _, count in parts), min(deltas, default=1.0)


@functools.cache
def analysis_grid() -> bg.QuadratureGrid:
    """The quadrature grid of the batch diagnostics: 36,346 nodes.

    The recentred probes (divisor_ratio, mb_probe) integrate functions
    flat near 0 on it, evaluated exactly at its nodes however deep the
    center, save for the cusp |w|^(p m) at w = 0 of a center at a zero,
    which the graded first bands of QuadratureGrid.build resolve.  Below
    r = 0.9, 81% of the area, it holds 3,652 nodes on 52 rings.  Its bands
    are QuadratureGrid.build's at rings=140 and min_gap=1e-7 (tests'
    UNCUT, 63,994 nodes) down to 1 - r = 1e-4; from there to 1e-7 three
    decade bands replace thirty of a tenth of a decade, which the 512-node
    cap could not resolve, and the closing band [1 - 1e-7, 1] stays.  Past
    r = 0.9999, 2e-4 of the area, that leaves 8 rings and 4,096 nodes.
    The five means of analyze agree with UNCUT's within 3.4e-8 relative
    (p = 2, radial rays at 1 and 1 + pi) and 4.2e-9 at p = 1/2, and at
    p = 1e8, where only the deepest bands carry |B o phi_c|^p, the
    divisor ratio stays finite.  At p = 1/2 and alpha = 0 the divisor
    ratio agrees with a grid of 20.9x the nodes to 3.2e-5 relative on a
    random Carleson cloud (n = 40), to 9.4e-6 and 5.2e-8 on the escalating
    family (n_max 6 and 12) and to 2.8e-5 and 3.0e-6 on the radial rays
    q = 1/2, n = 46 at 0 and 1 rad, where the multiplication probe agrees
    to 1.7e-6 and 2.4e-6.  At alpha = 1 the weight (1-|w|^2) rides on the
    band areas: the divisor ratio agrees with the finer grid to within
    6.8e-6 (escalating n_max = 4) and 1.8e-6 (n_max = 6).  Integrands
    peaked near the circle are not resolved: the kernel mass misses pi
    by 5.8e-6 at |c| = 0.9, by 91% at c = 0.999 and by 237% at
    c = 0.999 exp(0.3i).
    """
    gaps = 1e-7 ** (np.arange(71) / 70)  # tenths of a decade in 1 - r
    return bg._band_grid(np.concatenate([gaps[:40], gaps[40::10]]), 512)


@dataclass(frozen=True)
class AnalysisReport:
    n_listed: int
    total_count: int
    delta: float
    discreteness: float
    union_parts: int
    part_delta: float
    carleson: float
    blaschke_sup: float
    max_count_half: int
    nonzero_probe: float
    divisor_ratio: float
    mb_probe: float
    flags: dict = field(default_factory=dict)
    verdict: str = "n/a"  # pass | fail | n/a


def analyze_sequence(s: FiniteSequence, p: float = 0.5, alpha: float = 0.0,
                     probe_pitch: float = 0.0) -> AnalysisReport:
    """Run the full battery; probe_pitch > 0 adds a hyperbolic probe grid
    to the transformed-mass supremum search.

    The divisor and multiplication probes are both taken in the Bergman
    space with weight (1-|z|^2)^alpha.  The direction thresholds are
    calibrated at the default exponent 1/2 and alpha = 0, where the two
    probes contrast most sharply.
    """
    if len(s) == 0:
        return AnalysisReport(0, 0, 0.0, 0.0, 0, 0.0, 0.0, 0.0, 0, 0.0, 0.0, 0.0, {}, "n/a")
    b = BlaschkeProduct(s)
    zs = s.zs
    sep = separation_report(b)
    n_parts, part_delta = union_separation(s)
    cn = carleson_norm(s)
    ubs = uniform_blaschke_sup(s, zs)
    if probe_pitch > 0:
        grid = hyperbolic_grid(float(np.abs(zs).max()), probe_pitch)
        ubs = max(ubs, uniform_blaschke_sup(s, grid))
    ncount = max_local_count(b, 0.5)
    nonzero = _least_compose_max(b, zs)
    # the divisor probe recentres at 0 and at the deepest zero, the
    # multiplication probe at the deepest four zeros: one mean per center
    probe_centers = sorted(zs, key=lambda z: -abs(z))[:4]
    means = bg.recentred_means(b, [0.0, *probe_centers], p, alpha, analysis_grid())
    low = min(means[:2]) ** (1.0 / p)
    divisor = 1.0 / low if low > 0.0 else math.inf  # inf once the root underflows
    mb = min(means[1:]) ** (1.0 / p)

    t = THRESHOLDS
    flags = dict(zip(_FLAG_NAMES, (
        n_parts <= t["union_parts_max"] and part_delta >= t["part_delta_min"],
        cn <= t["carleson_max"],
        ubs <= t["ubs_max"],
        ncount <= t["count_max"],
        nonzero >= t["nonzero_min"],
        divisor <= t["divisor_max"],
        mb >= t["mb_min"],
    )))
    verdict = "pass" if all(flags.values()) else "fail"
    return AnalysisReport(
        len(s), s.total_count, sep.delta, sep.discreteness,
        n_parts, part_delta, cn, ubs, ncount, nonzero,
        divisor, mb, flags, verdict,
    )


def direction_agreement(report: AnalysisReport) -> bool:
    """True when every indicator flag points the same way (the equivalence
    holds in both directions; mixed flags mean something is off)."""
    if not report.flags:
        return True
    vals = list(report.flags.values())
    return all(vals) or not any(vals)


def report_sections(rep: AnalysisReport) -> dict:
    """Schema-stable report layout: the same keys on every run."""
    return {
        "sequence": {
            "points": rep.n_listed,
            "total_with_multiplicity": rep.total_count,
        },
        "separation": {
            "delta": rep.delta,
            # delta' = min (1 - |z_j|^2)|B'(z_j)| equals delta by the
            # identity of blaschke.separation_report; the key stays in the schema
            "delta_prime": rep.delta,
            "discreteness": rep.discreteness,
            "union_parts": rep.union_parts,
            "part_delta": rep.part_delta,
        },
        "carleson": {
            "norm": rep.carleson,
            # the supremum is attained at a point-anchored square exactly
            # when some atom has depth below 1, that is when it is positive
            "method": "point-anchored" if rep.carleson > 0 else "n/a",
            "blaschke_sup": rep.blaschke_sup,
        },
        "probes": {
            "max_count_half": rep.max_count_half,
            "nonzero_probe": rep.nonzero_probe,
            "divisor_ratio": rep.divisor_ratio,
            "mb_probe": rep.mb_probe,
        },
        "flags": {k: bool(v) for k, v in rep.flags.items()} or dict.fromkeys(_FLAG_NAMES, "n/a"),
        "verdict": {
            "interpolating_union": rep.verdict,
            "direction_agreement": "pass" if direction_agreement(rep) else "fail",
        },
    }
