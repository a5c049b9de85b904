"""The per-sequence diagnostic battery behind analyze and verify.

Computes every boundedness-flavored indicator for a finite sequence: the
separation constants, Carleson norm, transformed zero-mass supremum, local
zero counts, the composition probe, the divisor and multiplication probes.
Each indicator gets a direction flag against a desk-scale threshold; a
sequence behaves like a finite union of interpolating sequences when all
flags point the same way.  The thresholds are documented heuristics for
the generator families shipped here, not theorems.

The composition probe (nonzero_probe) is the least, over the zeros c, of
compose_min_on_compact(b, c), and is found by a pruned search that
returns the same float as one full call per zero
(blaschke._least_compose_max): every 16th of the 512 samples of each
circle gives each center a lower bound, and the centers are then visited
with the full call in increasing bound until the next bound exceeds the
least value found.  Each bound is lowered by 4 (n + 16) 2^-53 of its
magnitude, twice what the rounding of a sum of n terms m log rho^2 <= 0
can move a computed log max, so no center whose full value is smaller is
skipped.  On the benchmark's random Carleson clouds (n = 200 and 800)
one center gets the full call.
"""

from __future__ import annotations

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


def union_separation(s: FiniteSequence, sep: float = 0.3):
    """Greedy split of the multiplicity-expanded points into parts with
    pairwise distance > sep; returns (part count, min per-part delta).

    Repeated points land in distinct parts, so bounded multiplicity still
    reads as a small finite union while escalating multiplicity does not.
    """
    zs = s.expanded()
    parts = _greedy_parts(zs, sep)
    min_delta = 1.0
    for part in parts:
        rep = separation_report(BlaschkeProduct(FiniteSequence.from_complex(zs[part])))
        min_delta = min(min_delta, rep.delta)
    return len(parts), min_delta


_GRID: list = []


def analysis_grid() -> bg.QuadratureGrid:
    """Lighter quadrature for batch diagnostics: 191,235 nodes.

    The recentred probes (divisor_ratio, mb_probe) integrate functions
    flat near 0 on it, evaluated exactly at its nodes however deep the
    center.  At p = 1/2 and alpha = 0 they agree with a grid of 4x the
    nodes to 5.8e-4 relative on a random Carleson cloud (n = 40); the
    divisor ratio to 2.2e-5 or better on the escalating family (n_max 6
    and 12) and to 1.0e-4 and 1.6e-4 on the radial rays q = 1/2, n = 46
    at 0 and 1 rad, where the multiplication probe agrees to 4.6e-4.
    At alpha = 1 the weight (1-|w|^2) rides on the band areas and the
    integrand stays flat near 0: the divisor ratio agrees with the finer
    grid to within 1.1e-5 (escalating n_max = 4) and 1.2e-6 (n_max = 6).
    Integrands peaked near the circle are not resolved: the kernel mass
    misses pi by 1e-5 at |c| = 0.9 and by 35% at |c| = 0.999.
    """
    if not _GRID:
        _GRID.append(bg.QuadratureGrid.build(rings=120, min_gap=1e-7,
                                             max_angular=2048))
    return _GRID[0]


@dataclass(frozen=True)
class AnalysisReport:
    n_listed: int
    total_count: int
    delta: float
    discreteness: float
    union_parts: int
    part_delta: float
    carleson: float
    carleson_method: str
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
        return AnalysisReport(0, 0, 0.0, 0.0, 0, 0.0, 0.0, "n/a",
                              0.0, 0, 0.0, 0.0, 0.0, {}, "n/a")
    b = BlaschkeProduct(s)
    sep = separation_report(b)
    n_parts, part_delta = union_separation(s)
    cn = carleson_norm(s)
    zs = s.zs
    centers = zs
    if probe_pitch > 0:
        centers = np.concatenate([zs, hyperbolic_grid(float(np.abs(zs).max()), probe_pitch)])
    ubs = uniform_blaschke_sup(s, centers)
    ncount = max_local_count(b, 0.5)
    nonzero = _least_compose_max(b, zs)
    # the divisor probe recentres at 0 and at the deepest zero, the
    # multiplication probe at the deepest four zeros: one mean per center
    probe_centers = sorted(zs, key=lambda z: -abs(z))[:4]
    means = bg._recentred_means(b, [0.0, *probe_centers], p, alpha, analysis_grid())
    divisor = bg._inverse_root(means[:2], p)
    mb = min(means[1:]) ** (1.0 / p)

    t = THRESHOLDS
    flags = {
        "union_separation": (n_parts <= t["union_parts_max"]
                             and part_delta >= t["part_delta_min"]),
        "carleson": cn.norm <= t["carleson_max"],
        "blaschke_sup": ubs <= t["ubs_max"],
        "local_count": ncount <= t["count_max"],
        "uniformly_nonzero": nonzero >= t["nonzero_min"],
        "universal_divisor": divisor <= t["divisor_max"],
        "mult_bounded_below": mb >= t["mb_min"],
    }
    verdict = "pass" if all(flags.values()) else "fail"
    return AnalysisReport(
        len(s), s.total_count, sep.delta, sep.discreteness,
        n_parts, part_delta, cn.norm, cn.method, ubs, ncount, nonzero,
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
            "method": rep.carleson_method,
            "blaschke_sup": rep.blaschke_sup,
        },
        "probes": {
            "max_count_half": rep.max_count_half,
            "nonzero_probe": rep.nonzero_probe,
            "divisor_ratio": rep.divisor_ratio,
            "mb_probe": rep.mb_probe,
        },
        "flags": {k: bool(v) for k, v in rep.flags.items()} or {
            k: "n/a" for k in (
                "union_separation", "carleson", "blaschke_sup", "local_count",
                "uniformly_nonzero", "universal_divisor", "mult_bounded_below",
            )
        },
        "verdict": {
            "interpolating_union": rep.verdict,
            "direction_agreement": "pass" if direction_agreement(rep) else "fail",
        },
    }
