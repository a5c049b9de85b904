"""Acceptance battery: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
and timings.  Every tolerance is pinned here, not configurable.

Criterion 6 note: its delta-stability sub-check (10% across truncation
lengths 10/20/40) is asserted exactly as stated even though the true
drift of the minimal deleted product between n=10 and n=40 is about 30%
(exact-arithmetic value; the n=10 truncation has not yet converged, while
20 vs 40 agree to 1.1%).  The sub-check therefore fails honestly; the
other criterion-6 sub-checks pass and are reported in the same line.
"""

import time

import numpy as np
import pytest

from blaschke_lab import bergman as bg
from blaschke_lab import geninterp as gi
from blaschke_lab import io as fio
from blaschke_lab.blaschke import (
    BlaschkeProduct,
    compose_min_on_compact,
    max_local_count,
    partition_separated,
    separation_report,
)
from blaschke_lab.carleson import carleson_norm, uniform_blaschke_sup
from blaschke_lab.cli import main as cli_main
from blaschke_lab.disk import FiniteSequence, moebius, psh_distance_pairwise
from blaschke_lab.generators import (
    gen_escalating_multiplicity,
    gen_perturbed,
    gen_radial_geometric,
    gen_random_carleson,
    gen_union,
)
from oracles import (
    FINE,
    blaschke_derivative_moduli,
    deleted_product_moduli,
    jensen_area_residual,
    kernel_mass,
    lp_sequence_norm,
    moebius_jacobian,
    poisson_angular_mean,
    poly_from_zeros,
    vgh_kernel_bound,
)

LIGHT = bg.QuadratureGrid.build(rings=200, min_gap=1e-7, max_angular=4096)
BASE_GAP = 0.25


def _verdict(name, failures, t0):
    status = "PASS" if not failures else "FAIL"
    detail = ("; ".join(failures)) if failures else ""
    print(f"[acceptance] {name}: {status} ({time.time() - t0:.1f}s) {detail}")
    assert not failures, f"{name}: {detail}"


def _interpolation_problem(seed):
    """Seeded clustered problem: separated rays, satellites, a double, and
    one cardinality-3 cluster (doubled point with a satellite)."""
    rng = np.random.default_rng(seed)
    rays = 4 + seed % 3
    levels = 5 + seed % 3
    off = rng.uniform(0, 2 * np.pi)
    base = gen_radial_geometric(0.5, levels,
                                tuple(off + 2 * np.pi * k / rays for k in range(rays)))
    s = gen_perturbed(base, n_satellites=4, n_doubles=1, seed=seed)
    # attach one satellite to a doubled point: cardinality-3 cluster
    zs = list(s.zs)
    mults = s.mults.tolist()
    dbl = mults.index(2)
    z = zs[dbl]
    zs.append(z + 0.08 * (1 - abs(z) ** 2) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
    mults.append(1)
    seq = FiniteSequence(zs, mults)
    part = gi.cluster_sequence(seq, 0.05, 0.6)
    jets = []
    for c in part.clusters:
        rows = []
        for z, m in zip(c.zs.tolist(), c.mults.tolist()):
            scale = 1.0 / (1 - abs(z) ** 2)
            row = [complex(rng.standard_normal(), rng.standard_normal())]
            for i in range(1, m):
                row.append(complex(rng.standard_normal(), rng.standard_normal())
                           * scale**i)
            rows.append(tuple(row))
        jets.append(tuple(rows))
    return part, tuple(jets)


def test_criterion_01_geometry():
    t0 = time.time()
    failures = []
    rng = np.random.default_rng(101)
    n = 10**4
    z, w, c = (
        rng.uniform(0, 0.999, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        for _ in range(3)
    )
    phi_z = (c - z) / (1 - np.conj(c) * z)
    phi_w = (c - w) / (1 - np.conj(c) * w)
    d0 = np.abs((z - w) / (1 - np.conj(w) * z))
    d1 = np.abs((phi_z - phi_w) / (1 - np.conj(phi_w) * phi_z))
    if not (np.abs(d1 - d0) <= 1e-12).all():
        failures.append(f"invariance worst {np.abs(d1 - d0).max():.2e}")
    back = (c - phi_z) / (1 - np.conj(c) * phi_z)
    if not (np.abs(back - z) <= 1e-12).all():
        failures.append(f"involution worst {np.abs(back - z).max():.2e}")
    h = 1e-5
    for k in range(200):
        ck, wk = c[k] * 0.95, w[k] * 0.9
        du = (moebius(ck, wk + h) - moebius(ck, wk - h)) / (2 * h)
        dv = (moebius(ck, wk + 1j * h) - moebius(ck, wk - 1j * h)) / (2 * h)
        det = du.real * dv.imag - du.imag * dv.real
        if abs(det - moebius_jacobian(ck, wk)) > 1e-6 * abs(det):
            failures.append(f"jacobian fd mismatch at sample {k}")
            break
    _verdict("criterion 1 (geometry)", failures, t0)


def test_criterion_02_derivative_identity():
    mpmath = pytest.importorskip("mpmath")
    t0 = time.time()
    failures = []
    seqs = []
    for seed in range(16):
        rays = 3 + seed % 5
        seqs.append(gen_union(rays, gen_radial_geometric(0.5, 6 + seed), seed))
    seqs.append(gen_union(25, gen_radial_geometric(0.5, 20), 99))
    seqs.append(gen_radial_geometric(0.4, 25))
    seqs.append(gen_random_carleson(5, 120, 5.0))
    seqs.append(gen_random_carleson(6, 60, 5.0))
    assert max(s.total_count for s in seqs) == 500 and len(seqs) == 20
    for s in seqs:
        # independent routes: 50-digit B' from the complex factors, and
        # 50-digit deleted products and depths
        derivative = blaschke_derivative_moduli(s.zs)
        deleted, depth = deleted_product_moduli(s.zs)
        # the per-point values whose least the report prints as delta and delta_prime
        per_point = separation_report(BlaschkeProduct(s)).per_point.tolist()
        with mpmath.workdps(50):
            for j in range(len(s)):
                lhs = depth[j] * derivative[j]
                off = [float(abs(v - lhs) / lhs) for v in (per_point[j], deleted[j])]
                if max(off) > 1e-10:
                    failures.append(f"identity off at n={s.total_count} j={j}: printed "
                                    f"{off[0]:.1e}, deleted {off[1]:.1e} relative")
                    break
    _verdict("criterion 2 (derivative identity)", failures, t0)


def test_criterion_03_kernel_normalization():
    t0 = time.time()
    failures = []
    for zeta in (0.0, 0.5, 0.9j, 0.99):
        val = kernel_mass(zeta, FINE)
        rel = abs(val - np.pi) / np.pi
        if rel > 1e-6:
            failures.append(f"zeta={zeta}: rel {rel:.2e}")
    _verdict("criterion 3 (kernel normalization)", failures, t0)


def test_criterion_04_jensen_equality():
    t0 = time.time()
    failures = []
    rng = np.random.default_rng(404)
    for trial in range(10):
        deg = int(rng.integers(1, 7))
        zeros = rng.uniform(0.05, 0.8, deg) * np.exp(1j * rng.uniform(0, 2 * np.pi, deg))
        lead = complex(rng.uniform(0.5, 2.0), rng.uniform(-1, 1))
        f = poly_from_zeros(zeros, lead)
        res = jensen_area_residual(f, FiniteSequence(zeros), LIGHT)
        if abs(res) > 1e-6:
            failures.append(f"trial {trial}: |residual| {abs(res):.2e}")
        if deg > 1:
            res2 = jensen_area_residual(
                f, FiniteSequence(zeros[:-1]), LIGHT)
            if not res2 < 0:
                failures.append(f"trial {trial}: withheld residual {res2:.2e} not < 0")
    _verdict("criterion 4 (jensen equality)", failures, t0)


def test_criterion_05_counterexample_battery():
    t0 = time.time()
    failures = []
    p = 0.25
    zetas = [1 - BASE_GAP**n for n in range(1, 9)]
    probes = []
    ratios = {}
    for n in range(1, 9):
        seq = gen_escalating_multiplicity(n, BASE_GAP)
        bn = BlaschkeProduct(seq)
        zn = zetas[n - 1]
        ubs = uniform_blaschke_sup(seq, [zn])
        if not ubs >= n:
            failures.append(f"level {n}: transformed mass {ubs:.3f} < {n}")
        comp = compose_min_on_compact(bn, zn)
        if not comp <= 0.5**n + 1e-9:
            failures.append(f"level {n}: composition probe {comp:.3e} > 2^-{n}")
        # the multiplication probe and the divisor ratio (one over it)
        probe = bg.recentred_means(bn, [zn], p, 0.0, LIGHT)[0] ** (1.0 / p)
        probes.append(probe)
        if n in (2, 8):
            ratios[n] = 1.0 / probe
    if not all(b < a for a, b in zip(probes, probes[1:])):
        failures.append(f"probe not monotone: {['%.4f' % v for v in probes]}")
    if not probes[-1] < 0.05:
        failures.append(f"probe at level 8 is {probes[-1]:.4f}, not < 0.05")
    growth = ratios[8] / ratios[2]
    if not growth >= 10.0:
        failures.append(f"divisor ratio growth {growth:.2f} < 10")
    _verdict("criterion 5 (counterexample battery)", failures, t0)


def test_criterion_06_positive_family_battery():
    t0 = time.time()
    failures = []
    deltas = {}
    norms = {}
    for n in (10, 20, 40):
        s = gen_radial_geometric(0.5, n)
        deltas[n] = separation_report(BlaschkeProduct(s)).delta
        norms[n] = carleson_norm(s)
        parts = partition_separated(s, 0.5)
        for q in parts:
            if len(q) > 1:
                d = psh_distance_pairwise(q.zs, q.zs)
                if not d[~np.eye(len(q), dtype=bool)].min() > 0.5:
                    failures.append(f"n={n}: within-part distance <= 1/2")
        got = sorted(z for q in parts for z in q.zs.real)
        if not np.allclose(got, sorted(s.zs.real)):
            failures.append(f"n={n}: union mismatch")
        bound = max_local_count(BlaschkeProduct(s), 0.5)
        if len(parts) > bound:
            failures.append(f"n={n}: {len(parts)} parts above bound {bound}")
    dspread = max(deltas.values()) / min(deltas.values())
    if dspread > 1.10:
        failures.append(
            "delta spread %.3f exceeds 10%% (values %s; 20 vs 40 agree to %.1f%%)"
            % (dspread, {k: round(v, 6) for k, v in deltas.items()},
               100 * abs(deltas[20] / deltas[40] - 1)))
    nspread = max(norms.values()) / min(norms.values())
    if nspread > 1.20:
        failures.append(f"carleson spread {nspread:.3f} exceeds 20%")
    _verdict("criterion 6 (positive families)", failures, t0)


def test_criterion_07_interpolation():
    t0 = time.time()
    failures = []
    for seed in range(10):
        part, jets = _interpolation_problem(seed)
        n_pts = part.all_points().total_count
        max_card = max(c.total_count for c in part.clusters)
        if n_pts > 100 or max_card > 3:
            failures.append(f"seed {seed}: bad problem shape n={n_pts} card={max_card}")
            continue
        for p in (0.5, 1.0, 2.0, np.inf):
            sol = gi.vgh_interpolate(gi.InterpolationProblem(part, jets, p))
            if sol.jet_residual > 1e-8:
                failures.append(f"seed {seed} p={p}: residual {sol.jet_residual:.2e}")
            if not np.isfinite(sol.norm_ratio):
                failures.append(f"seed {seed} p={p}: ratio not finite")
            if p == np.inf:
                bound = gi.hinf_bound_estimate(part, BlaschkeProduct(part.all_points()))
                sup_cn = max(gi.class_norms(part, jets))
                if sol.achieved_norm > bound * sup_cn * 1.05:
                    failures.append(
                        f"seed {seed}: sup {sol.achieved_norm:.3g} above "
                        f"{bound * sup_cn * 1.05:.3g}")
    _verdict("criterion 7 (interpolation)", failures, t0)


def test_criterion_08_singleton_reduction():
    t0 = time.time()
    failures = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        off = rng.uniform(0, 2 * np.pi)
        s = gen_radial_geometric(0.45, 7, tuple(off + np.pi * k / 2 for k in range(4)))
        part = gi.cluster_sequence(s, 0.02, 0.9)
        if not all(c.total_count == 1 for c in part.clusters):
            failures.append(f"seed {seed}: clusters not singletons")
            continue
        vals = rng.standard_normal(len(part.clusters)) \
            + 1j * rng.standard_normal(len(part.clusters))
        jets = tuple(((v,),) for v in vals)
        anchor_vals = {c.zs[0]: v for c, v in zip(part.clusters, vals)}
        seq = part.all_points()
        ordered = [anchor_vals[z] for z in seq.zs]
        for p in (1.0, 2.0, np.inf):
            ratio = gi.xp_norm(part, jets, p) / lp_sequence_norm(seq, ordered, p)
            if not 0.5 <= ratio <= 2.0:
                failures.append(f"seed {seed} p={p}: ratio {ratio:.3f}")
    _verdict("criterion 8 (singleton reduction)", failures, t0)


def test_criterion_09_kernel_estimates():
    t0 = time.time()
    failures = []
    # row bound of the interpolation kernel at every anchor of every
    # criterion-7 problem
    for seed in range(10):
        part, _ = _interpolation_problem(seed)
        for a in part.anchors:
            for r in (0.5, 0.9, 0.99):
                mean = poisson_angular_mean(a, r)
                if mean > 1.0 + 1e-8:
                    failures.append(f"seed {seed}: angular mean {mean - 1:.2e} above 1")
    # summed kernel bound stable in truncation length
    grid = np.concatenate([
        r * np.exp(2j * np.pi * np.arange(128) / 128) for r in (0.3, 0.7, 0.9, 0.99)
    ])
    for rays in ((0.0,), (0.0, 2.1, 4.2)):
        vals = {}
        for n in (10, 40):
            s = gen_radial_geometric(0.5, n, rays)
            part = gi.cluster_sequence(s, 0.05, 0.6)
            vals[n] = vgh_kernel_bound(part, grid)
        ratio = vals[40] / vals[10]
        if not (1 / 3 <= ratio <= 3):
            failures.append(f"rays={len(rays)}: bound ratio {ratio:.3f} outside [1/3, 3]")
    _verdict("criterion 9 (kernel estimates)", failures, t0)


def test_criterion_10_cli_contract(tmp_path):
    t0 = time.time()
    failures = []
    for seed in range(100):
        s = gen_random_carleson(seed, 20, 6.0)
        back = fio.parse_sequence(fio.format_sequence(s))
        if not (np.array_equal(back.zs, s.zs)
                and back.mults.tolist() == s.mults.tolist()):
            failures.append(f"round-trip mismatch at seed {seed}")
            break
    seq = tmp_path / "seq.txt"
    ce8 = tmp_path / "ce8.txt"
    ce6 = tmp_path / "ce6.txt"
    cases = []
    cases.append(("gen ok", cli_main(
        ["gen", "radial-geometric", "--q", "0.5", "--n", "8", "-o", str(seq)]), 0))
    cases.append(("gen bad q", cli_main(
        ["gen", "radial-geometric", "--q", "1.5", "--n", "3",
         "-o", str(tmp_path / "x.txt")]), 2))
    bad = tmp_path / "bad.txt"
    bad.write_text("nonsense\n")
    cases.append(("parse failure", cli_main(["analyze", str(bad)]), 2))
    outside = tmp_path / "outside.txt"
    outside.write_text("1.0 0.0 1\n")
    cases.append(("invariant violation", cli_main(["analyze", str(outside)]), 3))
    dup = tmp_path / "dup.txt"
    dup.write_text("0.5 0.0 1\n0.5 0.0 1\n")
    cases.append(("duplicate points", cli_main(["analyze", str(dup)]), 3))
    cli_main(["gen", "counterexample", "--n-max", "8", "-o", str(ce8)])
    cli_main(["gen", "counterexample", "--n-max", "6", "-o", str(ce6)])
    cases.append(("partition multiplicity", cli_main(
        ["partition", str(ce8), "-o", str(tmp_path / "p")]), 3))
    cases.append(("verify consistent good", cli_main(
        ["verify", str(seq), "-o", str(tmp_path / "v1.txt")]), 0))
    cases.append(("verify consistent bad", cli_main(
        ["verify", str(ce8), "-o", str(tmp_path / "v2.txt")]), 0))
    cases.append(("verify mixed", cli_main(
        ["verify", str(ce6), "-o", str(tmp_path / "v3.txt")]), 1))
    targets = tmp_path / "t.txt"
    targets.write_text("9 0 0 1.0 0.0\n")
    cases.append(("bad target index", cli_main(
        ["interpolate", str(seq), str(targets)]), 2))
    for name, got, want in cases:
        if got != want:
            failures.append(f"{name}: exit {got}, want {want}")
    try:
        cli_main(["gen", "no-such-family", "-o", str(tmp_path / "y.txt")])
        failures.append("usage error: no SystemExit")
    except SystemExit as exc:
        if exc.code != 2:
            failures.append(f"usage error: exit {exc.code}, want 2")
    _verdict("criterion 10 (cli contract)", failures, t0)
