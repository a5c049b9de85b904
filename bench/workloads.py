"""The benchmark's workloads: seeded inputs, a fixed batch of calls, checks.

Each workload writes its inputs from the seed alone (the program receives
only files), offers a small warm-up call, and lists its batch as
operations.  One operation is one CLI invocation through
``blaschke_lab.cli.main`` or one library call; it is timed on its own and
checked afterwards, outside the timed region.  A failed check fails that
operation only.

* cloud-analyze: ``gen random-carleson`` -> ``analyze`` -> ``partition`` on
  a 200-point cloud, and ``gen`` -> ``partition`` on an 800-point cloud.
  Many zeros: Blaschke evaluation at zeros x quadrature nodes and the
  pairwise separation work dominate.  ``analyze`` at n = 800 (about a
  minute by itself) is left out so that every run fits the time budget.
* deep-verify: ``verify --level full`` on the escalating-multiplicity
  family at levels 8 and 12, repeated and split, and on two pairs of
  opposite radial geometric rays (q = 1/2, n = 46, depths down to
  1.4e-14), in a seeded point order.  Few zeros; time goes to quadrature
  nodes and the probe grid.  The deep rays carry the known boundary
  precision loss.
* clustered-interpolate: three seeded clustered problems (4x5, 5x6, 6x7
  rays x levels, with satellites, a double and a cardinality-3 cluster),
  each solved by ``interpolate`` at p = 0.5, 2 and inf, then bounded by
  ``geninterp.hinf_bound_estimate``.  No area quadrature; many Blaschke
  evaluations on tiny arrays, so per-call cost shows.  ``--table`` is not
  passed: under numpy 2 it writes ``np.float64(...)`` reprs, not numbers.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import blaschke_lab.cli  # noqa: F401  (loads every module of the package)
from checks import (
    ANALYZE_SCHEMA,
    INTERPOLATE_SCHEMA,
    PARTITION_SCHEMA,
    STRUCTURE_SCHEMA,
    VERIFY_SCHEMA,
    check_schema,
    number,
    read_points,
    read_report,
    relative_error,
    write_points,
)
from oracle import cauchy_derivatives, deleted_product_min
from tracer import patch_everywhere


def lib(name):
    """A package module, looked up at call time so tracing wrappers apply."""
    return sys.modules["blaschke_lab." + name]


def cli_call(argv) -> Callable:
    argv = [str(a) for a in argv]

    def run():
        try:
            return lib("cli").main(argv)
        except SystemExit as exc:
            return exc.code

    return run


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    outputs: tuple = ()  # files (or glob patterns) removed before the call
    hook: Callable | None = None  # installed just outside the timed call


@dataclass
class Context:
    """Per-run state of the checks: oracle errors and cached references."""

    rel_errors: list = field(default_factory=list)
    _oracles: dict = field(default_factory=dict)
    _outputs: dict = field(default_factory=dict)

    def delta_oracle(self, points) -> float:
        key = tuple(points)
        if key not in self._oracles:
            self._oracles[key] = deleted_product_min(points)
        return self._oracles[key]

    def same_as_before(self, tag: str, data: bytes) -> bool:
        """True unless an earlier batch of this run produced other bytes."""
        return self._outputs.setdefault(tag, data) == data


def expect_rc(rc, want=0) -> list:
    return [] if rc == want else [f"exit code {rc}, want {want}"]


def record_delta_error(ctx: Context, sections: dict, points) -> None:
    """Record the oracle error of both reported separation constants."""
    want = ctx.delta_oracle(points)
    for key in ("delta", "delta_prime"):
        ctx.rel_errors.append(relative_error(number(sections, "separation", key), want))


# ---------------------------------------------------------------- clouds

class CloudAnalyze:
    TARGET_NORM = 4.0
    SEP = 0.5
    SIZES = ((200, True), (800, False))  # (n, run analyze)

    def __init__(self, seed: int, work: Path):
        self.work = work
        rng = np.random.default_rng(seed)
        self.cases = [(n, int(rng.integers(2**31)), full) for n, full in self.SIZES]

    def describe(self) -> list:
        return [
            f"gen random-carleson --n {n} --target-norm {self.TARGET_NORM} --seed {s}"
            + (" -> analyze" if full else "") + f" -> partition --sep {self.SEP}"
            for n, s, full in self.cases
        ]

    def warmup(self) -> None:
        seq = self.work / "warm.txt"
        cli_call(["gen", "random-carleson", "--n", 8, "--seed", 0, "-o", seq])()
        cli_call(["analyze", seq, "-o", self.work / "warm.report"])()
        cli_call(["partition", seq, "--sep", self.SEP, "-o", self.work / "warm"])()

    def ops(self, ctx: Context) -> list:
        out = []
        for n, gseed, full in self.cases:
            seq = self.work / f"cloud{n}.txt"
            rep = self.work / f"cloud{n}.report"
            prefix = self.work / f"cloud{n}"
            out.append(Op(
                f"gen n={n}",
                cli_call(["gen", "random-carleson", "--n", n, "--target-norm",
                          self.TARGET_NORM, "--seed", gseed, "-o", seq]),
                lambda rc, n=n, seq=seq: self.check_gen(ctx, rc, n, seq),
                (seq,)))
            if full:
                out.append(Op(
                    f"analyze n={n}", cli_call(["analyze", seq, "-o", rep]),
                    lambda rc, seq=seq, rep=rep: self.check_analyze(ctx, rc, seq, rep),
                    (rep,)))
            out.append(Op(
                f"partition n={n}",
                cli_call(["partition", seq, "--sep", self.SEP, "-o", prefix]),
                lambda rc, seq=seq, prefix=prefix: self.check_partition(rc, seq, prefix),
                (Path(f"{prefix}.part*.txt"), Path(f"{prefix}.report.txt"))))
        return out

    def check_gen(self, ctx, rc, n, seq) -> list:
        problems = expect_rc(rc)
        if problems:
            return problems
        pts = read_points(seq)
        if len(pts) != n or any(m != 1 for _, _, m in pts):
            problems.append(f"{len(pts)} points written, want {n} simple points")
        if any(math.hypot(re, im) >= 1.0 for re, im, _ in pts):
            problems.append("point outside the open disk")
        if not ctx.same_as_before(str(seq), Path(seq).read_bytes()):
            problems.append("same seed gave a different sequence")
        return problems

    def check_analyze(self, ctx, rc, seq, rep) -> list:
        problems = expect_rc(rc)
        sections, bad = read_report(rep)
        problems += bad or check_schema(sections, ANALYZE_SCHEMA)
        if problems:
            return problems
        pts = read_points(seq)
        if int(number(sections, "sequence", "points")) != len(pts):
            problems.append("point count differs from the input")
        norm = number(sections, "carleson", "norm")
        if not norm <= 1.2 * self.TARGET_NORM:
            problems.append(f"carleson.norm {norm} above 1.2 x target")
        record_delta_error(ctx, sections, pts)
        return problems

    def check_partition(self, rc, seq, prefix) -> list:
        problems = expect_rc(rc)
        sections, bad = read_report(f"{prefix}.report.txt")
        problems += bad or check_schema(sections, PARTITION_SCHEMA)
        if problems:
            return problems
        info = sections["partition"]
        parts = int(info["parts"])
        files = sorted(Path(prefix).parent.glob(Path(prefix).name + ".part*.txt"))
        if len(files) != parts:
            problems.append(f"{len(files)} part files for {parts} parts")
        union = []
        worst = 1.0
        for f in files:
            pts = read_points(f)
            union += pts
            if len(pts) > 1:
                z = np.array([complex(re, im) for re, im, _ in pts])
                d = np.abs((z[:, None] - z[None, :]) / (1.0 - np.conj(z)[None, :] * z[:, None]))
                worst = min(worst, float(d[~np.eye(len(z), dtype=bool)].min()))
        if sorted(union) != sorted(read_points(seq)):
            problems.append("union of the parts is not the input")
        if not worst > self.SEP:
            problems.append(f"a part holds points at distance {worst} <= {self.SEP}")
        if info["count_within_bound"] != "pass":
            problems.append("count_within_bound is not pass")
        return problems


# ----------------------------------------------------------- deep verify

def escalating_points(n_max: int, split: bool, gap: float = 0.25, spacing: float = 1e-4):
    """Depth gap^n with multiplicity n, or n distinct points when split."""
    pts = []
    for n in range(1, n_max + 1):
        zn = 1.0 - gap**n
        if split:
            pts += [(zn, j * spacing * (1.0 - zn**2), 1) for j in range(n)]
        else:
            pts.append((zn, 0.0, n))
    return pts


def radial_points(q: float, n: int, angles):
    pts = []
    for th in angles:
        rot = np.exp(1j * th)
        for k in range(1, n + 1):
            z = (1.0 - q**k) * rot
            pts.append((float(z.real), float(z.imag), 1))
    return pts


class DeepVerify:
    # The rays lie on the real axis, where 1 - |z|^2 rounds least, and at a
    # fixed angle off it.  Their angles are not seeded: the accuracy of the
    # deepest points varies by two digits with the angle, which would swamp
    # the run-to-run comparison.
    RAY_ANGLES = (0.0, 1.0)

    def __init__(self, seed: int, work: Path):
        self.work = work
        rng = np.random.default_rng(seed)
        self.cases = []  # (label, points in file order, expected direction)
        for n_max in (8, 12):
            for split in (False, True):
                label = f"escalating n_max={n_max}" + (" split" if split else "")
                self.cases.append((label, escalating_points(n_max, split), "unbounded"))
        for th in self.RAY_ANGLES:
            self.cases.append((f"radial q=0.5 n=46 rays {th},{th}+pi",
                               radial_points(0.5, 46, (th, th + np.pi)), "bounded"))
        # the seed fixes the order in which each file lists its points
        self.cases = [(label, [pts[i] for i in rng.permutation(len(pts))], d)
                      for label, pts, d in self.cases]
        for i, (_, pts, _) in enumerate(self.cases):
            write_points(work / f"deep{i}.txt", pts)

    def describe(self) -> list:
        return [f"verify --level full: {label} (expect {d})" for label, _, d in self.cases]

    def warmup(self) -> None:
        seq = self.work / "warm.txt"
        write_points(seq, escalating_points(2, True))
        cli_call(["verify", "--level", "full", seq, "-o", self.work / "warm.report"])()

    def ops(self, ctx: Context) -> list:
        out = []
        for i, (label, pts, direction) in enumerate(self.cases):
            seq = self.work / f"deep{i}.txt"
            rep = self.work / f"deep{i}.report"
            out.append(Op(
                f"verify {label}",
                cli_call(["verify", "--level", "full", seq, "-o", rep]),
                lambda rc, pts=pts, rep=rep, d=direction: self.check(ctx, rc, pts, rep, d),
                (rep,)))
        return out

    def check(self, ctx, rc, pts, rep, direction) -> list:
        problems = expect_rc(rc)
        sections, bad = read_report(rep)
        simple = all(m == 1 for _, _, m in pts)
        schema = {**ANALYZE_SCHEMA, **(STRUCTURE_SCHEMA if simple else {}), **VERIFY_SCHEMA}
        problems += bad or check_schema(sections, schema)
        if problems:
            return problems
        got = sections["verify"]
        if (got["level"], got["consistent"], got["direction"]) != ("full", "pass", direction):
            problems.append(f"verify reads {got}, want full / pass / {direction}")
        if simple and sections["structure"]["union_exact"] != "pass":
            problems.append("structure.union_exact is not pass")
        record_delta_error(ctx, sections, pts)
        return problems


# -------------------------------------------------- clustered interpolation

EPS = 0.05  # the CLI's default cluster scale; satellites sit inside 2 * EPS


def clustered_problem(rng, rays: int, levels: int):
    """Clusters (lists of (z, mult)) in the CLI's cluster order, and jets.

    Radial geometric points q = 1/2 on equally spaced rays; four points get
    a satellite at pseudohyperbolic distance about 0.09, a fifth becomes a
    double point with a satellite at about 0.08 (cardinality 3).  Jet
    entries of order i are scaled by (1 - |z|^2)^-i.
    """
    off = rng.uniform(0.0, 2.0 * np.pi)
    base = [(1.0 - 0.5**k) * np.exp(1j * (off + 2.0 * np.pi * r / rays))
            for r in range(rays) for k in range(1, levels + 1)]
    clusters = [[[complex(z), 1]] for z in base]
    chosen = rng.choice(len(base), size=5, replace=False)
    for i, dist in [(i, 0.09) for i in chosen[:4]] + [(chosen[4], 0.08)]:
        z = base[i]
        sat = z + dist * (1.0 - abs(z) ** 2) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        clusters[i].append([complex(sat), 1])
    clusters[chosen[4]][0][1] = 2

    def anchor_key(c):
        return min((abs(z), np.angle(z)) for z, _ in c)

    clusters.sort(key=anchor_key)
    jets = []
    for c in clusters:
        rows = []
        for z, m in c:
            scale = 1.0 / (1.0 - abs(z) ** 2)
            rows.append([complex(rng.standard_normal(), rng.standard_normal()) * scale**i
                         for i in range(m)])
        jets.append(rows)
    return clusters, jets


def write_problem(work: Path, tag: str, clusters, jets):
    seq, tg = work / f"{tag}.seq.txt", work / f"{tag}.targets.txt"
    write_points(seq, [(z.real, z.imag, m) for c in clusters for z, m in c])
    lines = ["# cluster point order value_re value_im"]
    for k, rows in enumerate(jets):
        for i, row in enumerate(rows):
            lines += [f"{k} {i} {o} {v.real!r} {v.imag!r}" for o, v in enumerate(row)]
    tg.write_text("\n".join(lines) + "\n")
    return seq, tg


def capture_solutions(store: list) -> Callable:
    """Keep every solution vgh_interpolate returns in ``store`` (emptied
    first); returns the undo."""
    store.clear()
    orig = lib("geninterp").vgh_interpolate

    def grab(*args, **kwargs):
        sol = orig(*args, **kwargs)
        store.append(sol)
        return sol

    return patch_everywhere(orig, grab)


class ClusteredInterpolate:
    SHAPES = ((4, 5), (5, 6), (6, 7))  # (rays, levels)
    SOLVES = (("p0.5", ["--p", "0.5"], 0.5), ("p2", ["--p", "2"], 2.0),
              ("inf", ["--inf"], math.inf))

    def __init__(self, seed: int, work: Path):
        self.work = work
        rng = np.random.default_rng(seed)
        self.problems = []
        for rays, levels in self.SHAPES:
            clusters, jets = clustered_problem(rng, rays, levels)
            tag = f"clu{rays}x{levels}"
            self.problems.append((tag, clusters, jets, *write_problem(work, tag, clusters, jets)))

    def describe(self) -> list:
        return [
            f"{tag}: {sum(len(c) for c in cl)} points in {len(cl)} clusters; "
            "interpolate --p 0.5 / --p 2 / --inf; hinf_bound_estimate"
            for tag, cl, *_ in self.problems
        ]

    def warmup(self) -> None:
        clusters, jets = clustered_problem(np.random.default_rng(0), 3, 2)
        seq, tg = write_problem(self.work, "warm", clusters, jets)
        cli_call(["interpolate", seq, tg, "--p", "2", "-o", self.work / "warm.report"])()

    def ops(self, ctx: Context) -> list:
        out = []
        for tag, clusters, jets, seq, tg in self.problems:
            reports = {}
            for name, flags, p in self.SOLVES:
                rep = self.work / f"{tag}.{name}.report"
                reports[name] = rep
                store: list = []
                out.append(Op(
                    f"interpolate {tag} {name}",
                    cli_call(["interpolate", seq, tg, *flags, "-o", rep]),
                    lambda rc, rep=rep, p=p, store=store, cl=clusters, j=jets:
                        self.check_solve(ctx, rc, rep, p, store, cl, j),
                    (rep,),
                    functools.partial(capture_solutions, store)))
            out.append(Op(
                f"hinf_bound_estimate {tag}",
                lambda seq=seq: self.bound(seq),
                lambda b, rep=reports["inf"]: self.check_bound(b, rep)))
        return out

    @staticmethod
    def bound(seq) -> float:
        s = lib("io").read_sequence(seq)
        part = lib("geninterp").cluster_sequence(s, EPS, 0.6)
        return lib("geninterp").hinf_bound_estimate(
            part, lib("blaschke").BlaschkeProduct(part.all_points()))

    def check_solve(self, ctx, rc, rep, p, store, clusters, jets) -> list:
        problems = expect_rc(rc)
        sections, bad = read_report(rep)
        problems += bad or check_schema(sections, INTERPOLATE_SCHEMA)
        if problems:
            return problems
        got_p = sections["problem"]["p"]
        if int(sections["problem"]["clusters"]) != len(clusters) or \
                (got_p == "inf") != (p == math.inf) or (p != math.inf and float(got_p) != p):
            problems.append(f"problem section {sections['problem']} does not match the input")
        residual = number(sections, "solution", "jet_residual")
        if not residual <= 1e-8:
            problems.append(f"jet_residual {residual} above 1e-8")
        if not number(sections, "solution", "norm_ratio") > 0:
            problems.append("norm_ratio is not positive")
        if len(store) != 1:
            return problems + [f"{len(store)} solutions captured, want 1"]
        err = jet_error(store[0].function, clusters, jets)
        ctx.rel_errors.append(err)
        if not err <= 1e-6:
            problems.append(f"re-extracted jets miss the targets by {err:.3e}")
        return problems

    @staticmethod
    def check_bound(bound, inf_report) -> list:
        if not (isinstance(bound, float) and math.isfinite(bound) and bound > 0):
            return [f"bound {bound!r} is not a positive finite number"]
        sections, bad = read_report(inf_report)
        if bad:
            return bad
        achieved = number(sections, "solution", "achieved_norm")
        limit = 1.05 * bound * number(sections, "problem", "target_norm")
        return [] if achieved <= limit else [f"sup norm {achieved} above {limit}"]


def jet_error(fn, clusters, jets) -> float:
    """Worst prescribed-jet mismatch, relative with a floor of 1% of the
    largest target, of the function re-extracted by Cauchy circles."""
    centers = [z for c in clusters for z, _ in c]
    orders = [m for c in clusters for _, m in c]
    targets = [row for rows in jets for row in rows]
    scale = max(1.0, max(abs(v) for row in targets for v in row))
    worst = 0.0
    for got, row in zip(cauchy_derivatives(fn, centers, orders), targets):
        for g, t in zip(got, row):
            worst = max(worst, abs(g - t) / max(abs(t), 0.01 * scale))
    return worst


WORKLOADS = {
    "cloud-analyze": CloudAnalyze,
    "deep-verify": DeepVerify,
    "clustered-interpolate": ClusteredInterpolate,
}
