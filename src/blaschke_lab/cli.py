"""Batch front end: generate, analyze, partition, interpolate, verify.

Exit codes are a stable contract:
  0  success
  1  verdict failure (mixed diagnostic directions, construction failure)
  2  usage or parse error
  3  domain invariant violation (point outside disk, duplicates,
     inseparable multiplicity, ...)
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import io as fio
from .analysis import analyze_sequence, direction_agreement, report_sections
from .blaschke import BlaschkeProduct, max_local_count, partition_separated, separation_report
from .disk import InvariantViolation
from .generators import (
    gen_escalating_multiplicity,
    gen_perturbed,
    gen_radial_geometric,
    gen_random_carleson,
    gen_union,
)
from .geninterp import InterpolationProblem, cluster_sequence, vgh_interpolate


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="blaschke-lab",
        description="Finite zero sequences in the unit disk: generation, "
                    "diagnostics, partitions and clustered interpolation.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a sequence file")
    g.add_argument("family", choices=[
        "radial-geometric", "union", "counterexample", "random-carleson",
        "perturbed",
    ])
    g.add_argument("--q", type=float, default=0.5, help="geometric ratio in (0,1)")
    g.add_argument("--n", type=int, default=10, help="points per ray / cloud size")
    g.add_argument("--rays", type=str, default="0",
                   help="comma separated ray angles in radians")
    g.add_argument("--m", type=int, default=2, help="union copy count")
    g.add_argument("--n-max", type=int, default=4, help="escalation level")
    g.add_argument("--base-gap", type=float, default=0.25)
    g.add_argument("--split", action="store_true",
                   help="split repeated points into distinct near points")
    g.add_argument("--target-norm", type=float, default=4.0)
    g.add_argument("--satellites", type=int, default=4)
    g.add_argument("--doubles", type=int, default=2)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--output", required=True)

    a = sub.add_parser("analyze", help="run the diagnostic battery")
    a.add_argument("file")
    a.add_argument("--p", type=float, default=0.5,
                   help="probe exponent in [1e-10, 1e8]: outside it the probes "
                        "keep no digits")
    a.add_argument("--alpha", type=float, default=0.0,
                   help="probe weight (1-|z|^2)^alpha, alpha finite and > -1")
    a.add_argument("--probe-grid", type=float, default=0.0,
                   help="hyperbolic pitch for extra probe centers (0 = off)")
    a.add_argument("-o", "--output", default=None)

    pt = sub.add_parser("partition", help="split into separated parts")
    pt.add_argument("file")
    pt.add_argument("--sep", type=float, default=0.5)
    pt.add_argument("-o", "--output", required=True,
                    help="prefix for part files and report")

    it = sub.add_parser("interpolate", help="solve a clustered jet problem")
    it.add_argument("file")
    it.add_argument("targets")
    it.add_argument("--p", type=float, default=2.0)
    it.add_argument("--inf", action="store_true", help="use the sup norm")
    it.add_argument("--eps", type=float, default=0.05)
    it.add_argument("--r-max", type=float, default=0.6)
    it.add_argument("-o", "--output", default=None)
    it.add_argument("--table", default=None,
                    help="write sampled solution values (re im f_re f_im)")

    v = sub.add_parser("verify", help="battery plus direction-agreement check")
    v.add_argument("file")
    v.add_argument("--level", choices=["quick", "full"], default="quick")
    v.add_argument("-o", "--output", default=None)
    return ap


def _emit(sections: dict, output) -> None:
    text = fio.format_report(sections)
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    if not 0.0 < args.q < 1.0:
        raise fio.ParseError(f"q must lie in (0, 1), got {args.q}")
    if not 0.0 < args.base_gap < 1.0:
        raise fio.ParseError(f"base-gap must lie in (0, 1), got {args.base_gap}")
    if not 0.0 < args.target_norm < np.inf:
        raise fio.ParseError(f"target-norm must lie in (0, inf), got {args.target_norm}")
    if min(args.n, args.n_max, args.m) < 1 or min(args.satellites, args.doubles) < 0:
        raise fio.ParseError("n, n-max and m must be positive; satellites and doubles >= 0")
    if args.seed < 0:
        raise fio.ParseError(f"seed must be non-negative, got {args.seed}")
    try:
        rays = tuple(float(t) for t in args.rays.split(",") if t.strip())
    except ValueError:
        raise fio.ParseError(f"rays must be comma separated numbers, got {args.rays!r}") from None
    if not np.isfinite(rays).all():
        raise fio.ParseError(f"rays must be finite, got {args.rays!r}")
    if args.family == "counterexample":
        seq = gen_escalating_multiplicity(args.n_max, args.base_gap, args.split)
    elif args.family == "random-carleson":
        seq = gen_random_carleson(args.seed, args.n, args.target_norm)
    else:
        seq = gen_radial_geometric(args.q, args.n, rays)
        if args.family == "union":
            seq = gen_union(args.m, seq, args.seed)
        elif args.family == "perturbed":
            if args.satellites + args.doubles > len(seq):
                raise fio.ParseError("not enough base points to perturb")
            seq = gen_perturbed(seq, args.satellites, args.doubles, args.seed)
    fio.write_sequence(seq, args.output)
    return 0


def _cmd_analyze(args) -> int:
    # below 1e-10 the means |B o phi_c|^p round toward 1 and their 1/p-th
    # powers keep no digits: at 1e-16 the divisor ratio reads below 1.
    # Above 1e8 they underflow toward 0 (mb_probe 0, divisor_ratio inf):
    # the escalating family at n_max = 12 collapses from p = 1.5e9 on
    if not 1e-10 <= args.p <= 1e8:
        raise fio.ParseError(f"p must lie in [1e-10, 1e8], got {args.p}")
    if not -1.0 < args.alpha < np.inf:
        raise fio.ParseError(f"alpha must lie in (-1, inf), got {args.alpha}")
    if not (args.probe_grid == 0.0 or 0.0 < args.probe_grid < 1.0):
        raise fio.ParseError(f"probe-grid must be 0 (off) or lie in (0, 1), got {args.probe_grid}")
    seq = fio.read_sequence(args.file)
    rep = analyze_sequence(seq, p=args.p, alpha=args.alpha,
                           probe_pitch=args.probe_grid)
    _emit(report_sections(rep), args.output)
    return 0


def _cmd_partition(args) -> int:
    if not 0.0 < args.sep < 1.0:
        raise fio.ParseError(f"sep must lie in (0, 1), got {args.sep}")
    seq = fio.read_sequence(args.file)
    parts = partition_separated(seq, args.sep)
    for i, part in enumerate(parts):
        fio.write_sequence(part, f"{args.output}.part{i}.txt")
    bound = max_local_count(BlaschkeProduct(seq), args.sep)
    # a lone point's discreteness is 1
    within = (separation_report(BlaschkeProduct(part)).discreteness for part in parts)
    sections = {
        "partition": {
            "parts": len(parts),
            "separation": args.sep,
            "count_bound": bound,
            "min_within_part_distance": min(within, default=1.0),
            "count_within_bound": len(parts) <= bound,
        }
    }
    fio.write_report(sections, f"{args.output}.report.txt")
    return 0


def _cmd_interpolate(args) -> int:
    if not args.p > 0.0:
        raise fio.ParseError(f"p must be positive, got {args.p}")
    if not 0.0 < args.eps < 1.0:
        raise fio.ParseError(f"eps must lie in (0, 1), got {args.eps}")
    if not 0.0 < args.r_max < 1.0:
        raise fio.ParseError(f"r-max must lie in (0, 1), got {args.r_max}")
    seq = fio.read_sequence(args.file)
    part = cluster_sequence(seq, args.eps, args.r_max)
    jets = fio.read_targets(args.targets, part)
    p = np.inf if args.inf else args.p
    sol = vgh_interpolate(InterpolationProblem(part, jets, p))
    sections = {
        "problem": {
            "clusters": len(part.clusters),
            "eps": part.eps,
            "p": "inf" if p == np.inf else p,
            "target_norm": sol.target_norm,
        },
        "solution": {
            "jet_residual": sol.jet_residual,
            "achieved_norm": sol.achieved_norm,
            "norm_ratio": sol.norm_ratio,
        },
    }
    _emit(sections, args.output)
    if args.table:
        ring = np.exp(2j * np.pi * np.arange(64) / 64)
        zs = np.concatenate([[0j]] + [r * ring for r in (0.3, 0.6, 0.85, 0.95)])
        with open(args.table, "w") as fh:
            fh.write("# re im f_re f_im\n")
            for z, w in zip(zs.tolist(), sol.function(zs).tolist()):
                fh.write(f"{z.real!r} {z.imag!r} {w.real!r} {w.imag!r}\n")
    return 0


def _cmd_verify(args) -> int:
    seq = fio.read_sequence(args.file)
    pitch = 0.25 if args.level == "full" else 0.0
    rep = analyze_sequence(seq, probe_pitch=pitch)
    sections = report_sections(rep)
    agreement = direction_agreement(rep)
    structural_ok = True
    if args.level == "full" and len(seq) and seq.is_simple():
        parts = partition_separated(seq, 0.5)
        bound = rep.max_count_half
        union_total = sum(len(p) for p in parts)
        structural_ok = union_total == len(seq) and len(parts) <= bound
        sections["structure"] = {
            "parts_at_half": len(parts),
            "count_bound": bound,
            "union_exact": union_total == len(seq),
        }
    ok = agreement and structural_ok
    sections["verify"] = {
        "level": args.level,
        "consistent": "pass" if ok else "fail",
        "direction": ("bounded" if rep.flags and all(rep.flags.values())
                      else "unbounded" if rep.flags and not any(rep.flags.values())
                      else "mixed" if rep.flags else "n/a"),
    }
    _emit(sections, args.output)
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "analyze": _cmd_analyze,
        "partition": _cmd_partition,
        "interpolate": _cmd_interpolate,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except fio.ParseError as exc:
        sys.stderr.write(f"blaschke-lab: parse error: {exc}\n")
        return 2
    except FileNotFoundError as exc:
        sys.stderr.write(f"blaschke-lab: {exc}\n")
        return 2
    except InvariantViolation as exc:
        sys.stderr.write(f"blaschke-lab: invariant violation: {exc}\n")
        return 3
    except (RecursionError, NotImplementedError):
        raise  # faults of the program, not a failed construction
    except RuntimeError as exc:  # a construction that failed: no sequence or solution
        sys.stderr.write(f"blaschke-lab: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
