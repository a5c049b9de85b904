"""Flat-file formats: sequences, interpolation targets, reports.

Sequence files carry one point per line as ``re im mult`` with full float
precision (round-trips are bit exact); ``#`` starts a comment.  Target
files address jets as ``cluster point order value_re value_im``: the
order-th raw derivative at point ``point`` of cluster ``cluster``, in the
partition's cluster order; parse_targets returns them as the nested rows
InterpolationProblem takes, zero where a file is silent.  Reports
are ``key = value`` lines under ``[section]`` headers, parseable back into
nested dicts; verdict-valued keys use pass / fail / n/a.
"""

from __future__ import annotations

import numpy as np

from .disk import FiniteSequence
from .geninterp import ClusterPartition


class ParseError(ValueError):
    """Malformed file content (structure, not domain invariants)."""


def format_sequence(s: FiniteSequence) -> str:
    lines = ["# re im mult"]
    # through tolist: the repr of a numpy scalar is not its number
    for z, m in zip(s.zs.tolist(), s.mults.tolist()):
        lines.append(f"{z.real!r} {z.imag!r} {m}")
    return "\n".join(lines) + "\n"


def write_sequence(s: FiniteSequence, path) -> None:
    with open(path, "w") as fh:
        fh.write(format_sequence(s))


def parse_sequence(text: str) -> FiniteSequence:
    pts = []
    mults = []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"line {ln}: expected 're im mult', got {raw!r}")
        try:
            re_, im_ = float(parts[0]), float(parts[1])
            mult = int(parts[2])
        except ValueError as exc:
            raise ParseError(f"line {ln}: {exc}") from None
        pts.append(complex(re_, im_))
        mults.append(mult)
    return FiniteSequence(pts, mults)  # InvariantViolation propagates


def read_sequence(path) -> FiniteSequence:
    with open(path) as fh:
        return parse_sequence(fh.read())


def parse_targets(text: str, part: ClusterPartition):
    """Jets for the given partition, one tuple of per-point derivative rows
    per cluster; unspecified entries default to zero, and nan or inf
    values are a ParseError."""
    rows = [[[0.0 + 0.0j] * m for m in c.mults.tolist()] for c in part.clusters]
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ParseError(
                f"line {ln}: expected 'cluster point order re im', got {raw!r}"
            )
        try:
            k, i, order = int(parts[0]), int(parts[1]), int(parts[2])
            val = complex(float(parts[3]), float(parts[4]))
        except ValueError as exc:
            raise ParseError(f"line {ln}: {exc}") from None
        if not np.isfinite(val):
            raise ParseError(f"line {ln}: non-finite target value in {raw!r}")
        if not 0 <= k < len(part.clusters):
            raise ParseError(f"line {ln}: cluster index {k} out of range")
        cluster = part.clusters[k]
        if not 0 <= i < len(cluster):
            raise ParseError(f"line {ln}: point index {i} out of range")
        if not 0 <= order < cluster.mults[i]:
            raise ParseError(
                f"line {ln}: derivative order {order} at multiplicity "
                f"{cluster.mults[i]}"
            )
        rows[k][i][order] = val
    return tuple(tuple(tuple(r) for r in cluster_rows) for cluster_rows in rows)


def read_targets(path, part: ClusterPartition):
    with open(path) as fh:
        return parse_targets(fh.read(), part)


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "pass" if v else "fail"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def format_report(sections: dict) -> str:
    lines = []
    for name, kv in sections.items():
        lines.append(f"[{name}]")
        for key, value in kv.items():
            lines.append(f"{key} = {_format_value(value)}")
        lines.append("")
    return "\n".join(lines)


def write_report(sections: dict, path) -> None:
    with open(path, "w") as fh:
        fh.write(format_report(sections))


def parse_report(text: str) -> dict:
    sections: dict = {}
    current = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            sections[current] = {}
            continue
        if "=" not in line or current is None:
            raise ParseError(f"stray report line {raw!r}")
        key, _, value = line.partition("=")
        sections[current][key.strip()] = value.strip()
    return sections
