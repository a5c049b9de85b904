"""Output checks shared by the workloads.

Reports are parsed here rather than through blaschke_lab.io, so that a
defect in the program's own parser cannot hide a defect in its output.
Each check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import math
from pathlib import Path

ANALYZE_SCHEMA = {
    "sequence": ["points", "total_with_multiplicity"],
    "separation": ["delta", "delta_prime", "discreteness", "union_parts", "part_delta"],
    "carleson": ["norm", "method", "blaschke_sup"],
    "probes": ["max_count_half", "nonzero_probe", "divisor_ratio", "mb_probe"],
    "flags": ["union_separation", "carleson", "blaschke_sup", "local_count",
              "uniformly_nonzero", "universal_divisor", "mult_bounded_below"],
    "verdict": ["interpolating_union", "direction_agreement"],
}
STRUCTURE_SCHEMA = {"structure": ["parts_at_half", "count_bound", "union_exact"]}
VERIFY_SCHEMA = {"verify": ["level", "consistent", "direction"]}
PARTITION_SCHEMA = {
    "partition": ["parts", "separation", "count_bound",
                  "min_within_part_distance", "count_within_bound"],
}
INTERPOLATE_SCHEMA = {
    "problem": ["clusters", "eps", "p", "target_norm"],
    "solution": ["jet_residual", "achieved_norm", "norm_ratio"],
}

# keys whose values are words; every other value must be a finite number
TEXT_VALUES = {
    ("carleson", "method"): {"dyadic", "point-anchored", "n/a"},
    ("verify", "level"): {"quick", "full"},
    ("verify", "direction"): {"bounded", "unbounded", "mixed", "n/a"},
    ("problem", "p"): {"inf"},
}
VERDICT_SECTIONS = {"flags", "verdict"}
VERDICT_KEYS = {("structure", "union_exact"), ("verify", "consistent"),
                ("partition", "count_within_bound")}
VERDICT_WORDS = {"pass", "fail", "n/a"}


def parse_report(text: str) -> dict:
    sections: dict = {}
    current = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1], {})
        elif "=" in line and current is not None:
            key, _, value = line.partition("=")
            current[key.strip()] = value.strip()
        else:
            raise ValueError(f"stray report line {raw!r}")
    return sections


def read_report(path) -> tuple:
    """(sections, problems) for a report file."""
    try:
        return parse_report(Path(path).read_text()), []
    except (OSError, ValueError) as exc:
        return {}, [f"unreadable report {Path(path).name}: {exc}"]


def check_schema(sections: dict, schema: dict) -> list:
    """Exact section and key layout, then the type of every value."""
    want = [(s, keys) for s, keys in schema.items()]
    got = [(s, list(kv)) for s, kv in sections.items()]
    if got != want:
        return [f"report schema {got} != {want}"]
    problems = []
    for s, kv in sections.items():
        for key, value in kv.items():
            if (s, key) in TEXT_VALUES:
                if value in TEXT_VALUES[(s, key)]:
                    continue
            elif s in VERDICT_SECTIONS or (s, key) in VERDICT_KEYS:
                if value not in VERDICT_WORDS:
                    problems.append(f"{s}.{key} = {value!r} is not a verdict")
                continue
            try:
                ok = math.isfinite(float(value))
            except ValueError:
                ok = False
            if not ok:
                problems.append(f"{s}.{key} = {value!r} is not a finite number")
    return problems


def number(sections: dict, section: str, key: str) -> float:
    return float(sections[section][key])


def read_points(path) -> list:
    """(re, im, mult) triples of a sequence file, exact floats."""
    pts = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].split()
        if line:
            pts.append((float(line[0]), float(line[1]), int(line[2])))
    return pts


def write_points(path, points) -> None:
    lines = ["# re im mult"] + [f"{re!r} {im!r} {m}" for re, im, m in points]
    Path(path).write_text("\n".join(lines) + "\n")


def relative_error(got: float, want: float) -> float:
    if want == 0.0:
        return 0.0 if got == 0.0 else math.inf
    return abs(got - want) / abs(want)
