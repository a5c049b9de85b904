import subprocess
import sys

import numpy as np
import pytest

from blaschke_lab import io as fio
from blaschke_lab.analysis import analyze_sequence, report_sections
from blaschke_lab.cli import main
from blaschke_lab.generators import gen_random_carleson
from blaschke_lab.geninterp import (
    InterpolationProblem,
    cluster_sequence,
    vgh_interpolate,
    xp_norm,
)
from blaschke_lab.io import read_sequence, write_sequence


def run_cli(*args):
    return main(list(args))


def test_gen_and_roundtrip(tmp_path):
    out = tmp_path / "seq.txt"
    assert run_cli("gen", "radial-geometric", "--q", "0.5", "--n", "3",
                   "-o", str(out)) == 0
    seq = read_sequence(out)
    assert np.allclose(seq.zs, [0.5, 0.75, 0.875])
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert len(lines) == 3


def test_gen_counterexample_mult_column(tmp_path):
    out = tmp_path / "ce.txt"
    assert run_cli("gen", "counterexample", "--n-max", "4", "-o", str(out)) == 0
    seq = read_sequence(out)
    assert seq.multiplicities == (1, 2, 3, 4)


def test_gen_bad_params(tmp_path):
    out = tmp_path / "x.txt"
    assert run_cli("gen", "radial-geometric", "--q", "1.5", "--n", "3",
                   "-o", str(out)) == 2
    assert run_cli("gen", "random-carleson", "--target-norm", "-1",
                   "-o", str(out)) == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["gen", "unknown-family", "-o", "x.txt"])
    assert exc.value.code == 2


def test_analyze(tmp_path):
    seq_file = tmp_path / "seq.txt"
    report = tmp_path / "report.txt"
    run_cli("gen", "radial-geometric", "--q", "0.5", "--n", "8", "-o", str(seq_file))
    assert run_cli("analyze", str(seq_file), "-o", str(report)) == 0
    sections = fio.parse_report(report.read_text())
    assert sections["verdict"]["interpolating_union"] == "pass"
    # schema stability: same key set for a very different input
    ce = tmp_path / "ce.txt"
    rep2 = tmp_path / "r2.txt"
    run_cli("gen", "counterexample", "--n-max", "8", "-o", str(ce))
    run_cli("analyze", str(ce), "-o", str(rep2))
    s2 = fio.parse_report(rep2.read_text())
    assert {k: set(v) for k, v in s2.items()} == {k: set(v) for k, v in sections.items()}
    assert s2["verdict"]["interpolating_union"] == "fail"


def test_analyze_with_probe_grid(tmp_path):
    seq_file = tmp_path / "seq.txt"
    report = tmp_path / "r.txt"
    run_cli("gen", "radial-geometric", "--q", "0.5", "--n", "5", "-o", str(seq_file))
    assert run_cli("analyze", str(seq_file), "--probe-grid", "0.4",
                   "-o", str(report)) == 0
    sections = fio.parse_report(report.read_text())
    # grid centers can only raise the supremum over the point-only probe
    base = tmp_path / "base.txt"
    run_cli("analyze", str(seq_file), "-o", str(base))
    base_sup = float(fio.parse_report(base.read_text())["carleson"]["blaschke_sup"])
    assert float(sections["carleson"]["blaschke_sup"]) >= base_sup - 1e-12


def test_interpolate_sup_norm_flag(tmp_path):
    seq_file = tmp_path / "seq.txt"
    seq_file.write_text("0.0 0.0 1\n0.5 0.0 1\n")
    targets = tmp_path / "targets.txt"
    targets.write_text("0 0 0 1.0 0.0\n1 0 0 2.0 0.0\n")
    report = tmp_path / "sol.txt"
    assert run_cli("interpolate", str(seq_file), str(targets), "--inf",
                   "-o", str(report)) == 0
    rep = fio.parse_report(report.read_text())
    assert rep["problem"]["p"] == "inf"


def test_analyze_parse_failure(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a number\n")
    assert run_cli("analyze", str(bad)) == 2
    assert run_cli("analyze", str(tmp_path / "missing.txt")) == 2


@pytest.mark.parametrize("flag, value", [
    ("--p", "0"), ("--p", "inf"), ("--p", "1e-16"), ("--p", "1e-300"), ("--p", "2e8"),
    ("--p", "1e300"), ("--alpha", "-1"), ("--alpha", "inf"),
    ("--probe-grid", "1.5"), ("--probe-grid", "nan"), ("--probe-grid", "-0.2"),
])
def test_analyze_bad_exponent_exit_2(tmp_path, capsys, flag, value):
    seq_file = tmp_path / "seq.txt"
    run_cli("gen", "radial-geometric", "--q", "0.5", "--n", "3", "-o", str(seq_file))
    assert run_cli("analyze", str(seq_file), flag, value) == 2
    assert "parse error" in capsys.readouterr().err


def test_analyze_huge_exponent_reports_infinite_divisor(tmp_path):
    # the CLI takes p up to 1e8, where the divisor ratio is still finite;
    # past it the battery still ends in values: |B|^p underflows to 0 on
    # every node and the divisor ratio is inf, not a crash
    seq_file = tmp_path / "seq.txt"
    report = tmp_path / "r.txt"
    run_cli("gen", "radial-geometric", "--q", "0.5", "--n", "3", "-o", str(seq_file))
    assert run_cli("analyze", str(seq_file), "--p", "1e8", "-o", str(report)) == 0
    assert np.isfinite(float(fio.parse_report(report.read_text())["probes"]["divisor_ratio"]))
    rep = analyze_sequence(read_sequence(seq_file), p=1e300)
    assert rep.divisor_ratio == np.inf
    assert report_sections(rep)["flags"]["universal_divisor"] is False


@pytest.mark.parametrize("flag, value", [
    ("--p", "0"), ("--p", "-1"), ("--p", "nan"), ("--eps", "0"), ("--eps", "nan"),
    ("--r-max", "0"), ("--r-max", "1"), ("--r-max", "nan"),
])
def test_interpolate_bad_flag_exit_2(tmp_path, capsys, flag, value):
    seq_file = tmp_path / "seq.txt"
    seq_file.write_text("0.0 0.0 1\n0.5 0.0 1\n")
    targets = tmp_path / "targets.txt"
    targets.write_text("0 0 0 1.0 0.0\n1 0 0 2.0 0.0\n")
    assert run_cli("interpolate", str(seq_file), str(targets), flag, value) == 2
    assert "parse error" in capsys.readouterr().err


# q = 2/p overflows the kernel (1e-320: q = inf); the jet check fails on the
# nan residual instead of passing it or ending in a warning or a traceback
@pytest.mark.parametrize("p", ["1e-6", "1e-16", "1e-300", "1e-320", "5e-324"])
def test_interpolate_tiny_p_exit_1(tmp_path, capsys, p):
    seq_file = tmp_path / "seq.txt"
    seq_file.write_text("0.0 0.0 1\n0.5 0.0 1\n")
    targets = tmp_path / "targets.txt"
    targets.write_text("0 0 0 1.0 0.0\n1 0 0 2.0 0.0\n")
    assert run_cli("interpolate", str(seq_file), str(targets), "--p", p) == 1
    assert capsys.readouterr().err == (
        "blaschke-lab: construction failed: jet residual nan exceeds 1e-6\n")


@pytest.mark.parametrize("args", [
    ["radial-geometric", "--rays", "0,abc"],
    ["radial-geometric", "--rays", "0,inf"],
    ["random-carleson", "--target-norm", "nan"],
    ["random-carleson", "--target-norm", "inf"],
    ["union", "--m", "0"],
    ["perturbed", "--satellites", "-1"],
    ["perturbed", "--doubles", "-1"],
    ["perturbed", "--n", "5", "--satellites", "4", "--doubles", "2"],
    ["random-carleson", "--seed", "-1"],
    ["union", "--seed", "-1"],
    ["perturbed", "--seed", "-1"],
])
def test_gen_bad_flag_exit_2(tmp_path, capsys, args):
    out = tmp_path / "x.txt"
    assert run_cli("gen", *args, "-o", str(out)) == 2
    assert "parse error" in capsys.readouterr().err
    assert not out.exists()


def test_gen_construction_failure_exit_1(tmp_path, capsys):
    out = tmp_path / "x.txt"
    assert run_cli("gen", "random-carleson", "--n", "60", "--target-norm", "0.05",
                   "-o", str(out)) == 1
    assert capsys.readouterr().err == "blaschke-lab: sampling budget exhausted\n"
    assert not out.exists()


# depths below the boundary floor (1e-30), and dyadic levels past 2^1023
@pytest.mark.parametrize("target", ["1e-30", "1e-310"])
def test_gen_tiny_target_exit_1(tmp_path, capsys, target):
    out = tmp_path / "x.txt"
    assert run_cli("gen", "random-carleson", "--n", "3", "--target-norm", target,
                   "-o", str(out)) == 1
    assert capsys.readouterr().err == "blaschke-lab: sampling budget exhausted\n"
    assert not out.exists()


@pytest.mark.parametrize("fault", [RecursionError, NotImplementedError])
def test_program_fault_is_not_a_construction_failure(tmp_path, monkeypatch, fault):
    # both are RuntimeErrors, but a traceback must still show them
    seq_file = tmp_path / "seq.txt"
    seq_file.write_text("0.0 0.0 1\n0.5 0.0 1\n")

    def broken(*args, **kwargs):
        raise fault("broken")

    monkeypatch.setattr("blaschke_lab.cli.analyze_sequence", broken)
    with pytest.raises(fault):
        run_cli("analyze", str(seq_file))


def test_partition_bad_separation_exit_2(tmp_path, capsys):
    seq_file = tmp_path / "seq.txt"
    run_cli("gen", "radial-geometric", "--q", "0.5", "--n", "3", "-o", str(seq_file))
    assert run_cli("partition", str(seq_file), "--sep", "1.5", "-o", str(tmp_path / "p")) == 2
    assert "parse error" in capsys.readouterr().err


def test_analyze_invariant_violation(tmp_path):
    bad = tmp_path / "outside.txt"
    bad.write_text("1.0 0.0 1\n")
    assert run_cli("analyze", str(bad)) == 3


def test_empty_sequence_report(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    report = tmp_path / "r.txt"
    assert run_cli("analyze", str(empty), "-o", str(report)) == 0
    sections = fio.parse_report(report.read_text())
    assert sections["verdict"]["interpolating_union"] == "n/a"


def test_partition(tmp_path):
    seq_file = tmp_path / "seq.txt"
    run_cli("gen", "radial-geometric", "--q", "0.5", "--n", "8", "-o", str(seq_file))
    prefix = tmp_path / "parts"
    assert run_cli("partition", str(seq_file), "--sep", "0.5", "-o", str(prefix)) == 0
    rep = fio.parse_report((tmp_path / "parts.report.txt").read_text())
    n_parts = int(rep["partition"]["parts"])
    assert n_parts == 2
    total = 0
    for i in range(n_parts):
        total += len(read_sequence(f"{prefix}.part{i}.txt"))
    assert total == 8
    assert rep["partition"]["count_within_bound"] == "pass"


def test_partition_multiplicity_exit_3(tmp_path):
    ce = tmp_path / "ce.txt"
    run_cli("gen", "counterexample", "--n-max", "3", "-o", str(ce))
    assert run_cli("partition", str(ce), "-o", str(tmp_path / "p")) == 3


def test_interpolate(tmp_path):
    seq_file = tmp_path / "seq.txt"
    seq_file.write_text("0.0 0.0 1\n0.5 0.0 1\n")
    targets = tmp_path / "targets.txt"
    targets.write_text("0 0 0 1.0 0.0\n1 0 0 0.0 0.0\n")
    report = tmp_path / "sol.txt"
    table = tmp_path / "table.txt"
    assert run_cli("interpolate", str(seq_file), str(targets),
                   "-o", str(report), "--table", str(table)) == 0
    rep = fio.parse_report(report.read_text())
    assert float(rep["solution"]["jet_residual"]) <= 1e-8
    rows = [ln.split() for ln in table.read_text().splitlines() if not ln.startswith("#")]
    assert all(len(r) == 4 for r in rows)
    assert all(np.isfinite(float(v)) for r in rows for v in r)
    # bad target index -> parse error
    targets.write_text("7 0 0 1.0 0.0\n")
    assert run_cli("interpolate", str(seq_file), str(targets)) == 2


def test_interpolate_report_matches_direct_solve(tmp_path):
    seq_file = tmp_path / "seq.txt"
    seq_file.write_text("0.0 0.0 2\n0.5 0.0 1\n0.1 0.7 1\n")
    targets = tmp_path / "targets.txt"
    targets.write_text("0 0 0 1.0 0.5\n0 0 1 -2.0 0.0\n1 0 0 0.25 0.0\n2 0 0 0.0 3.0\n")
    report = tmp_path / "sol.txt"
    assert run_cli("interpolate", str(seq_file), str(targets), "--p", "0.5",
                   "-o", str(report)) == 0
    # the report is the one built from a direct solve and the target norm
    # computed on its own
    part = cluster_sequence(read_sequence(seq_file), 0.05, 0.6)
    jets = fio.read_targets(targets, part)
    sol = vgh_interpolate(InterpolationProblem(part, jets, 0.5))
    assert sol.target_norm == xp_norm(part, jets, 0.5)
    assert report.read_text() == fio.format_report({
        "problem": {"clusters": 3, "eps": 0.05, "p": 0.5,
                    "target_norm": xp_norm(part, jets, 0.5)},
        "solution": {"jet_residual": sol.jet_residual,
                     "achieved_norm": sol.achieved_norm,
                     "norm_ratio": sol.norm_ratio},
    })


def test_verify_directions(tmp_path):
    good = tmp_path / "good.txt"
    run_cli("gen", "radial-geometric", "--q", "0.5", "--n", "8", "-o", str(good))
    assert run_cli("verify", str(good), "-o", str(tmp_path / "v1.txt")) == 0
    ce8 = tmp_path / "ce8.txt"
    run_cli("gen", "counterexample", "--n-max", "8", "-o", str(ce8))
    assert run_cli("verify", str(ce8), "-o", str(tmp_path / "v2.txt")) == 0
    rep = fio.parse_report((tmp_path / "v2.txt").read_text())
    assert rep["verify"]["direction"] == "unbounded"
    # a mid-level truncation has mixed indicators
    ce6 = tmp_path / "ce6.txt"
    run_cli("gen", "counterexample", "--n-max", "6", "-o", str(ce6))
    assert run_cli("verify", str(ce6), "-o", str(tmp_path / "v3.txt")) == 1
    corrupt = tmp_path / "corrupt.txt"
    corrupt.write_text("zzz\n")
    assert run_cli("verify", str(corrupt)) == 2


def test_verify_full_level(tmp_path):
    good = tmp_path / "good.txt"
    run_cli("gen", "radial-geometric", "--q", "0.5", "--n", "6", "-o", str(good))
    report = tmp_path / "v.txt"
    assert run_cli("verify", str(good), "--level", "full", "-o", str(report)) == 0
    rep = fio.parse_report(report.read_text())
    assert rep["structure"]["union_exact"] == "pass"


def test_console_entry_point(tmp_path):
    out = tmp_path / "seq.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "blaschke_lab.cli", "gen", "radial-geometric",
         "--q", "0.5", "--n", "3", "-o", str(out)],
        capture_output=True,
    )
    assert proc.returncode == 0
    assert out.exists()


def test_write_read_file_roundtrip(tmp_path):
    s = gen_random_carleson(5, 40, 6.0)
    path = tmp_path / "s.txt"
    write_sequence(s, path)
    back = read_sequence(path)
    assert np.array_equal(back.zs, s.zs)
