import numpy as np
import pytest

from blaschke_lab import io as fio
from blaschke_lab.disk import FiniteSequence, InvariantViolation
from blaschke_lab.generators import gen_random_carleson
from blaschke_lab.geninterp import cluster_sequence
from oracles import format_targets


def test_sequence_roundtrip_exact():
    for seed in range(20):
        s = gen_random_carleson(seed, 25, 6.0)
        back = fio.parse_sequence(fio.format_sequence(s))
        assert np.array_equal(back.zs, s.zs)
        assert back.mults.tolist() == s.mults.tolist()


def test_sequence_parse_errors():
    with pytest.raises(fio.ParseError):
        fio.parse_sequence("0.5 0.0\n")  # missing mult
    with pytest.raises(fio.ParseError):
        fio.parse_sequence("a b 1\n")
    with pytest.raises(fio.ParseError):
        fio.parse_sequence("0.5 0.0 1.5\n")  # non-integer mult
    with pytest.raises(InvariantViolation):
        fio.parse_sequence("1.0 0.0 1\n")  # outside the disk
    with pytest.raises(InvariantViolation):
        fio.parse_sequence("0.5 0.0 1\n0.5 0.0 1\n")  # duplicate
    with pytest.raises(InvariantViolation):
        fio.parse_sequence("0.5 0.0 0\n")  # zero multiplicity
    assert len(fio.parse_sequence("# comment only\n\n")) == 0


def test_targets_roundtrip():
    s = FiniteSequence([0.0, 0.5], [2, 1])
    part = cluster_sequence(s, 0.05, 0.6)
    jets = fio.parse_targets("0 0 0 1.0 0.0\n0 0 1 0.5 -0.25\n1 0 0 2.0 1.0\n", part)
    text = format_targets(jets)
    again = fio.parse_targets(text, part)
    assert again == jets


def test_targets_validation():
    s = FiniteSequence([0.0, 0.5], [2, 1])
    part = cluster_sequence(s, 0.05, 0.6)
    with pytest.raises(fio.ParseError, match="cluster index"):
        fio.parse_targets("9 0 0 1 0\n", part)
    with pytest.raises(fio.ParseError, match="point index"):
        fio.parse_targets("0 4 0 1 0\n", part)
    with pytest.raises(fio.ParseError, match="order"):
        fio.parse_targets("1 0 1 1 0\n", part)
    with pytest.raises(fio.ParseError):
        fio.parse_targets("0 0 0 1\n", part)


def test_report_roundtrip():
    sections = {
        "alpha": {"x": 1.5, "flag": True, "n": 3},
        "beta": {"verdict": "n/a"},
    }
    text = fio.format_report(sections)
    parsed = fio.parse_report(text)
    assert parsed["alpha"]["x"] == repr(1.5)
    assert parsed["alpha"]["flag"] == "pass"
    assert parsed["beta"]["verdict"] == "n/a"
    with pytest.raises(fio.ParseError):
        fio.parse_report("loose line\n")
