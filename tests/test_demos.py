"""Every demo script runs to completion, silently on stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def src_env() -> dict:
    """This environment with the checkout's src first on PYTHONPATH, for
    child processes: pytest's own pythonpath setting does not reach them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo, tmp_path):
    # every warning is an error, numpy's floating-point warnings included
    run = subprocess.run([sys.executable, "-W", "error", str(demo)], cwd=tmp_path, env=src_env(),
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stderr == ""
