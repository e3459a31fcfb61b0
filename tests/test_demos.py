"""Every demo script runs to completion against the package in `src/`,
with no runtime warning."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    # a numpy overflow or invalid-value warning ends the demo with an error
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    # a bracket is printed only where it holds, so no end of it reads inf
    assert not re.search(r"\[[^\]]*inf[^\]]*\]", done.stdout)
    if demo.name == "04_bounds.py":
        assert "a finite bracket [lb, ub] holds at 120 of 120 steps" in done.stdout
