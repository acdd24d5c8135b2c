"""Smoke test: every demo script runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

from _helpers import subprocess_env

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    r = subprocess.run([sys.executable, str(demo)], cwd=ROOT, capture_output=True,
                       text=True, timeout=120, env=subprocess_env())
    assert r.returncode == 0, r.stderr
