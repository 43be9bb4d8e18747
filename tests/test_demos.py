"""Every demo script runs to completion against the in-tree package."""

import pathlib
import subprocess
import sys

import pytest

from conftest import child_env

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(child_env(), TMPDIR=str(tmp_path))  # demo 05 writes a temp dir
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
