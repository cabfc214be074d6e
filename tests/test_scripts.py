"""Smoke runs of the experiment scripts on small inputs."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import CACHE_DIR

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, summary", [
    ("parameter_recovery.py",
     ["--pieces", "10", "--length", "8", "--replications", "2"],
     ["per-feature |error|: mean ", "sign recovered in every replication: "]),
    ("importance_demo.py",
     ["--pieces-per-regime", "3", "--length", "6", "--bootstrap", "2"],
     ["the dominant feature per regime should match", "  smooth: ", "  harmonic: "]),
])
def test_script_runs_to_its_summary(script, args, summary):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args,
         "--cache-dir", str(CACHE_DIR)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for k, start in enumerate(summary, start=len(lines) - len(summary)):
        assert lines[k].startswith(start)
