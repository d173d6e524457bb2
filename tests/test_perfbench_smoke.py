"""Tier-1 smoke test of the benchmark harness: its self-check runs every
workload at its minimum size through the library calls the benchmark uses
(the CLI, scheme_from_aoa, deal, reconstruct, ShareBundle and the GF
operations it counts) and must exit 0."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selfcheck_passes():
    proc = subprocess.run([sys.executable, "perfbench/selfcheck.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
