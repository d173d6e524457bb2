"""Smoke test of the scale tier ``tests/scale.py``: with every size cut
down, it writes a ``BENCH_*.json`` file of the schema its docstring gives."""

import json
import subprocess
import sys
from pathlib import Path

SCALE = Path(__file__).resolve().with_name("scale.py")
CASE = {"name": str, "layer": str, "params": dict, "runs": int, "median_ms": float,
        "ref_ratio": float, "work": dict, "peak": dict}


def test_the_scale_tier_writes_its_schema_at_cut_down_sizes(tmp_path):
    out = tmp_path / "BENCH_quick.json"
    proc = subprocess.run([sys.executable, str(SCALE), "--quick", str(out)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(out.read_text(encoding="utf-8"))
    assert set(report) == {"commit", "src_modified", "source_digest", "machine", "quick",
                           "reference_ms", "wall_s", "cases", "skipped"}
    assert set(report["machine"]) == {"python", "numpy", "nproc"}
    assert report["quick"] is True and report["skipped"] == []
    assert len(report["cases"]) == 14
    for case in report["cases"]:
        assert {key: type(value) for key, value in case.items()} == CASE
        assert case["runs"] >= 3 and case["median_ms"] > 0
        assert set(case["peak"]) in ({"vmhwm_kib"}, {"tracemalloc_bytes"})
    children = [case["work"] for case in report["cases"] if case["layer"] == "cli"]
    assert [(w["exit"], w["witness_ok"]) for w in children] == [(1, True), (1, True)]
    ramp = [case for case in report["cases"] if case["layer"] == "ramp"]
    assert [case["name"].split(",")[0] for case in ramp] == (
        ["audit_security"] * 3 + ["deal", "reconstruct"] * 2)
    assert all(case["work"]["ok"] for case in ramp[:3])
    assert all(case["work"]["index_bytes"] > 0 for case in ramp[4::2])
