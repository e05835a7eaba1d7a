"""Smoke test of the benchmark's traced launcher against the current program.

benchmarks/tracer.py wraps public functions of the package by name, so a
rename there breaks `benchmarks/run.py --trace 1`. The launcher patches
modules globally, so it runs in its own process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_runs_a_cli_command(tmp_path):
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "tracer.py"), str(spans), "--",
         "generate", "--run-dir", str(tmp_path / "run")],
        env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    trace = json.loads(spans.read_text())
    assert trace["command"] == "generate"
    assert any(span[0] == "data.generate_synthetic" for span in trace["spans"])
