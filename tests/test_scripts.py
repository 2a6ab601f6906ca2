"""Smoke runs of the scripts under scripts/, each at its smallest sizes."""

import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent


def run_script(name, args, cwd):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    return subprocess.run([sys.executable, str(REPO / "scripts" / name), *args], cwd=cwd, env=env,
                          capture_output=True, text=True)


@pytest.mark.parametrize("name,args,header", [
    ("run_pipeline.py", ["--reactions", "2", "--synthons", "4", "--epochs", "1", "--steps", "2", "--k", "5"],
     "==> apexcsl generate "),
    ("ts_comparison.py", ["--reactions", "2", "--synthons", "4", "--budgets", "5", "--n-seeds", "2"],
     "reaction\titers\tevals\tj\tapex_recall\tts_median\tts_iqr"),
])
def test_script_runs(tmp_path, name, args, header):
    proc = run_script(name, args, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].startswith(header)
