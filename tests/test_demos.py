"""Every demo script runs to completion, and the gap-bound demo reaches
its bound exactly."""

import os
import pathlib
import re
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


def run_demo(script: pathlib.Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(script)], env=env, cwd=script.parent,
                          capture_output=True, text=True, timeout=120)


def test_worked_examples_demo_runs():
    result = run_demo(DEMOS / "worked_examples.py")
    assert result.returncode == 0, result.stderr


def test_ensemble_regimes_demo_reaches_the_gap_bound():
    result = run_demo(DEMOS / "ensemble_regimes.py")
    assert result.returncode == 0, result.stderr
    pairs = re.findall(r"bound (\S+), witness ensemble reaches (\S+)", result.stdout)
    assert len(pairs) == 4
    assert all(bound == reached for bound, reached in pairs)


def test_simulation_demo_runs_from_a_copy(tmp_path):
    # the demo writes into out/ beside the script, so run a copy
    script = tmp_path / "simulation_and_rendering.py"
    shutil.copy(DEMOS / script.name, script)
    result = run_demo(script)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "out" / "simulation.csv").is_file()
