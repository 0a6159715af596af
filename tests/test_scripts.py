import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def run_python(*argv: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize(
    "name,argv",
    [
        ("chsh_protocol_demo.py", ("--pairs", "2000")),
        ("reconstruction_sweep.py", ("--samples", "11", "--steps", "1e-3")),
    ],
)
def test_script_runs(name, argv):
    result = run_python(str(SCRIPTS / name), *argv)
    assert result.returncode == 0, result.stderr
    assert result.stdout


def test_cosine_measure_script_feeds_trivial(tmp_path):
    out = tmp_path / "cosine.json"
    result = run_python(str(SCRIPTS / "make_cosine_measure.py"), "--grid", "8", "--out", str(out))
    assert result.returncode == 0, result.stderr
    trivial = run_python("-m", "lcsim", "trivial", "--measure", str(out))
    assert trivial.returncode == 0, trivial.stderr
    assert '"setting-family"' in trivial.stdout
