"""The typicality script runs end to end on small inputs and prints its summary."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(name, *args):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *map(str, args)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_typicality_experiment():
    out = _run("typicality_experiment.py", "--depth", 2, "--trials", 2)
    assert "sampled 2 sets: n=2 b=3 depth=2 density=1/20" in out
    assert sum(line.lstrip().startswith("s=") for line in out.splitlines()) == 3


@pytest.mark.parametrize(
    "name, args",
    [
        ("typicality_experiment.py", ("--density", "1e-10000000")),
        ("typicality_experiment.py", ("--density", "0")),
    ],
)
def test_scripts_refuse_a_bad_rational_before_running(name, args):
    # read as the command line reads it: exponent notation and out-of-range values are usage errors
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], capture_output=True, text=True, timeout=10
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith(f"{name}: error: argument --")
