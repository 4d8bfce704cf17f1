"""The example scripts run end to end on small inputs and print their summaries."""

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


def test_refutation_experiment(tmp_path):
    out = _run("refutation_experiment.py", "--depth", 3, "--adversaries", 2, "--out-dir", tmp_path)
    assert "leaves=8" in out
    assert out.splitlines()[-1] == "all 2 covers refuted"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "cert_00.json", "cert_01.json", "cover_00.json", "cover_01.json", "tree.json"
    ]


def test_typicality_experiment():
    out = _run("typicality_experiment.py", "--depth", 2, "--trials", 2)
    assert "sampled 2 sets: n=2 b=3 depth=2 density=1/20" in out
    assert sum(line.lstrip().startswith("s=") for line in out.splitlines()) == 3


def test_render_dust_svg(tmp_path):
    svg = tmp_path / "dust.svg"
    out = _run("render_dust_svg.py", "--depth", 2, "--cover-pieces", 3, "-o", svg)
    cover = tmp_path / "dust_cover.svg"
    assert out.splitlines() == [f"wrote {svg}", f"wrote {cover}"]
    assert svg.read_text().count("<rect") == 1 + 4 + 16
    assert cover.read_text().count("<rect") == 1 + 3
    # the corner labelling is fixed, so the script takes no order
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "render_dust_svg.py"), "--corner-order", "1", "0", "-o", svg],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2 and "--corner-order" in proc.stderr


@pytest.mark.parametrize(
    "name, args",
    [
        ("typicality_experiment.py", ("--density", "1e-10000000")),
        ("typicality_experiment.py", ("--density", "0")),
        ("refutation_experiment.py", ("--depth", "2", "--adversaries", "1", "--eps", "1e-1000000")),
        ("refutation_experiment.py", ("--eps", "2")),
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
