"""The benchmark's own checks; run with ``python -m pytest perfbench``.

The smoke run executes every job kind, every oracle and the traced runner
once at tiny sizes, with no timing assertions, so the harness cannot rot.
"""

import json
import os
import resource
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from inputs import SplitMix64, adversary_cover, baire_cells, dust_levels, survivor_disjoint
from jobs import Spawner
from layers import METRICS
from run import GROUPS
from workloads import found_set, positions_above_cell, stalled_set

ROOT = Path(__file__).resolve().parents[1]


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def test_smoke_runs_every_job_kind_oracle_and_the_traced_runner():
    proc = run_bench("--smoke")
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"], summary["failing"]
    assert set(summary["groups"]) == set(GROUPS)
    assert all(name.startswith("defect-") for name in summary["failing"])
    layers = summary["layers"]
    assert layers["dust"]["dust.cubes_built"] > 0
    assert layers["dust"]["geometry.dist_sq.calls"] > 0
    assert layers["sets"]["dust.cubes_built"] == layers["sets"]["geometry.dist_sq.calls"] == 0
    assert layers["sets"]["covers.verify_per_search"] == 2.0
    assert layers["check"]["dust.generate.self_frac"] == 0
    assert layers["check"]["geometry.covers_box.calls"] > 0


def test_metric_lists_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == METRICS
    assert [w["name"] for w in bench["workloads"]] == ["dust", "sets", "check"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "dust", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_spawner_reports_the_commands_own_rss_and_kills_at_the_limit(tmp_path):
    ballast = bytearray(64 * 1024 * 1024)
    ballast[::4096] = b"x" * len(ballast[::4096])
    spawner = Spawner(dict(os.environ))
    try:
        small = spawner.run([sys.executable, "-c", "print('ok')"], tmp_path)
        slow = spawner.run([sys.executable, "-c", "import time; time.sleep(30)"], tmp_path, limit_s=0.5)
    finally:
        spawner.close()
    assert (small.rc, small.stdout) == (0, "ok\n")
    assert small.rss_kb < 48 * 1024 < resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert slow.rc is None and slow.wall_s < 10
    assert not list(tmp_path.iterdir())


def test_dust_levels_nest_and_keep_the_sibling_gap():
    levels = dust_levels(2, 3, 3)
    assert [len(level) for level in levels] == [4, 16, 64]
    corners = dict(levels[1])
    # letters 1 and 2 differ in the last axis by parent side minus child side
    assert corners[(1, 2)][1] - corners[(1, 1)][1] == 3 ** (9 - 1) - 3 ** (9 - 4)


def test_survivor_oracle_rejects_a_touching_survivor():
    cover = adversary_cover(SplitMix64(5), 1, 3, 3, 3, "swallow")
    grid = 3**9
    lo = Fraction(cover["pieces"][0][0][0])
    word = next(w for w, (c,) in dust_levels(1, 3, 3)[-1] if Fraction(c, grid) == lo)
    assert survivor_disjoint(1, 3, 3, word, cover, 1) == "survivor touches examined piece 1"


def test_baire_reference_matches_the_golden_sample():
    golden = json.loads((ROOT / "tests" / "golden" / "sample_n2_b3_d3_p10_seed42.json").read_text())
    assert golden["cells"] == [list(c) for c in baire_cells(42, 2, 3, 3, Fraction(1, 10))]


def test_search_sets_have_their_proved_shape():
    eps = Fraction(1, 2)
    cells = stalled_set(SplitMix64(1), eps, 27, 0)
    assert positions_above_cell(eps, 2, 27) == 9
    assert len(cells) == 679
    found = found_set(SplitMix64(2), Fraction(3, 4), 81, 50, 20)
    assert (0, 0) in found and len(found) == 70
