import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from microset import serialize
from microset.baire import (
    SampleSpec,
    SplitMix64,
    finite_skeleton,
    sample_compact,
    skeleton_depth,
    typicality_report,
    write_typicality_csv,
    write_typicality_json,
)
from microset.geometry import DigitalSet, Point, hausdorff_bracket

F = Fraction
GOLDEN = Path(__file__).parent / "golden" / "sample_n2_b3_d3_p10_seed42.json"


def test_splitmix_reference_outputs():
    # published reference stream for seed 1234567 (Vigna's splitmix64.c)
    rng = SplitMix64(1234567)
    assert rng.next() == 6457827717110365317
    assert rng.next() == 3203168211198807973
    assert rng.next() == 9817491932198370423


def test_sample_spec_validation():
    with pytest.raises(ValueError):
        SampleSpec(seed=1, n=1, b=3, depth=1, density=F(0))
    with pytest.raises(ValueError):
        SampleSpec(seed=1, n=1, b=3, depth=1, density=F(3, 2))
    with pytest.raises(ValueError):
        SampleSpec(seed=1, n=1, b=3, depth=1, density=F(1, 2), trials=0)


def test_density_one_gives_full_grid():
    e = sample_compact(SampleSpec(seed=9, n=2, b=3, depth=1, density=F(1)))
    assert len(e.cells) == 9


def test_same_seed_same_set():
    spec = SampleSpec(seed=77, n=2, b=3, depth=2, density=F(1, 3))
    assert sample_compact(spec) == sample_compact(spec)


def test_forced_nonempty_on_tiny_density():
    e = sample_compact(SampleSpec(seed=3, n=1, b=3, depth=1, density=F(1, 10**18)))
    assert len(e.cells) >= 1


def test_sample_matches_golden_file():
    spec = SampleSpec(seed=42, n=2, b=3, depth=3, density=F(1, 10))
    e = sample_compact(spec)
    assert serialize.canonical_bytes(serialize.to_json(e)) == GOLDEN.read_bytes()


def test_skeleton_single_cell_single_center():
    e = DigitalSet(1, 3, 1, ((1,),))
    pts = finite_skeleton(e, F(1, 6))
    assert pts == [Point((F(1, 2),))]


def test_skeleton_line_example():
    e = DigitalSet(1, 3, 1, ((0,), (2,)))
    pts = finite_skeleton(e, F(1, 6))
    assert [p.coords for p in pts] == [(F(1, 6),), (F(5, 6),)]
    as_cells = DigitalSet(1, 3, 1, ((0,), (2,)))
    assert hausdorff_bracket(e, as_cells, 1).hi <= F(1, 6)


def test_skeleton_rejects_nonpositive_delta():
    e = DigitalSet(1, 3, 1, ((0,),))
    with pytest.raises(ValueError):
        finite_skeleton(e, F(0))


def test_skeleton_bracket_check_holds_under_optimize():
    # python -O strips assert statements; the certificate check must still raise
    code = "\n".join([
        "from fractions import Fraction",
        "from microset import baire",
        "from microset.geometry import DigitalSet, HBracket",
        "wide = HBracket(Fraction(1), Fraction(1), 0, Fraction(1))",
        "baire.hausdorff_bracket = lambda *args: wide",
        "try:",
        "    baire.finite_skeleton(DigitalSet(1, 3, 1, ((0,),)), Fraction(1, 6))",
        "except AssertionError as exc:",
        "    print(exc)",
    ])
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "skeleton bracket exceeded delta\n"


def test_skeleton_halving_growth_factor():
    e = DigitalSet(2, 3, 1, ((0, 0),))
    coarse = finite_skeleton(e, F(1, 3))
    fine = finite_skeleton(e, F(1, 6))
    assert len(fine) <= len(coarse) * 3**2


@given(
    st.integers(min_value=0, max_value=2**32),
    st.fractions(min_value=F(1, 200), max_value=F(1, 2)),
)
def test_skeleton_depth_certifies_delta(seed, delta):
    e = sample_compact(SampleSpec(seed=seed, n=1, b=3, depth=2, density=F(1, 4)))
    d = skeleton_depth(e, delta)
    br = hausdorff_bracket(e, e.refine(d), d)
    assert br.hi <= delta


def test_typicality_report_shape_and_frequencies():
    spec = SampleSpec(seed=42, n=1, b=3, depth=2, density=F(1, 5), trials=6)
    report = typicality_report(spec, [2, 3], 128)
    assert len(report.records) == 6
    for s, freq in report.witness_frequency:
        assert 0 <= freq <= 1
        witnessed = sum(
            1 for rec in report.records if dict(rec.outcomes)[s] == "witness"
        )
        assert freq == F(witnessed, 6)


def test_typicality_sparse_sets_always_witnessed():
    spec = SampleSpec(seed=7, n=1, b=3, depth=2, density=F(1, 9), trials=5)
    report = typicality_report(spec, [2], 256)
    assert dict(report.witness_frequency)[2] == 1


def test_typicality_full_square_unknown_recorded():
    spec = SampleSpec(seed=1, n=2, b=3, depth=0, density=F(1), trials=1)
    report = typicality_report(spec, [2], 16)
    assert dict(report.records[0].outcomes)[2] == "unknown"
    assert dict(report.witness_frequency)[2] == 0


def test_typicality_rejects_small_exponent():
    spec = SampleSpec(seed=1, n=1, b=3, depth=1, density=F(1, 2))
    with pytest.raises(ValueError):
        typicality_report(spec, [1], 8)


def test_typicality_outputs_deterministic(tmp_path):
    spec = SampleSpec(seed=13, n=1, b=3, depth=2, density=F(1, 4), trials=4)
    report = typicality_report(spec, [2, 4], 64)
    for name, writer in (("csv", write_typicality_csv), ("json", write_typicality_json)):
        a = tmp_path / f"a.{name}"
        b = tmp_path / f"b.{name}"
        writer(report, a)
        writer(typicality_report(spec, [2, 4], 64), b)
        assert a.read_bytes() == b.read_bytes()


def test_typicality_csv_row_per_trial(tmp_path):
    spec = SampleSpec(seed=13, n=1, b=3, depth=2, density=F(1, 4), trials=4)
    report = typicality_report(spec, [2], 64)
    path = tmp_path / "report.csv"
    write_typicality_csv(report, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + 4
    assert lines[0].split(",")[:3] == ["trial", "seed", "cells"]
