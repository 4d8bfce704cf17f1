import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microset import baire, serialize
from microset.baire import (
    SampleSpec,
    SplitMix64,
    finite_skeleton,
    sample_compact,
    skeleton_depth,
)
from microset.geometry import DigitalSet, Point, hausdorff_bracket

F = Fraction
GOLDEN = Path(__file__).parent / "golden" / "sample_n2_b3_d3_p10_seed42.json"


def _scalar_sample(spec: SampleSpec) -> DigitalSet:
    """The sampler as one scalar SplitMix64 draw per cell, in lexicographic order."""
    rng = SplitMix64(spec.seed)
    den = spec.density.denominator
    limit = spec.density.numerator << 64
    kept = tuple(
        cell
        for cell in itertools.product(range(spec.b**spec.depth), repeat=spec.n)
        if rng.next() * den < limit
    )
    return DigitalSet(spec.n, spec.b, spec.depth, kept or ((0,) * spec.n,))


@st.composite
def sample_specs(draw):
    """A spec of at most 4,096 cells, with the module's block size or one that ends the
    cells one past, at or before a block boundary, or one past two blocks."""
    n = draw(st.integers(min_value=1, max_value=3))
    b = draw(st.integers(min_value=2, max_value=5))
    depth = draw(st.integers(min_value=0, max_value=max(d for d in range(13) if b ** (d * n) <= 4096)))
    seed = draw(st.sampled_from([0, -1, 2**64 - 1, 2**64, 2**64 + 12345, -(2**70) + 3]) | st.integers())
    density = draw(
        st.sampled_from([F(1), F(999, 1000), F(1, 10**18)])
        | st.fractions(min_value=F(1, 10**6), max_value=1).filter(lambda d: d > 0)
    )
    count = (b**depth) ** n
    block = draw(st.sampled_from([baire._BLOCK, max(1, count - 1), count, count + 1, max(1, (count - 1) // 2)]))
    return SampleSpec(seed=seed, n=n, b=b, depth=depth, density=density), block


@settings(max_examples=300)
@given(sample_specs())
def test_packed_kernel_matches_the_scalar_draws(case):
    spec, block = case
    with mock.patch.object(baire, "_BLOCK", block):
        assert sample_compact(spec) == _scalar_sample(spec)


@pytest.mark.parametrize("n, b, depth", [(1, 2, 11), (1, 2, 12), (1, 3, 7), (2, 2, 6), (2, 5, 3)])
def test_packed_kernel_across_its_own_blocks(n, b, depth):
    # 2,048 and 4,096 cells end on a block boundary; 2,187 and 15,625 run past one
    for seed, density in [(0, F(1, 2)), (-1, F(999, 1000)), (2**64 + 7, F(1, 10**18)), (5, F(1))]:
        spec = SampleSpec(seed=seed, n=n, b=b, depth=depth, density=density)
        assert sample_compact(spec) == _scalar_sample(spec)


def test_packed_kernel_keeps_a_draw_exactly_below_its_threshold():
    # cell (1,) takes the second draw u: kept iff u * den < num * 2**64, so
    # a threshold of u/2**64 drops it and one of (u + 1/2)/2**64 keeps it
    rng = SplitMix64(11)
    rng.next()
    u = rng.next()
    for density, kept in [(F(u, 2**64), False), (F(2 * u + 1, 2**65), True), (F(u + 1, 2**64), True)]:
        spec = SampleSpec(seed=11, n=1, b=2, depth=1, density=density)
        assert ((1,) in sample_compact(spec).cells) is kept
        assert sample_compact(spec) == _scalar_sample(spec)


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
    for n, b, depth in ((0, 3, 1), (1, 1, 1), (1, 3, -1)):
        with pytest.raises(ValueError, match="bad sample dimensions"):
            SampleSpec(seed=1, n=n, b=b, depth=depth, density=F(1, 2))


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

