import itertools
import math
import random
import sys
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracles
from fraction_oracles import cell_box, dist_sq, sides, volume
from microset import geometry
from microset.baire import SampleSpec, sample_compact
from microset.geometry import Box, DigitalSet, HBracket, Point, covers_box, hausdorff_bracket

F = Fraction


def box1(lo, hi):
    return Box(((F(lo), F(hi)),))


def test_point_validation():
    Point((F(1, 2), F(1, 3)))
    with pytest.raises(ValueError):
        Point((F(3, 2),))
    with pytest.raises(ValueError):
        Point(())
    with pytest.raises(TypeError):
        Point((0.5,))


def test_box_validation():
    with pytest.raises(ValueError):
        Box(((F(1, 2), F(1, 3)),))
    assert sides(Box(((F(0), F(0)),))) == (0,)


def test_cube_side_witness():
    c = Box.cube((F(0), F(1, 3)), F(1, 3))
    assert c == Box(((F(0), F(1, 3)), (F(1, 3), F(2, 3))))
    assert sides(c) == (F(1, 3), F(1, 3))
    with pytest.raises(ValueError):
        Box.cube((F(0),), F(0))
    with pytest.raises(TypeError):
        Box.cube((0.25,), F(1, 4))


def test_volume_examples():
    assert volume(Box(((F(0), F(1)), (F(0), F(1))))) == 1
    assert volume(Box(((F(0), F(1, 3)), (F(0), F(1, 3))))) == F(1, 9)
    assert volume(Box(((F(0), F(0)), (F(0), F(1))))) == 0


# the distance oracle that the dust, refuter and cover tests measure with
def test_dist_sq_examples():
    assert dist_sq(box1(0, F(1, 2)), box1(F(1, 4), 1)) == 0
    assert dist_sq(box1(0, F(1, 3)), box1(F(2, 3), 1)) == F(1, 9)
    a = Box.cube((F(0), F(0)), F(1, 3))
    b = Box.cube((F(2, 3), F(2, 3)), F(1, 3))
    assert dist_sq(a, b) == F(2, 9)


def test_dist_sq_mixed_operands():
    p = Point((F(1, 2),))
    assert dist_sq(p, box1(0, F(1, 4))) == F(1, 16)
    e = DigitalSet(1, 3, 1, ((0,), (2,)))
    assert dist_sq(p, e) == F(1, 36)
    assert dist_sq(e, e) == 0
    with pytest.raises(ValueError):
        dist_sq(p, Point((F(0), F(0))))


boxes_1d = st.builds(
    lambda lo, w: box1(lo, lo + w),
    st.fractions(min_value=0, max_value=F(1, 2)),
    st.fractions(min_value=0, max_value=F(1, 2)),
)


@given(boxes_1d, boxes_1d)
def test_dist_sq_symmetry_and_zero_iff_touching(a, b):
    assert dist_sq(a, b) == dist_sq(b, a)
    (alo, ahi), (blo, bhi) = a.intervals[0], b.intervals[0]
    touches = max(alo, blo) <= min(ahi, bhi)
    assert (dist_sq(a, b) == 0) == touches


def test_covers_box_examples():
    t = box1(0, 1)
    assert covers_box(t, [t])
    assert covers_box(t, [box1(0, F(1, 2)), box1(F(1, 2), 1)])
    square = Box(((F(0), F(1)), (F(0), F(1))))
    corners = [
        Box.cube((x, y), F(1, 3))
        for x in (F(0), F(2, 3))
        for y in (F(0), F(2, 3))
    ]
    assert not covers_box(square, corners)
    assert covers_box(
        square,
        corners + [Box(((F(1, 4), F(3, 4)), (F(0), F(1)))), Box(((F(0), F(1)), (F(1, 4), F(3, 4))))],
    )


def test_covers_box_dimension_mismatch():
    with pytest.raises(ValueError):
        covers_box(box1(0, 1), [Box(((F(0), F(1)), (F(0), F(1))))])


def _raster_covered(target: Box, pieces: list[Box], steps: int = 24) -> bool:
    """Sampling oracle: probe a fine grid of points of the target."""
    axes = []
    for lo, hi in target.intervals:
        axes.append([lo + (hi - lo) * F(i, steps) for i in range(steps + 1)])
    for point in itertools.product(*axes):
        hit = any(
            all(plo <= x <= phi for x, (plo, phi) in zip(point, piece.intervals))
            for piece in pieces
        )
        if not hit:
            return False
    return True


small_fracs = st.integers(min_value=0, max_value=12).map(lambda i: F(i, 12))


@st.composite
def crossing_instances(draw):
    n = draw(st.integers(min_value=1, max_value=2))

    def draw_box():
        ivs = []
        for _ in range(n):
            a = draw(small_fracs)
            b = draw(small_fracs)
            ivs.append((min(a, b), max(a, b)))
        return Box(tuple(ivs))

    target = draw_box()
    pieces = [draw_box() for _ in range(draw(st.integers(min_value=0, max_value=4)))]
    return target, pieces


@given(crossing_instances())
def test_covers_box_matches_raster_oracle(instance):
    target, pieces = instance
    got = covers_box(target, pieces)
    # oracle grid step 1/12 divides every endpoint, so sampling is exact here
    assert got == _raster_covered(target, pieces, steps=24)


@st.composite
def framed_instances(draw):
    """A target and pieces as int (lo, hi) pairs on a grid of 7 bounds, n = 1..3.

    Most pieces are cells of a grid cut through the target, so they share
    bounds and tile it; a repeated cut gives a piece of zero width, and
    some pieces are stretched, dropped or drawn at random.
    """
    n = draw(st.integers(1, 3))
    bound = st.integers(0, 6)
    target = tuple(sorted((draw(bound), draw(bound))) for _ in range(n))
    axes = []
    for lo, hi in target:
        cuts = sorted([lo, hi, *draw(st.lists(st.integers(lo, hi), max_size=3))])
        axes.append(list(zip(cuts, cuts[1:])))
    pieces = [
        tuple((lo - draw(st.integers(0, 1)), hi + draw(st.integers(0, 1))) for lo, hi in cell)
        for cell in itertools.product(*axes)
        if draw(st.integers(0, 4))
    ]
    pieces += draw(st.lists(st.tuples(*[st.tuples(bound, bound).map(sorted).map(tuple)] * n), max_size=3))
    return target, draw(st.permutations(pieces))


@settings(max_examples=300)
@given(framed_instances())
def test_integer_core_matches_the_fraction_oracle(instance):
    target, pieces = instance
    as_fractions = [tuple((F(lo, 6), F(hi, 6)) for lo, hi in box) for box in (target, *pieces)]
    assert geometry._covers(target, pieces) == fraction_oracles.covers_box(as_fractions[0], as_fractions[1:])


def test_covers_box_thin_cover_needs_no_call_stack():
    # 300 intervals left to right split the cell 300 times in a row; a
    # recursive split would need 300 frames, more than the lowered limit
    cell = cell_box(DigitalSet(1, 3, 2, ((4,),)), (4,))
    step = F(1, 9 * 300)
    pieces = [box1(F(4, 9) + i * step, F(4, 9) + (i + 1) * step) for i in range(300)]
    gapped = pieces[:150] + pieces[151:]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        verdicts = covers_box(cell, pieces), covers_box(cell, gapped)
    finally:
        sys.setrecursionlimit(limit)
    assert verdicts == (True, False)
    # the oracle's grid halves the step, so every gap holds a probe point
    assert verdicts == (
        _raster_covered(cell, pieces, steps=600),
        _raster_covered(cell, gapped, steps=600),
    )


def test_covers_box_thin_cover_splits_in_n_log_n(monkeypatch):
    # splitting at the first crossing peels one boundary per split, which
    # costs about N**2 / 2 piece tests here; the median split stays within a
    # small multiple of N log2 N.  A split sub-box's live pieces are scanned
    # by its crossing and by its halves' filters, so their summed lengths
    # count its piece tests.
    n_pieces = 1200
    cell = cell_box(DigitalSet(1, 3, 2, ((4,),)), (4,))
    step = F(1, 9 * n_pieces)
    pieces = [box1(F(4, 9) + i * step, F(4, 9) + (i + 1) * step) for i in range(n_pieces)]
    gapped = pieces[: n_pieces // 2] + pieces[n_pieces // 2 + 1 :]
    tests = 0
    crossing = geometry._crossing

    def counting(live, lo, hi):
        nonlocal tests
        tests += len(live)
        return crossing(live, lo, hi)

    monkeypatch.setattr(geometry, "_crossing", counting)
    bound = 4 * n_pieces * math.log2(n_pieces)
    for cover, verdict in ((pieces, True), (gapped, False)):
        tests = 0
        assert covers_box(cell, cover) is verdict
        assert 0 < tests < bound


def test_hausdorff_bracket_identity():
    e = DigitalSet(1, 3, 2, ((0,), (5,)))
    br = hausdorff_bracket(e, e, 4)
    assert br.lo == 0
    assert br.hi <= br.width_cap


def test_hausdorff_bracket_hand_pair():
    a = DigitalSet(1, 3, 2, ((0,),))
    b = DigitalSet(1, 3, 2, ((8,),))
    br = hausdorff_bracket(a, b, 6)
    assert br.lo <= F(8, 9) <= br.hi
    assert br.hi - br.lo <= br.width_cap


def test_hausdorff_bracket_rejects_mismatch():
    a = DigitalSet(1, 3, 1, ((0,),))
    b = DigitalSet(2, 3, 1, ((0, 0),))
    with pytest.raises(ValueError):
        hausdorff_bracket(a, b, 2)
    c = DigitalSet(1, 2, 1, ((0,),))
    with pytest.raises(ValueError):
        hausdorff_bracket(a, c, 2)
    with pytest.raises(ValueError):
        hausdorff_bracket(a, a, 0)


digital_sets = st.builds(
    lambda cells: DigitalSet(1, 3, 2, tuple((c,) for c in sorted(set(cells)))),
    st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=5),
)


@given(digital_sets, digital_sets, st.integers(min_value=2, max_value=5))
def test_hausdorff_bracket_orders(a, b, depth):
    br = hausdorff_bracket(a, b, depth)
    assert 0 <= br.lo <= br.hi
    assert br.hi - br.lo <= br.width_cap


@given(digital_sets, digital_sets, digital_sets)
def test_hausdorff_bracket_triangle_up_to_widths(a, b, c):
    ab = hausdorff_bracket(a, b, 4)
    bc = hausdorff_bracket(b, c, 4)
    ac = hausdorff_bracket(a, c, 4)
    assert ac.lo <= ab.hi + bc.hi


def test_bracket_exactly_at_its_width_cap_is_accepted():
    cap = hausdorff_bracket(DigitalSet(2, 3, 1, ((0, 0),)), DigitalSet(2, 3, 1, ((2, 2),)), 2).width_cap
    assert HBracket(F(1, 6), F(1, 6) + cap, 2, cap).hi == F(1, 6) + cap
    with pytest.raises(ValueError, match="wider than its certified cap"):
        HBracket(F(1, 6), F(1, 6) + cap + F(1, 10**30), 2, cap)


class _PairCounter:
    """Stands in for the scan's per-cell gap past the second axis, counting the cells it tests."""

    def __init__(self):
        self.calls = 0
        self.gap_sq = geometry._cell_gap_sq

    def __call__(self, *args):
        self.calls += 1
        return self.gap_sq(*args)


def _all_pairs_directed(cells_a, cells_b, f, far):
    """The all-pairs scan: every A-cell center against every B-cell of doubled width f."""
    worst = 0
    for ca in cells_a:
        best = min(
            sum(max(f * jb - 2 * ja - 1, 2 * ja + 1 - f * (jb + 1), 0) ** 2 for ja, jb in zip(ca, cb))
            for cb in cells_b
        )
        worst = max(worst, best)
    return worst


@st.composite
def scan_pairs(draw):
    """Two digital sets on one grid, in shapes that stress the sorted scan."""
    n = draw(st.integers(min_value=1, max_value=3))
    b = draw(st.integers(min_value=2, max_value=3))
    m = draw(st.integers(min_value=0, max_value=3))
    top = b**m
    shape = draw(st.sampled_from(["uniform", "subset", "equal", "single", "ends", "column"]))
    column = draw(st.integers(min_value=0, max_value=top - 1))
    half = max(1, top // 2)
    anywhere = st.integers(min_value=0, max_value=top - 1)

    def cells(first, size):
        cell = st.tuples(first, *[anywhere] * (n - 1))
        return tuple(draw(st.lists(cell, min_size=1, max_size=size)))

    if shape == "ends":
        # clusters at opposite ends of the first axis
        a = cells(st.integers(min_value=0, max_value=half - 1), 8)
        c = cells(st.integers(min_value=top - half, max_value=top - 1), 8)
    elif shape == "column":
        # one first-axis column, so the first-axis cut never fires
        a = cells(st.just(column), 8)
        c = cells(st.just(column), 8)
    else:
        size = 1 if shape == "single" else 8
        a = cells(anywhere, size)
        c = cells(anywhere, size)
        if shape == "subset":
            a = tuple(draw(st.lists(st.sampled_from(c), min_size=1, max_size=len(c))))
        elif shape == "equal":
            a = c
    depth = m + draw(st.integers(min_value=0, max_value=2))
    return DigitalSet(n, b, m, a), DigitalSet(n, b, m, c), depth


@settings(max_examples=150)
@given(scan_pairs())
def test_sorted_scan_matches_the_all_pairs_oracle(pair):
    a, b, depth = pair
    pairs = _PairCounter()
    with mock.patch.object(geometry, "_cell_gap_sq", pairs):
        got = hausdorff_bracket(a, b, depth)
        # no refined center meets an unrefined far cell twice
        assert pairs.calls <= len(a.refine(depth).cells) * len(b.cells) + len(b.refine(depth).cells) * len(a.cells)
    with mock.patch.object(geometry, "_directed_max_min_dist_sq", _all_pairs_directed):
        assert got == hausdorff_bracket(a, b, depth)
    # refining the far side as well, as the bracket once did, gives the same value
    assert got == hausdorff_bracket(a.refine(depth), b.refine(depth), depth)


def test_sorted_scan_stops_a_cell_at_a_tie(monkeypatch):
    # A-cell (0, 0) finds distance 9 at (0, 2); column 2 is then cut by its
    # first-axis gap, 9, alone.  A-cell (5, 0) meets 9 at (5, 2) first, which
    # cannot raise the maximum, so (6, 2) is never tested
    cells_a = ((0, 0), (5, 0))
    cells_b = ((0, 2), (2, 1), (5, 2), (6, 2))
    pairs = _PairCounter()
    monkeypatch.setattr(geometry, "_cell_gap_sq", pairs)
    far = 2 * 18**2
    assert geometry._directed_max_min_dist_sq(cells_a, cells_b, 2, far) == 9
    assert pairs.calls == 2
    assert _all_pairs_directed(cells_a, cells_b, 2, far) == 9


def test_sorted_scan_tests_few_pairs(monkeypatch):
    # the all-pairs scans tested 800 * 900 pairs each way
    rng = random.Random(7)

    def sample(count, lo, hi):
        cells = set()
        while len(cells) < count:
            cells.add((rng.randrange(lo, hi), rng.randrange(81)))
        return DigitalSet(2, 3, 4, tuple(cells))

    pairs = _PairCounter()
    monkeypatch.setattr(geometry, "_cell_gap_sq", pairs)
    hausdorff_bracket(sample(800, 0, 81), sample(900, 0, 81), 4)
    assert pairs.calls <= 2_800  # 1,440,000 all pairs; 14,361 by the lexicographic scan


def test_far_side_is_scanned_unrefined(monkeypatch):
    # two plane sets of 77 and 68 cells at depth 3, bracketed at depth 6: the
    # refined centers meet the far set's own cells, 27**2 times fewer than its
    # refined ones
    a, b = (sample_compact(SampleSpec(seed=s, n=2, b=3, depth=3, density=F(1, 10))) for s in (1, 2))
    assert (len(a.cells), len(b.cells)) == (77, 68)
    pairs = _PairCounter()
    monkeypatch.setattr(geometry, "_cell_gap_sq", pairs)
    br = hausdorff_bracket(a, b, 6)
    assert pairs.calls <= 177_190
    assert br.lo == F(269, 1458)


def test_digitalset_refine_preserves_union():
    e = DigitalSet(1, 3, 1, ((0,), (2,)))
    fine = e.refine(3)
    assert fine.m == 3
    assert len(fine.cells) == 2 * 9
    br = hausdorff_bracket(e, fine, 3)
    assert br.lo == 0
    with pytest.raises(ValueError, match="refinement depth"):
        fine.refine(2)


def test_digitalset_validation():
    with pytest.raises(ValueError):
        DigitalSet(1, 3, 1, ())
    with pytest.raises(ValueError):
        DigitalSet(1, 3, 1, ((3,),))
    with pytest.raises(ValueError):
        DigitalSet(2, 3, 1, ((0,),))
    with pytest.raises(ValueError, match="depth"):
        DigitalSet(1, 3, -1, ((0,),))
    # canonicalizes order and duplicates
    e = DigitalSet(1, 3, 1, ((2,), (0,), (2,)))
    assert e.cells == ((0,), (2,))


@given(st.integers(2, 40), st.integers(0, 30), st.integers(0, 2**200))
def test_cell_bound_by_bit_lengths_matches_the_power(b, m, x):
    x %= 2 * b**m + 1
    assert geometry._below_power(x, b, m) == (x < b**m)
    for edge in (b**m - 1, b**m):
        assert geometry._below_power(edge, b, m) == (edge < b**m)


def test_huge_depth_is_bounded_without_forming_the_power():
    # b**m has 1.6e8 bits here and took minutes to form; the bit lengths decide at once
    started = time.monotonic()
    e = DigitalSet(2, 3, 10**8, ((0, 0), (2**64, 5)))
    assert e.m == 10**8
    with pytest.raises(ValueError, match="out of range"):
        DigitalSet(1, 3, 10**8, ((1 << 2 * 10**8,),))
    assert time.monotonic() - started < 1
