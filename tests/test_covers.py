import itertools
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracles
from microset import ball, cells, covers, serialize
from microset.baire import SampleSpec, sample_compact
from microset.ball import BallSpec, ball_membership, ball_stability_radius
from microset.cells import Box, CoverSeq, DigitalSet, Point, _frame, _on_frame, _window
from microset.covers import CoverReport, GreedyFailure, greedy_strong_cover, merge_covers, verify_cover
from microset.rational import root_lower, root_upper

F = Fraction


def box1(lo, hi):
    return Box(((F(lo), F(hi)),))


def cover1(eps, *pieces, strong=False):
    return CoverSeq(n=1, eps=F(eps), strong=strong, pieces=tuple(pieces))


TWO_CELLS = DigitalSet(1, 3, 1, ((0,), (2,)))


def test_coverseq_rejects_bad_eps():
    with pytest.raises(ValueError):
        cover1(1, box1(0, 1))
    with pytest.raises(ValueError):
        cover1(0, box1(0, 1))
    with pytest.raises(ValueError, match="dimension"):
        CoverSeq(n=0, eps=F(1, 2), strong=False, pieces=())


def test_coverseq_strong_requires_cubes():
    rect = Box(((F(0), F(1, 2)), (F(0), F(1, 4))))
    with pytest.raises(ValueError):
        CoverSeq(n=2, eps=F(1, 2), strong=True, pieces=(rect,))
    # any 1-d box is a cube, so the strong flag accepts it
    CoverSeq(n=1, eps=F(1, 2), strong=True, pieces=(box1(0, F(1, 2)),))


def test_a_cover_is_put_on_its_frame_once(monkeypatch):
    calls = []
    monkeypatch.setattr(cells, "_frame", lambda *args: calls.append(args) or _frame(*args))
    thirds = tuple(box1(F(j, 3), F(j + 1, 3)) for j in range(3))
    for strong in (False, True):
        cover = CoverSeq(n=1, eps=F(1, 2), strong=strong, pieces=thirds)
        assert cover.first_budget_violation() == 2
        # the set's grid is finer than the cover's frame, so the pieces are rescaled
        e = DigitalSet(1, 3, 2, ((0,), (8,)))
        assert verify_cover(e, cover) == CoverReport((2, "budget"), None)
        assert verify_cover(e, CoverSeq(n=1, eps=F(1, 2), strong=strong, pieces=thirds[:2])).uncovered_witness == (8,)
    assert len(calls) == 4
    # the derived frame is not a field
    assert cover == CoverSeq(1, F(1, 2), True, thirds) and "_framed" not in repr(cover)


def test_covers_and_balls_load_equal_to_what_was_saved():
    # a cube is a Box with equal sides, so a loaded piece equals the saved one
    square = Box(((F(0), F(1, 2)), (F(1, 4), F(3, 4))))
    docs = (
        CoverSeq(n=1, eps=F(1, 2), strong=False, pieces=(box1(0, F(1, 2)), box1(F(1, 2), 1))),
        CoverSeq(n=2, eps=F(1, 2), strong=False, pieces=(square, Box.cube((F(0), F(0)), 1))),
        BallSpec(n=1, boxes=(box1(F(1, 4), F(3, 4)),)),
        BallSpec(n=2, boxes=(square, Box(((F(0), F(1)), (F(0), F(1, 3)))))),
    )
    for doc in docs:
        assert serialize.from_json(serialize.to_json(doc)) == doc


def test_verify_budget_violation_at_first_position():
    e = DigitalSet(1, 3, 0, ((0,),))
    report = verify_cover(e, cover1(F(1, 2), box1(0, 1)))
    assert not report.budget_ok
    assert report.first_violation == (1, "budget")
    assert report.coverage_ok
    assert not report.ok


def test_verify_budget_violation_at_second_position():
    report = verify_cover(TWO_CELLS, cover1(F(1, 2), box1(0, F(1, 3)), box1(F(2, 3), 1)))
    assert not report.budget_ok
    assert report.first_violation == (2, "budget")
    assert report.coverage_ok


def test_verify_coverage_gap_is_caught():
    # budgets hold (1/2 <= 1/2, 1/4 <= 1/4) but (11/12, 1] stays uncovered
    report = verify_cover(TWO_CELLS, cover1(F(1, 2), box1(0, F(1, 2)), box1(F(2, 3), F(11, 12))))
    assert report.budget_ok
    assert not report.coverage_ok
    assert report.uncovered_witness == (2,)


def test_verify_fully_passing_cover():
    report = verify_cover(
        TWO_CELLS,
        cover1(F(1, 2), box1(0, F(1, 2)), box1(F(2, 3), F(11, 12)), box1(F(7, 8), 1)),
    )
    assert report.ok
    assert report.first_violation is None
    assert report.uncovered_witness is None


def test_verify_dimension_mismatch():
    with pytest.raises(ValueError):
        verify_cover(DigitalSet(2, 3, 1, ((0, 0),)), cover1(F(1, 2), box1(0, 1)))


def _verify_cover_oracle(e: DigitalSet, cover: CoverSeq) -> CoverReport:
    """Brute force in Fractions: every cell against the whole cover."""
    k, witness = fraction_oracles.verify(e, cover)
    return CoverReport(
        first_violation=None if k is None else (k, "budget"),
        uncovered_witness=witness,
    )


@st.composite
def claimed_covers(draw):
    """Small sets with claimed covers that stress the touching windows.

    Endpoints come from the cell grid (face and corner contacts), a grid of
    half cells and sevenths (off-grid), and reach half a unit outside
    [0, 1]; non-strong covers may hold zero-width intervals.  Every cell
    but at most one also gets pieces of its own, whole or split, so that
    coverage often holds and otherwise fails at a chosen cell.
    """
    n = draw(st.integers(min_value=1, max_value=2))
    b = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(min_value=1, max_value=2))
    top = b**m
    cells = draw(
        st.lists(st.tuples(*[st.integers(0, top - 1)] * n), min_size=1, max_size=6)
    )
    e = DigitalSet(n, b, m, tuple(cells))
    strong = draw(st.booleans())
    den = draw(st.sampled_from([top, 2 * top, 7]))
    coord = st.integers(-den // 2, den + den // 2).map(lambda i: F(i, den))
    pieces = []
    for _ in range(draw(st.integers(0, 6))):
        lo = [draw(coord) for _ in range(n)]
        if strong:
            side = F(draw(st.integers(1, den)), den)
            pieces.append(Box.cube(lo, side))
        else:
            pieces.append(Box(tuple(sorted((a, draw(coord))) for a in lo)))
    bare = draw(st.one_of(st.none(), st.sampled_from(e.cells)))
    half = e.cell_side / 2
    for cell in e.cells:
        box = fraction_oracles.cell_box(e, cell)
        lo = [a for a, _ in box.intervals]
        if cell == bare:
            continue
        if not draw(st.booleans()):
            pieces.append(Box.cube(lo, e.cell_side))
        elif strong:
            for bits in itertools.product((0, 1), repeat=n):
                pieces.append(Box.cube([a + t * half for a, t in zip(lo, bits)], half))
        else:
            axis = draw(st.integers(0, n - 1))
            a, z = box.intervals[axis]
            mid = a + (z - a) * F(draw(st.integers(0, 4)), 4)
            for part in ((a, mid), (mid, z)):
                pieces.append(Box(box.intervals[:axis] + (part,) + box.intervals[axis + 1 :]))
    order = draw(st.permutations(pieces))
    eps = F(draw(st.integers(1, 9)), 10)
    return e, CoverSeq(n=n, eps=eps, strong=strong, pieces=tuple(order))


@given(claimed_covers())
def test_verify_cover_matches_all_pieces_oracle(instance):
    e, cover = instance
    assert verify_cover(e, cover) == _verify_cover_oracle(e, cover)


@given(
    st.tuples(st.integers(-10, 20), st.integers(-10, 20)).map(sorted),
    st.sampled_from([1, 2, 3, 7]),
    st.integers(-2, 10),
)
def test_cell_windows_match_fraction_tests(ends, den, j):
    lo, hi = F(ends[0], den), F(ends[1], den)
    piece, scale = box1(lo, hi), 9
    cell_lo, cell_hi = F(j, scale), F(j + 1, scale)
    # the integer window on the piece's frame is the Fraction one, and both hold what they claim
    frame = _frame([piece], scale)
    touch, inside = (_window(_on_frame(piece, frame), frame // scale, slack) for slack in (1, 0))
    assert touch == fraction_oracles.cell_window(piece, scale, 1)
    assert inside == fraction_oracles.cell_window(piece, scale, 0)
    ((ta, tz),), ((ca, cz),) = touch, inside
    assert (ta <= j <= tz) == (lo <= cell_hi and cell_lo <= hi)
    assert (ca <= j <= cz) == (lo <= cell_lo and cell_hi <= hi)


@st.composite
def verified_covers(draw):
    """Random small sets with covers that pass verify_cover."""
    cells = draw(st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=4))
    e = DigitalSet(1, 3, 2, tuple((c,) for c in sorted(set(cells))))
    # eps**4 >= 1/9 keeps every position's budget at least one cell wide,
    # so the greedy always terminates with a verified cover here
    eps = draw(st.sampled_from([F(3, 5), F(2, 3)]))
    out = greedy_strong_cover(e, eps)
    if isinstance(out, GreedyFailure):
        raise AssertionError("greedy failed on an easy sparse instance")
    return e, out


@given(verified_covers())
def test_volume_sum_bound_on_verified_covers(pair):
    e, cover = pair
    assert verify_cover(e, cover).ok
    total = sum(fraction_oracles.volume(p) for p in cover.pieces)
    assert total <= cover.eps / (1 - cover.eps)


@given(verified_covers(), st.data())
def test_subset_monotonicity(pair, data):
    e, cover = pair
    subset = data.draw(
        st.lists(st.sampled_from(list(e.cells)), min_size=1, max_size=len(e.cells))
    )
    e_sub = DigitalSet(e.n, e.b, e.m, tuple(sorted(set(subset))))
    assert verify_cover(e_sub, cover).ok


def test_greedy_single_cell():
    e = DigitalSet(1, 3, 2, ((4,),))
    out = greedy_strong_cover(e, F(1, 2))
    assert isinstance(out, CoverSeq)
    assert len(out.pieces) == 1
    assert verify_cover(e, out).ok


def test_greedy_isolated_cells_n2():
    cells = tuple((3 * i % 81, (7 * i + 2) % 81) for i in range(10))
    e = DigitalSet(2, 3, 4, tuple(sorted(set(cells))))
    out = greedy_strong_cover(e, F(1, 2))
    assert isinstance(out, CoverSeq)
    assert len(out.pieces) <= 10
    assert verify_cover(e, out).ok


def test_greedy_budget_infeasible_segment():
    seg = DigitalSet(2, 3, 6, tuple((j, 0) for j in range(729)))
    out = greedy_strong_cover(seg, F(1, 100))
    assert isinstance(out, GreedyFailure)
    assert out.reason == "budget-infeasible"


def test_greedy_unknown_on_full_square():
    e = DigitalSet(2, 3, 0, ((0, 0),))
    out = greedy_strong_cover(e, F(1, 4))
    assert isinstance(out, GreedyFailure)
    assert out.reason == "stalled"


def test_greedy_rejects_bad_eps():
    e = DigitalSet(1, 3, 1, ((0,),))
    with pytest.raises(ValueError):
        greedy_strong_cover(e, F(3, 2))


@settings(max_examples=60)
@given(
    st.integers(1, 3),
    st.integers(2, 3),
    st.integers(0, 6),
    st.sampled_from([F(1), F(1, 2), F(1, 10), F(1, 100)]),
    st.integers(0, 2**32),
    st.sampled_from([F(1, 100), F(1, 4), F(1, 2), F(9, 10), F(999, 1000)]),
)
def test_greedy_ends_within_one_position_per_cell(n, b, depth, density, seed, eps):
    # each position holds its target cell, so the search needs no cap
    e = sample_compact(SampleSpec(seed=seed, n=n, b=b, depth=min(depth, 6 // n), density=density))
    out = greedy_strong_cover(e, eps)
    if isinstance(out, CoverSeq):
        assert len(out.pieces) <= len(e.cells)
    else:
        # positions 1 .. position-1 each covered at least one new cell
        assert 1 <= out.uncovered <= len(e.cells) - (out.position - 1)
        assert out.position <= len(e.cells)


@pytest.mark.parametrize("n", [2, 3])
def test_side_budget_sum_near_one_derives_its_grid(n):
    # on the default grid eps**(1/n) rounds up to 1; the derived grid keeps r < 1
    eps = 1 - F(1, 10**13)
    assert root_upper(eps, n) == 1
    total = covers._series_upper(eps, n)
    assert total > 0
    assert total >= sum(root_lower(eps**k, n) for k in range(1, 301))


def test_side_budget_sum_exact_values():
    # sum_k eps**(k/n); a greedy search whose set projects wider is infeasible
    assert covers._series_upper(F(1, 2), 1) >= 1
    assert covers._series_upper(F(1, 100), 2) == F(1, 9)
    assert covers._series_upper(F(81, 100), 2) == 9


@given(
    st.sampled_from([F(1, 100), F(1, 10), F(1, 2), F(81, 100)]),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=1, max_value=30),
)
def test_side_budget_sum_monotone_in_terms(eps, n, terms):
    # the library bound is the oracle's with no prefix, and a longer prefix only tightens it
    assert covers._series_upper(eps, n) == fraction_oracles.series_upper(eps, 1, n, 0)
    a = fraction_oracles.series_upper(eps, 1, n, terms)
    b = fraction_oracles.series_upper(eps, 1, n, terms + 1)
    assert b <= a <= covers._series_upper(eps, n)
    # always an upper bound for the true partial sum it encloses
    partial_lower = sum(root_lower(eps**k, n) for k in range(1, terms + 1))
    assert a >= partial_lower


def test_merge_identity_reindexing():
    e = DigitalSet(1, 3, 2, ((0,),))
    c = greedy_strong_cover(e, F(1, 4))
    merged = merge_covers([c], F(1, 4))
    assert merged.pieces == c.pieces
    assert verify_cover(e, merged).ok


def test_merge_two_single_piece_covers():
    eps = F(1, 2)
    a = cover1(F(1, 4), box1(0, F(1, 4)))
    b = cover1(F(1, 4), box1(F(3, 4), 1))
    merged = merge_covers([a, b], eps)
    assert len(merged.pieces) == 2
    assert fraction_oracles.volume(merged.pieces[0]) <= eps
    assert fraction_oracles.volume(merged.pieces[1]) <= eps**2


def test_merge_three_cell_union():
    eps = F(1, 2)
    cells = [(0,), (13,), (26,)]
    parts = [DigitalSet(1, 3, 3, (c,)) for c in cells]
    covers = [greedy_strong_cover(p, eps**3) for p in parts]
    assert all(isinstance(c, CoverSeq) for c in covers)
    merged = merge_covers(covers, eps)
    union = DigitalSet(1, 3, 3, tuple(cells))
    assert verify_cover(union, merged).ok


def test_merge_rejects_weak_budget_input():
    # piece meets eps but not eps**2, so it cannot take a merged slot
    a = cover1(F(1, 2), box1(0, F(1, 2)))
    b = cover1(F(1, 2), box1(F(3, 4), 1))
    with pytest.raises(ValueError):
        merge_covers([a, b], F(1, 2))


def test_merge_rejects_mixed_dimension():
    a = cover1(F(1, 4), box1(0, F(1, 4)))
    b = CoverSeq(n=2, eps=F(1, 4), strong=False, pieces=(Box(((F(0), F(1, 4)), (F(0), F(1, 4)))),))
    with pytest.raises(ValueError):
        merge_covers([a, b], F(1, 2))
    strong = cover1(F(1, 4), box1(F(3, 4), 1), strong=True)
    for inputs, eps, message in (([a, strong], F(1, 2), "non-strong"), ([], F(1, 2), "at least one"),
                                 ([a], F(1), "strictly between"), ([a], F(0), "strictly between")):
        with pytest.raises(ValueError, match=message):
            merge_covers(inputs, eps)


def test_cover_measure_upper_exact_values():
    # sum_k eps**(alpha*k/n), which bounds sum_k (diam piece_k)**alpha of a
    # strong cover up to the factor n**(alpha/2)
    assert covers._series_upper(F(1, 4), 1) == F(1, 3)
    assert fraction_oracles.series_upper(F(1, 16), 2, 2, 50) == F(1, 15)


def test_cover_measure_upper_monotone_in_terms():
    vals = [fraction_oracles.series_upper(F(1, 4), 1, 2, t) for t in (5, 10, 20)]
    assert vals[0] >= vals[1] >= vals[2] > 0


def test_strong_cover_witness_small_sets():
    e = DigitalSet(1, 3, 2, ((4,),))
    w = greedy_strong_cover(e, F(1, 2))
    assert isinstance(w, CoverSeq)
    assert verify_cover(e, w).ok
    with pytest.raises(ValueError):
        greedy_strong_cover(e, F(1))


def test_strong_cover_witness_ten_points_s10():
    # depth 11 so the position-10 budget side (1/10)**5 still exceeds a cell
    grid = 3**11
    cells = tuple(sorted({(17001 * i % grid, 11003 * i % grid) for i in range(10)}))
    e = DigitalSet(2, 3, 11, cells)
    w = greedy_strong_cover(e, F(1, 10))
    assert isinstance(w, CoverSeq)
    assert verify_cover(e, w).ok


def test_strong_cover_witness_unknown_on_full_square():
    e = DigitalSet(2, 3, 0, ((0, 0),))
    assert isinstance(greedy_strong_cover(e, F(1, 2)), GreedyFailure)


def test_ball_membership_examples():
    k = DigitalSet(1, 3, 1, ((1,),))
    assert ball_membership(k, BallSpec(n=1, boxes=(box1(F(1, 4), F(3, 4)),)))
    # closed cell touching the open boundary fails containment
    assert not ball_membership(k, BallSpec(n=1, boxes=(box1(F(1, 3), F(3, 4)),)))
    two = BallSpec(n=1, boxes=(box1(F(-1, 10), F(1, 2)), box1(F(1, 2), F(11, 10))))
    assert ball_membership(TWO_CELLS, two)
    # the point 1/2 where two open boxes abut lies in the cell but in neither box
    abutting = BallSpec(n=1, boxes=(box1(F(1, 4), F(1, 2)), box1(F(1, 2), F(3, 4))))
    assert not ball_membership(k, abutting)
    # a box listed twice gets the verdict it gets listed once
    assert ball_membership(TWO_CELLS, BallSpec(n=1, boxes=two.boxes + two.boxes[:1]))
    assert not ball_membership(k, BallSpec(n=1, boxes=abutting.boxes[:1] * 2))


def test_ball_membership_requires_meeting_every_box():
    k = DigitalSet(1, 3, 1, ((0,),))
    ball = BallSpec(n=1, boxes=(box1(F(-1, 10), F(1, 2)), box1(F(9, 10), F(11, 10))))
    assert not ball_membership(k, ball)
    # an open box touching the cell [0, 1/3] only at 1/3 does not meet it
    ball = BallSpec(n=1, boxes=(box1(F(-1, 10), F(1, 2)), box1(F(1, 3), F(11, 10))))
    assert not ball_membership(k, ball)


def test_ballspec_validation():
    with pytest.raises(ValueError):
        BallSpec(n=1, boxes=())
    with pytest.raises(ValueError):
        BallSpec(n=1, boxes=(box1(F(-1, 2), F(0)),))


def test_stability_radius_interval_example():
    k = DigitalSet(1, 3, 3, ((13,),))
    ball = BallSpec(n=1, boxes=(box1(F(2, 5), F(3, 5)),))
    r = ball_stability_radius(k, ball, [Point((F(1, 2),))])
    assert r == F(11, 135)


def test_stability_radius_vertex_witness_uses_min_side():
    # witness at the cube vertex 0: radius term is the clipped box side
    k = DigitalSet(1, 3, 2, ((0,), (4,)))
    ball = BallSpec(n=1, boxes=(box1(F(-1, 5), F(1, 5)), box1(F(2, 5), F(3, 5))))
    assert ball_membership(k, ball)
    r = ball_stability_radius(k, ball, [Point((F(0),)), Point((F(1, 2),))])
    # cell 4 lies 2/45 inside its box, nearer than the witness bound 1/10
    assert r == F(2, 45)


def test_stability_radius_full_cover_branch():
    k = DigitalSet(1, 3, 1, ((1,),))
    ball = BallSpec(n=1, boxes=(box1(F(-1, 10), F(11, 10)),))
    r = ball_stability_radius(k, ball, [Point((F(1, 2),))])
    # the box spills past both cube faces: no complement, no witness gap
    # terms, so only the whole-cube term 1 binds
    assert r == 1


def test_stability_radius_rejects_bad_witnesses():
    k = DigitalSet(1, 3, 3, ((13,),))
    ball = BallSpec(n=1, boxes=(box1(F(2, 5), F(3, 5)),))
    with pytest.raises(ValueError):
        ball_stability_radius(k, ball, [Point((F(9, 10),))])
    with pytest.raises(ValueError):
        ball_stability_radius(k, ball, [])
    # inside the box but outside the closed cell [13/27, 14/27]
    with pytest.raises(ValueError, match="in the set"):
        ball_stability_radius(k, ball, [Point((F(9, 20),))])
    assert ball_stability_radius(k, ball, [Point((F(13, 27),))]) == F(11, 135)
    with pytest.raises(ValueError, match="witness dimension"):
        ball_stability_radius(k, ball, [Point((F(13, 27), F(1, 2)))])
    plane = DigitalSet(2, 3, 3, ((13, 13),))
    with pytest.raises(ValueError, match="^dimension mismatch"):
        ball_stability_radius(plane, ball, [Point((F(13, 27),))])
    with pytest.raises(ValueError, match="^dimension mismatch"):
        ball_membership(plane, ball)


def test_stability_radius_of_a_notch_finer_than_the_default_grid():
    # the complement is the quadrant x, y >= 1/3 + d, at distance d*sqrt(2)
    # from the cell [0, 1/3]**2; d*d*2 has a denominator above 10**12
    k = DigitalSet(2, 3, 1, ((0, 0),))
    d = F(1, 10**13)
    ball = BallSpec(
        n=2,
        boxes=(
            Box(((F(-1), F(1, 3) + d), (F(-1), F(2)))),
            Box(((F(-1), F(2)), (F(-1), F(1, 3) + d))),
        ),
    )
    centre = Point((F(1, 6), F(1, 6)))
    r = ball_stability_radius(k, ball, [centre, centre])
    assert 0 < r and r * r <= 2 * d * d
    assert r == F(1414213562373, 10**25)


def test_stability_radius_guarantees_membership_margin():
    k = DigitalSet(1, 3, 3, ((13,),))
    ball = BallSpec(n=1, boxes=(box1(F(2, 5), F(3, 5)),))
    r = ball_stability_radius(k, ball, [Point((F(1, 2),))])
    # translate the cell by just under r at a finer grid: membership must hold
    fine = k.refine(5)
    shift = int((r * 3**5).__floor__()) - 1
    assert shift >= 1
    moved = DigitalSet(1, 3, 5, tuple((j + shift,) for (j,) in fine.cells))
    assert ball_membership(moved, ball)


def _oracle_open_union_contains(target, boxes):
    # one sample per face of the box-bound arrangement inside the target
    faces = fraction_oracles.outside_faces(target.intervals, [box.intervals for box in boxes])
    return next(faces, None) is None


def _oracle_membership(k_set, ball):
    scale = k_set.b**k_set.m
    return all(
        _oracle_open_union_contains(fraction_oracles.cell_box(k_set, cell), ball.boxes) for cell in k_set.cells
    ) and all(
        any(
            all(lo * scale < j + 1 and j < hi * scale for j, (lo, hi) in zip(cell, box.intervals))
            for cell in k_set.cells
        )
        for box in ball.boxes
    )


def _oracle_complement_slabs(box):
    # closed slabs of [0,1]^n outside the relative-open box, over all axes
    unit = [(F(0), F(1))] * box.n
    slabs = []
    for axis, (lo, hi) in enumerate(box.intervals):
        if lo >= 0:
            slabs.append(Box(tuple(unit[:axis] + [(F(0), lo)] + unit[axis + 1 :])))
        if hi <= 1:
            slabs.append(Box(tuple(unit[:axis] + [(hi, F(1))] + unit[axis + 1 :])))
    return slabs


def _oracle_radius(k_set, ball, witnesses):
    """The slab product: the complement of the union is the union, over one
    complement slab per box, of the slabs' intersections, (2n)**B in all."""
    radii = []
    for point, box in zip(witnesses, ball.boxes):
        if all(c in (0, 1) for c in point.coords):
            radii.append(min(min(hi, 1) - max(lo, 0) for lo, hi in box.intervals))
            continue
        gaps = [c - lo for c, (lo, _) in zip(point.coords, box.intervals) if lo >= 0]
        gaps += [hi - c for c, (_, hi) in zip(point.coords, box.intervals) if hi <= 1]
        if gaps:
            radii.append(min(gaps))
    families = [_oracle_complement_slabs(box) for box in ball.boxes]
    unit = Box(((F(0), F(1)),) * ball.n)
    if _oracle_open_union_contains(unit, ball.boxes) or not all(families):
        return min(radii + [F(1)])
    complement_sq = None
    for choice in itertools.product(*families):
        ivs = [
            (max(s.intervals[a][0] for s in choice), min(s.intervals[a][1] for s in choice))
            for a in range(ball.n)
        ]
        if all(lo <= hi for lo, hi in ivs):
            d = fraction_oracles.dist_sq(k_set, Box(tuple(ivs)))
            complement_sq = d if complement_sq is None else min(complement_sq, d)
    best = min(radii)
    if best * best <= complement_sq:
        return best
    return root_lower(complement_sq, 2)


@st.composite
def balls_with_witnesses(draw):
    """Up to 5 boxes in n=1..3 at quarter-cell offsets around grid cells,
    mostly cells of a small set, some spilling past the cube, each with a
    witness on the half-cell grid of the set when one lies strictly inside."""
    n = draw(st.integers(min_value=1, max_value=3))
    b = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(min_value=0, max_value=2 if n < 3 else 1))
    scale = b**m
    cell = st.tuples(*[st.integers(min_value=0, max_value=scale - 1)] * n)
    k_set = DigitalSet(n, b, m, tuple(draw(st.lists(cell, min_size=1, max_size=4))))
    pad = st.integers(min_value=-1, max_value=6)
    spill = st.integers(min_value=0, max_value=5)
    boxes = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        anchor = draw(st.one_of(st.sampled_from(k_set.cells), cell))
        ivs = []
        for j in anchor:
            lo = F(-1, 2) if draw(spill) == 0 else F(4 * j - draw(pad), 4 * scale)
            hi = F(3, 2) if draw(spill) == 0 else F(4 * j + 4 + draw(pad), 4 * scale)
            ivs.append((lo, hi))
        boxes.append(Box(tuple(ivs)))
    grid = [
        tuple(F(2 * j + o, 2 * scale) for j, o in zip(c, off))
        for c in k_set.cells
        for off in itertools.product(range(3), repeat=n)
    ]
    witnesses = []
    for box in boxes:
        inside = sorted({p for p in grid if ball._strictly_inside(Point(p), box)})
        witnesses.append(Point(draw(st.sampled_from(inside))) if inside else None)
    return k_set, BallSpec(n=n, boxes=tuple(boxes)), witnesses


@settings(max_examples=200)
@given(balls_with_witnesses())
def test_ball_verdicts_match_the_slab_product_oracle(case):
    k_set, ball, witnesses = case
    member = ball_membership(k_set, ball)
    assert member == _oracle_membership(k_set, ball)
    if member and None not in witnesses:
        assert ball_stability_radius(k_set, ball, witnesses) == _oracle_radius(
            k_set, ball, witnesses
        )


def test_stability_radius_hands_a_grown_cell_boxes_beyond_its_window():
    # the bound is 5/18, two and a half cells, so windows widen by three:
    # cell 0 grown to [0, 7/18] is covered only by A and C together, and C's
    # widened window (from ceil(9 * 13/36) - 1 - 3 = 0) just reaches cell 0
    k_set = DigitalSet(1, 3, 2, ((0,), (8,)))
    ball = BallSpec(n=1, boxes=(box1(-1, F(3, 8)), box1(F(2, 3), 2), box1(F(13, 36), 2)))
    witnesses = [Point((F(1, 18),)), Point((F(17, 18),)), Point((F(17, 18),))]
    radius = ball_stability_radius(k_set, ball, witnesses)
    assert radius == F(5, 18) == _oracle_radius(k_set, ball, witnesses)


def test_stability_radius_scales_to_200_diagonal_boxes(monkeypatch):
    # one box per diagonal cell (2i+1, 2i+1), padded by a quarter cell: the
    # slab product would take 4**200 choices, the arrangement 48 faces a cell
    s = 3**6
    pad = F(1, 4 * s)
    cells = tuple((2 * i + 1, 2 * i + 1) for i in range(200))
    k_set = DigitalSet(2, 3, 6, cells)
    union = BallSpec(
        n=2, boxes=tuple(Box(tuple((F(j, s) - pad, F(j + 1, s) + pad) for j in c)) for c in cells)
    )
    witnesses = [Point(tuple(F(2 * j + 1, 2 * s) for j in c)) for c in cells]
    # each exact cell-to-face distance counts; the arrangement needs 9,600
    calls = 0
    exact = ball._box_gap_sq

    def counting(*args):
        nonlocal calls
        calls += 1
        if calls > 20_000:
            raise AssertionError("too many exact distance evaluations")
        return exact(*args)

    monkeypatch.setattr(ball, "_box_gap_sq", counting)
    # each grown cell is handed the boxes of its widened integer window
    # (three here), not all 200: about 1,000 box-meets-target tests in all,
    # where testing every box against every grown cell took 40,400
    meets = 0
    exact_meets = ball._meets

    def counting_meets(*args):
        nonlocal meets
        meets += 1
        return exact_meets(*args)

    monkeypatch.setattr(ball, "_meets", counting_meets)
    start = time.perf_counter()
    assert ball_stability_radius(k_set, union, witnesses) == F(1, 2916)
    assert time.perf_counter() - start < 0.5
    assert 0 < calls < 20_000
    assert meets < 2_000


def test_thin_cover_of_1200_intervals_splits_once_per_inner_bound(monkeypatch):
    # the shape of the benchmark's thin cover: one n=1 cell cut left to right
    # into 1,200 intervals of widths 4 +- 2 on the 1/43200 grid; the median
    # split cuts at each of the 1,199 inner bounds exactly once
    bounds = [4 * 4800] + [4 * 4800 + 4 * i + i * i % 3 for i in range(1, 1200)] + [5 * 4800]
    pieces = [box1(F(lo, 43200), F(hi, 43200)) for lo, hi in zip(bounds, bounds[1:])]
    e = DigitalSet(1, 3, 2, ((4,),))
    cover = CoverSeq(n=1, eps=F(999, 1000), strong=True, pieces=tuple(pieces))
    splits = tests = contains = 0
    crossing, holds = covers._crossing, covers._contains

    def counting(live, lo, hi):
        nonlocal splits, tests
        split = crossing(live, lo, hi)
        splits += split is not None
        tests += len(live)
        return split

    def counting_holds(*args):
        nonlocal contains
        contains += 1
        return holds(*args)

    monkeypatch.setattr(covers, "_crossing", counting)
    monkeypatch.setattr(covers, "_contains", counting_holds)
    start = time.perf_counter()
    assert verify_cover(e, cover).ok
    assert time.perf_counter() - start < 1
    assert splits == 1199
    # each split sub-box's live pieces are scanned a fixed number of times
    # (its halves' one-axis filters and its crossing), 14,729 in all here;
    # a sub-box that re-tested the whole cover would be N**2 = 1,440,000
    assert tests <= 2 * 1200 * math.log2(1200)
    # only a piece that spans a sub-box on its cut axis is tested whole:
    # once per leaf here, where every live piece of every sub-box took a
    # containment test before (17,128 in all)
    assert contains <= 1200
