"""The integer-frame box queries against their Fraction oracles.

Bounds are drawn with coprime denominators (sevenths, elevenths,
thirteenths and the set's own grid), reach outside [0, 1], and may be
zero-width in non-strong covers, so the lcm frame of each call mixes
several denominators.  Budget verdicts, coverage witnesses, ball
membership and stability radii must equal those of ``fraction_oracles``,
and so must a box's own frame and the SVG rectangles drawn from a frame.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_oracles
from microset import svg
from microset.ball import BallSpec, _outside_gap_sq, _strictly_inside, ball_membership, ball_stability_radius
from microset.cells import Box, CoverSeq, DigitalSet, Point, _frame, _on_frame
from microset.covers import covers_box, verify_cover
from microset.dust import DustSpec, generate

F = Fraction
COPRIME = (7, 11, 13)


@st.composite
def small_sets(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    b = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(min_value=0, max_value=2 if n < 3 else 1))
    cell = st.tuples(*[st.integers(0, b**m - 1)] * n)
    return DigitalSet(n, b, m, tuple(draw(st.lists(cell, min_size=1, max_size=5))))


def coords(e):
    """Rationals of mixed denominators, up to half a unit outside [0, 1]."""
    return st.sampled_from(COPRIME + (e.b**e.m, 4 * e.b**e.m)).flatmap(
        lambda den: st.integers(-den // 2, den + den // 2).map(lambda i: F(i, den))
    )


@st.composite
def coprime_covers(draw):
    """Claimed covers of a small set: random pieces, and for every cell but
    at most one a piece of its own, grown or split off the grid."""
    e = draw(small_sets())
    n, side = e.n, e.cell_side
    strong = draw(st.booleans())
    coord = coords(e)
    pieces = []
    for _ in range(draw(st.integers(0, 5))):
        lo = [draw(coord) for _ in range(n)]
        if strong:
            pieces.append(Box.cube(lo, draw(coord.filter(lambda v: v > 0))))
        elif draw(st.booleans()):
            pieces.append(Box(tuple(sorted((a, draw(coord))) for a in lo)))
        else:
            # zero-width on one axis
            axis = draw(st.integers(0, n - 1))
            ivs = [tuple(sorted((a, draw(coord)))) for a in lo]
            ivs[axis] = (lo[axis], lo[axis])
            pieces.append(Box(tuple(ivs)))
    bare = draw(st.one_of(st.none(), st.sampled_from(e.cells)))
    for cell in e.cells:
        if cell == bare:
            continue
        lo = [a for a, _ in fraction_oracles.cell_box(e, cell).intervals]
        grow = [F(draw(st.integers(0, 1)), draw(st.sampled_from(COPRIME))) for _ in range(2)]
        if strong or draw(st.booleans()):
            pieces.append(Box.cube([a - grow[0] for a in lo], side + grow[0] + grow[1]))
        else:
            axis = draw(st.integers(0, n - 1))
            a, z = fraction_oracles.cell_box(e, cell).intervals[axis]
            mid = a + side * F(draw(st.integers(0, 13)), 13)
            for part in ((a, mid), (mid, z)):
                ivs = list(fraction_oracles.cell_box(e, cell).intervals)
                ivs[axis] = part
                pieces.append(Box(tuple(ivs)))
    order = draw(st.permutations(pieces))
    den = draw(st.sampled_from((13, 10)))
    eps = F(draw(st.integers(1, den - 1)), den)
    return e, CoverSeq(n=n, eps=eps, strong=strong, pieces=tuple(order))


@settings(max_examples=150)
@given(coprime_covers(), st.sampled_from(COPRIME))
def test_cover_verdicts_match_the_fraction_oracle(case, den):
    e, cover = case
    report = verify_cover(e, cover)
    k, witness = fraction_oracles.verify(e, cover)
    assert report.first_violation == (None if k is None else (k, "budget"))
    assert report.uncovered_witness == witness
    strengthened = F(den - 1, den) ** 2
    assert cover.first_budget_violation(strengthened) == fraction_oracles.budget_violation(
        cover, strengthened
    )
    for cell in e.cells[:2]:
        target = fraction_oracles.cell_box(e, cell)
        assert covers_box(target, cover.pieces) == fraction_oracles.covers_box(
            target.intervals, [p.intervals for p in cover.pieces]
        )


@st.composite
def coprime_balls(draw):
    """Up to 4 boxes around cells of a small set, bounds off the grid or
    spilling past the cube, each with a witness strictly inside it on a
    grid of thirds and sevenths of the set's cells, when one is."""
    k_set = draw(small_sets())
    scale = k_set.b**k_set.m
    boxes = []
    for _ in range(draw(st.integers(1, 4))):
        anchor = draw(st.sampled_from(k_set.cells))
        ivs = []
        for j in anchor:
            den = draw(st.sampled_from(COPRIME))
            pad = st.integers(-2, 9).map(lambda i: F(i, den * scale))
            lo = F(-1, 3) if draw(st.integers(0, 5)) == 0 else F(j, scale) - draw(pad)
            hi = F(4, 3) if draw(st.integers(0, 5)) == 0 else F(j + 1, scale) + draw(pad)
            ivs.append((lo, max(hi, lo + F(1, 7 * scale))))
        if all(max(lo, 0) < min(hi, 1) for lo, hi in ivs):
            boxes.append(Box(tuple(ivs)))
    if not boxes:
        boxes.append(Box(((F(-1, 2), F(3, 2)),) * k_set.n))
    offsets = (F(0), F(1, 3), F(1, 2), F(4, 7), F(1))
    grid = sorted(
        {
            tuple((j + t) / scale for j, t in zip(c, off))
            for c in k_set.cells
            for off in itertools.product(offsets, repeat=k_set.n)
        }
    )
    witnesses = []
    for box in boxes:
        inside = [p for p in grid if _strictly_inside(Point(p), box)]
        witnesses.append(Point(draw(st.sampled_from(inside))) if inside else None)
    return k_set, BallSpec(n=k_set.n, boxes=tuple(boxes)), witnesses


@settings(max_examples=150)
@given(coprime_balls())
def test_ball_verdicts_match_the_fraction_oracle(case):
    k_set, ball, witnesses = case
    assert ball_membership(k_set, ball) == fraction_oracles.membership(k_set, ball)


@settings(max_examples=150)
@given(coprime_balls())
def test_stability_radius_decides_membership_as_the_oracle(case):
    # valid witnesses: the radius pass alone refuses every non-member
    k_set, ball, witnesses = case
    if None in witnesses:
        return
    if fraction_oracles.membership(k_set, ball):
        assert ball_stability_radius(k_set, ball, witnesses) == fraction_oracles.stability_radius(
            k_set, ball, witnesses
        )
    else:
        with pytest.raises(ValueError, match="not a member"):
            ball_stability_radius(k_set, ball, witnesses)


@settings(max_examples=150)
@given(coprime_balls())
def test_membership_is_no_zero_gap_at_the_witness_bound(case):
    # valid witnesses: the gap pass at their bound finds a zero gap exactly
    # when the set is no member, so one pass serves both ball checks
    k_set, ball, witnesses = case
    if None in witnesses:
        return
    gap, _, _ = _outside_gap_sq(k_set, ball, fraction_oracles.witness_bound(ball, witnesses))
    assert ball_membership(k_set, ball) == (gap != 0)


def test_stability_radius_refuses_non_members_with_valid_witnesses():
    # the cell [1/3, 2/3] meets both open boxes, but the point 1/2 lies in neither
    k = DigitalSet(1, 3, 1, ((1,),))
    ball = BallSpec(n=1, boxes=(Box(((F(0), F(1, 2)),)), Box(((F(1, 2), F(1)),))))
    witnesses = [Point((F(2, 5),)), Point((F(3, 5),))]
    assert not fraction_oracles.membership(k, ball)
    with pytest.raises(ValueError, match="not a member"):
        ball_stability_radius(k, ball, witnesses)
    # a witness fault is reported before the non-member
    with pytest.raises(ValueError, match="in the set"):
        ball_stability_radius(k, ball, [Point((F(1, 5),)), Point((F(3, 5),))])


def test_a_frame_of_more_than_200_bits_decides_as_the_oracle():
    # three Mersenne-prime denominators make each frame over 320 bits
    m1, m2, m3 = 2**89 - 1, 2**107 - 1, 2**127 - 1
    e = DigitalSet(2, 3, 2, ((3, 4), (4, 4), (5, 5)))
    c0, c1, c2 = F(3, 9) + F(1, m1), F(4, 9) + F(1, m2), F(5, 9) - F(1, m3)
    unit = (F(0), F(1))
    # cell (4, 4) keeps the corner c1..c2 x c2..5/9 uncovered
    pieces = (
        Box(((F(0), c0), unit)),
        Box(((c0, c1), unit)),
        Box(((c1, c2), (F(1, 3), c2))),
        Box(((c2, F(1)), unit)),
    )
    assert _frame(pieces, 9).bit_length() > 200
    for extra, witness in (((), (4, 4)), ((Box(((c1, c2), (c2, F(1)))),), None)):
        cover = CoverSeq(n=2, eps=F(999, 1000), strong=False, pieces=pieces + extra)
        report = verify_cover(e, cover)
        assert (None, witness) == fraction_oracles.verify(e, cover)
        assert (report.first_violation, report.uncovered_witness) == (None, witness)
    ball = BallSpec(
        n=2,
        boxes=(
            Box(((F(3, 9) - F(1, m1), F(5, 9) + F(1, m2)), (F(4, 9) - F(1, m3), F(5, 9) + F(1, m1)))),
            Box(((F(5, 9) - F(1, m3), F(6, 9) + F(1, m2)), (F(5, 9) - F(1, m2), F(6, 9) + F(1, m3)))),
        ),
    )
    witnesses = [Point((F(4, 9), F(1, 2))), Point((F(11, 18), F(11, 18)))]
    assert ball_membership(e, ball) and fraction_oracles.membership(e, ball)
    radius = ball_stability_radius(e, ball, witnesses)
    assert 0 < radius < F(1, m1)
    assert radius == fraction_oracles.stability_radius(e, ball, witnesses)


def far_rationals():
    """Rationals of denominators up to 10**12, up to twice the unit outside [0, 1]."""
    return st.integers(1, 10**12).flatmap(lambda den: st.integers(-2 * den, 3 * den).map(lambda i: F(i, den)))


spelling = st.tuples(st.integers(-3 * 10**6, 3 * 10**6), st.integers(1, 10**6))


@settings(max_examples=200)
@given(st.lists(st.lists(spelling, min_size=2, max_size=2), min_size=1, max_size=4), st.integers(1, 30))
def test_a_box_is_built_on_its_own_frame(axes, multiple):
    # bounds spelled unreduced: the box's own frame D is the lcm of their reduced denominators
    box = Box(tuple(sorted(F(num, den) for num, den in axis) for axis in axes))
    reduced = [den // math.gcd(num, den) for axis in axes for num, den in axis]
    own = _frame([box])
    assert own == math.lcm(*reduced)
    # Fraction(bound, D) gives back each interval, and any multiple of D frames the box as the oracle does
    assert tuple((F(lo, own), F(hi, own)) for lo, hi in _on_frame(box, own)) == box.intervals
    assert _on_frame(box, own * multiple) == fraction_oracles.on_frame(box, own * multiple)


def test_svg_writes_a_negative_coordinate_from_its_sign_and_magnitude():
    assert svg._dec(-1, 3) == "-333.333334" and svg._dec(-1, 10**9) == "-0.000001"
    assert svg._dec(0, 7) == "0" and svg._dec(7, 7) == "1000" and svg._dec(1, 3) == "333.333333"


@settings(max_examples=200)
@given(st.lists(st.lists(far_rationals(), min_size=4, max_size=4), min_size=1, max_size=6))
@example([[F(-1, 3), F(1, 3), F(-1, 3), F(4, 3)]])
def test_svg_rectangles_match_the_fraction_drawing(bounds):
    pieces = tuple(Box(((min(a, b), max(a, b)), (min(c, d), max(c, d)))) for a, b, c, d in bounds)
    cover = CoverSeq(n=2, eps=F(1, 2), strong=False, pieces=pieces)
    # each value is floored exactly, so a piece draws the same on its own frame as on the cover's
    frame = _frame(pieces)
    for piece in pieces:
        drawn = fraction_oracles.svg_rect(piece, "#000000", "1")
        for on in (_frame([piece]), frame):
            assert svg._rect(_on_frame(piece, on), on, "#000000", "1") == drawn
    rects = [fraction_oracles.svg_rect(piece, "#1f6f8b", "0.45") for piece in pieces]
    assert list(svg.render_cover(cover)) == list(svg._document(rects))


def test_svg_dust_cells_match_the_fraction_drawing():
    for spec in (DustSpec(2, 3, 3), DustSpec(2, 4, 2), DustSpec(2, 5, 2)):
        tree = generate(spec)
        rects = [
            fraction_oracles.svg_rect(cube, svg._LEVEL_FILLS[k - 1], "0.85")
            for k in range(1, spec.depth + 1)
            for _, cube in fraction_oracles.level_boxes(tree, k)
        ]
        assert list(svg.render_dust(tree)) == list(svg._document(rects))
