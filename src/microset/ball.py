"""Finite unions of open boxes: exact membership and a certified stability radius.

A ball specification is a finite union of boxes open relative to the
unit cube, each required to meet the set.  The membership decision and
the stability radius for the Hausdorff metric come from one pass: the
box bounds cut a target box into faces, one sample point per face
decides whether the face lies outside the union, and the radius is the
least distance from a cell to an outside face near it.  The pass runs on
one doubled integer frame per call (``cells._frame``), and only the
radius goes back to a Fraction.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import ceil, floor, lcm
from typing import Iterable, Iterator, Sequence

from .cells import Box, DigitalSet, Point, Record, _cell_bounds, _frame, _on_frame, _touching_pieces
from .rational import DEFAULT_PRECISION, Negative, root_lower


class BallSpec(Record):
    """Finite tuple of boxes open relative to [0,1]^n.

    Interval bounds may spill outside the unit cube; membership is always
    taken strictly (lo < x < hi) and then intersected with the cube, so a
    face lying on the cube boundary stays available as relative interior.
    """

    n: int
    boxes: tuple[Box, ...]

    def __init__(self, n: int, boxes: Iterable[Box]):
        boxes = tuple(boxes)
        if n < 1:
            raise ValueError("dimension must be >= 1")
        if not boxes:
            raise ValueError("ball spec needs at least one box")
        for box in boxes:
            if box.n != n:
                raise ValueError("box dimension mismatch")
            for lo, hi in box.intervals:
                if not (max(lo, 0) < min(hi, 1)):
                    raise ValueError("box has empty interior relative to the cube")
        self._set(n, boxes)


def _box_gap_sq(a: Sequence[tuple], b: Sequence[tuple]):
    """Squared gap between two boxes given as per-axis (lo, hi) pairs.

    Exact in the bounds' own type: Fractions give a Fraction, frame integers an int.
    """
    total = 0
    for (alo, ahi), (blo, bhi) in zip(a, b):
        gap = max(blo - ahi, alo - bhi)
        if gap > 0:
            total += gap * gap
    return total


def _strictly_inside(point: Point, box: Box) -> bool:
    return all(lo < c < hi for c, (lo, hi) in zip(point.coords, box.intervals))


def _meets(box: tuple, target: tuple) -> bool:
    """Whether the relative-open box meets the closed target, both as (lo, hi) pairs."""
    return all(blo < thi and tlo < bhi for (blo, bhi), (tlo, thi) in zip(box, target))


def _outside_faces(target: tuple, live: Sequence[tuple]) -> Iterator[tuple]:
    """Closed faces of target's box-bound arrangement that no box strictly holds.

    Target and boxes are per-axis (lo, hi) pairs of even ints on one
    doubled frame, so that every gap midpoint is an int.  Per axis, the
    pieces are the target's bounds, the bounds of the ``live`` boxes (all
    those meeting it) that fall strictly inside, and the open gaps between
    them.  A face takes one piece per axis; strict membership in each box
    is constant on it, so one sample point (a bound or a gap midpoint)
    decides it.  The closures of the yielded faces make up target minus the
    union.  Each face comes as its per-axis (lo, hi) pairs.
    """
    axes = []
    for axis, (tlo, thi) in enumerate(target):
        inner = {v for box in live for v in box[axis] if tlo < v < thi}
        cuts = sorted(inner | {tlo, thi})
        gaps = [(x, (x + y) // 2, y) for x, y in zip(cuts, cuts[1:])]
        axes.append([(v, v, v) for v in cuts] + gaps)
    for face in itertools.product(*axes):
        if not any(
            all(blo < c < bhi for (_, c, _), (blo, bhi) in zip(face, box))
            for box in live
        ):
            yield tuple((lo, hi) for lo, _, hi in face)


def _outside_gap_sq(k_set: DigitalSet, ball: BallSpec, bound: Fraction) -> tuple[int | None, int, set[int]]:
    """The least squared gap from a cell to an outside face of the cell grown by ``bound``.

    On the doubled frame 2D, with D a multiple of the bound's denominator,
    each cell gets the boxes whose touching window, widened by
    ceil(bound * b**m) cells, holds it; each of those is tested once with
    ``_meets`` against the grown cell.  Returns that gap (None with no face,
    0 at the first zero gap), the frame, and the boxes that meet a grown
    cell, which at bound 0 is the cell itself.
    """
    scale = k_set.b**k_set.m
    frame = 2 * _frame(ball.boxes, lcm(bound.denominator, scale))
    f, reach = frame // scale, bound.numerator * (frame // bound.denominator)
    boxes = [_on_frame(box, frame) for box in ball.boxes]
    least, met = None, set()
    for cell, near in zip(k_set.cells, _touching_pieces(k_set.cells, boxes, f, 1 + -(-reach // f))):
        target = _cell_bounds(cell, f)
        grown = tuple((max(lo - reach, 0), min(hi + reach, frame)) for lo, hi in target)
        live = [h for h in near if _meets(boxes[h], grown)]
        met.update(live)
        for face in _outside_faces(grown, [boxes[h] for h in live]):
            gap = _box_gap_sq(target, face)
            if gap == 0:
                return 0, frame, met
            least = gap if least is None else min(least, gap)
    return least, frame, met


def ball_membership(k_set: DigitalSet, ball: BallSpec) -> bool:
    """Exact decision that k_set lies in the union and meets every box: the gap pass at bound 0."""
    if k_set.n != ball.n:
        raise ValueError("dimension mismatch")
    gap, _, met = _outside_gap_sq(k_set, ball, Fraction(0))
    return gap is None and len(met) == len(ball.boxes)


def ball_stability_radius(k_set: DigitalSet, ball: BallSpec, witnesses: Sequence[Point]) -> Fraction:
    """Certified radius within which Hausdorff-perturbations stay in the ball.

    Every compact subset of the unit cube within Hausdorff distance of the
    returned value from k_set still lies in the same ball.  The bound is the
    least witness distance to the in-cube complement of its box, or 1 when
    every box holds the whole cube.  A complement point nearer than the
    bound to a cell lies in that cell grown by the bound and clipped to the
    cube, so the least distance from a cell to an outside face of its grown
    cell decides the rest: the bound when no face is nearer, else a
    certified lower enclosure of that distance, on a grid at least as fine
    as the squared distance's denominator, so that it is never 0.

    The same pass decides membership.  Valid witnesses show that every box
    meets the set, so it is a member exactly when its cells lie in the
    union.  A cell point outside the union lies on an outside face of its
    grown cell, at gap 0; conversely a closed face at gap 0 meets the cell
    in a point that no box strictly holds.  So gap 0 raises ``Negative``,
    after the witness checks.
    """
    if k_set.n != ball.n:
        raise ValueError("dimension mismatch")
    if len(witnesses) != len(ball.boxes):
        raise ValueError("need exactly one witness per box")
    scale = k_set.b**k_set.m
    cells = set(k_set.cells)
    radii: list[Fraction] = []
    for point, box in zip(witnesses, ball.boxes):
        if point.n != ball.n:
            raise ValueError("witness dimension mismatch")
        if not _strictly_inside(point, box):
            raise ValueError("witness must lie strictly inside its box")
        # the closed cells holding x = c*scale on an axis are floor(x) and ceil(x) - 1
        axes = ({floor(c * scale), ceil(c * scale) - 1} for c in point.coords)
        if cells.isdisjoint(itertools.product(*axes)):
            raise ValueError("witness must lie in the set")
        for c, (lo, hi) in zip(point.coords, box.intervals):
            if lo >= 0:
                radii.append(c - lo)
            if hi <= 1:
                radii.append(hi - c)
    bound = min(radii, default=Fraction(1))
    near_sq, frame, _ = _outside_gap_sq(k_set, ball, bound)
    if near_sq == 0:
        raise Negative("not a member of the open-box union")
    if near_sq is None or near_sq >= (bound * frame) ** 2:
        return bound
    near_sq = Fraction(near_sq, frame * frame)
    return root_lower(near_sq, 2, max(DEFAULT_PRECISION, near_sq.denominator))
