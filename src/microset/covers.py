"""Cover certificates with shrinking volume budgets, and their verifiers.

A ``CoverSeq`` claims that its pieces cover some digital set while the
k-th piece (1-based) has Lebesgue measure at most ``eps**k``.  Claims are
never trusted: ``verify_cover`` decides budgets and coverage exactly, the
greedy searcher re-verifies anything it emits, and failed searches are
reported as data rather than as refutations.

Ball specifications (finite unions of boxes open relative to the unit
cube, each required to meet the set) get an exact membership decision and
a certified stability radius for the Hausdorff metric.  Both come from one
arrangement: the box bounds cut a target box into faces, one sample point
per face decides whether the face lies outside the union, and the radius
is the least distance from a cell to an outside face near it.

Every one of these decisions runs on one integer frame per call
(``geometry._frame``): the bounds become ints once, and only what is
reported, a witness cell or a radius, goes back to a Fraction.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import ceil, floor, lcm
from typing import Iterable, Iterator, Sequence

from .geometry import (
    Box,
    DigitalSet,
    Point,
    Record,
    _box_gap_sq,
    _column_index,
    _covers,
    _frame,
    _in_window,
    _on_frame,
    _window,
)
from .rational import DEFAULT_PRECISION, pow_lower, pow_upper, root_lower


class CoverSeq(Record):
    """Ordered cover pieces under the budget volume(piece_k) <= eps**k.

    The budget is a claim checked by ``first_budget_violation``, not a
    constructor guarantee, so defective certificates stay representable.
    ``strong`` asserts the geometric cube shape of every piece and is
    enforced here.
    """

    n: int
    eps: Fraction
    strong: bool
    pieces: tuple[Box, ...]

    def __init__(self, n: int, eps: Fraction, strong: bool, pieces: Iterable[Box]):
        eps, pieces = Fraction(eps), tuple(pieces)
        if n < 1:
            raise ValueError("dimension must be >= 1")
        if not (0 < eps < 1):
            raise ValueError("eps must lie strictly between 0 and 1")
        if any(piece.n != n for piece in pieces):
            raise ValueError("piece dimension mismatch")
        if strong:
            frame = _frame(pieces)
            for piece in pieces:
                sides = {hi - lo for lo, hi in _on_frame(piece, frame)}
                if len(sides) != 1 or min(sides) <= 0:
                    raise ValueError("strong cover pieces must be cubes")
        self._set(n, eps, strong, pieces)

    def first_budget_violation(self, eps: Fraction | None = None) -> int | None:
        """First position k with volume(piece_k) > eps**k, or None.

        ``eps`` defaults to the cover's own; ``merge_covers`` passes the
        strengthened budget its inputs must meet.  With eps = p/q and the
        pieces on their integer frame D, the test is
        prod(hi - lo) * q**k > p**k * D**n, with running powers.
        """
        eps = self.eps if eps is None else eps
        frame = _frame(self.pieces)
        room = frame**self.n
        p_k = q_k = 1
        for k, piece in enumerate(self.pieces, start=1):
            p_k *= eps.numerator
            q_k *= eps.denominator
            vol = 1
            for lo, hi in _on_frame(piece, frame):
                vol *= hi - lo
            if vol * q_k > p_k * room:
                return k
        return None


class CoverReport(Record):
    """Verdicts of ``verify_cover``; each flag is read off its witness."""

    first_violation: tuple[int, str] | None
    uncovered_witness: tuple[int, ...] | None

    def __init__(self, first_violation, uncovered_witness):
        if first_violation is not None and (len(first_violation) != 2 or first_violation[1] != "budget"):
            raise ValueError('a violation must be (position, "budget")')
        self._set(first_violation, uncovered_witness)

    @property
    def budget_ok(self) -> bool:
        return self.first_violation is None

    @property
    def coverage_ok(self) -> bool:
        return self.uncovered_witness is None

    @property
    def ok(self) -> bool:
        return self.budget_ok and self.coverage_ok


class GreedyFailure(Record):
    """Search gave up: 'budget-infeasible' is certified, the rest are not."""

    reason: str
    position: int
    uncovered: int


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


def _touching_pieces(
    cells: Sequence[tuple[int, ...]], pieces: Sequence[tuple], f: int, slack: int = 1
) -> list[list[tuple]]:
    """For each cell, in order, the pieces touching it, in cover order.

    Cells are sorted and cell j spans j*f..(j+1)*f on the pieces' integer
    frame; a piece touches the cells of its ``_window`` with this ``slack``,
    1 by default.  Only the first-axis columns that hold cells are visited, by
    bisection, so a piece reaching far outside the cube costs no more than
    one that does not.  In each such column the cells of the second-axis
    range are one bisected run, and only they test the remaining axes.
    """
    columns, starts = _column_index(cells)
    touching: list[list[tuple]] = [[] for _ in cells]
    for piece in pieces:
        (a, z), *rest = _window(piece, f, slack)
        more = rest[1:]
        for c in range(bisect_left(columns, a), bisect_right(columns, z)):
            i, end = starts[c], starts[c + 1]
            if rest:
                a1, z1 = rest[0]
                i = bisect_left(cells, (columns[c], a1), i, end)
                end = bisect_left(cells, (columns[c], z1 + 1), i, end)
            for j in range(i, end):
                if not more or _in_window(cells[j][2:], more):
                    touching[j].append(piece)
    return touching


def _cell_bounds(cell: tuple[int, ...], f: int) -> tuple[tuple[int, int], ...]:
    return tuple((j * f, (j + 1) * f) for j in cell)


def verify_cover(e: DigitalSet, cover: CoverSeq) -> CoverReport:
    """Exact budget and coverage verdicts for a claimed cover of e.

    The pieces and the cells go onto one integer frame, the lcm of ``b**m``
    and the pieces' bound denominators, where cell j spans j*f..(j+1)*f.
    Each cell goes to the integer ``covers_box`` core with only the pieces
    whose touching window holds it.  The core drops non-touching pieces
    first anyway, so the verdict and the first uncovered cell are those of
    testing every cell against the whole cover.
    """
    if e.n != cover.n:
        raise ValueError("dimension mismatch")
    k = cover.first_budget_violation()
    scale = e.b**e.m
    frame = _frame(cover.pieces, scale)
    f = frame // scale
    pieces = [_on_frame(piece, frame) for piece in cover.pieces]
    touching = zip(e.cells, _touching_pieces(e.cells, pieces, f))
    witness = next((cell for cell, live in touching if not _covers(_cell_bounds(cell, f), live)), None)
    return CoverReport(first_violation=None if k is None else (k, "budget"), uncovered_witness=witness)


def _morton_key(cell: tuple[int, ...], width: int) -> int:
    key = 0
    for bit in range(width - 1, -1, -1):
        for j in cell:
            key = (key << 1) | ((j >> bit) & 1)
    return key


def _budget_sides(eps: Fraction, n: int) -> Iterator[Fraction]:
    """Per position k = 1, 2, ..., a certified lower enclosure of eps**(k/n).

    The grid enclosure of eps**(k/n) and the k-th power of that of
    eps**(1/n) are both lower bounds; the larger is kept.
    """
    root_lo = pow_lower(eps, 1, n)
    for k in itertools.count(1):
        yield max(pow_lower(eps, k, n), root_lo**k)


def greedy_strong_cover(e: DigitalSet, eps: Fraction, max_pieces: int) -> CoverSeq | GreedyFailure:
    """Greedy search for a verified strong cover of e at budget eps.

    Cells are processed in Morton (bit-interleaved) order.  Position k
    emits the largest admissible cube, side a certified lower enclosure of
    eps**(k/n), anchored at the first uncovered cell and clamped into the
    unit cube.  A failure is only a refutation when the side-sum bound
    certifies that the remaining budget cannot span the uncovered cells'
    projection; otherwise the result is inconclusive by design.
    """
    eps = Fraction(eps)
    if not (0 < eps < 1):
        raise ValueError("eps must lie strictly between 0 and 1")
    if max_pieces < 1:
        raise ValueError("max_pieces must be >= 1")
    n, cs, scale = e.n, e.cell_side, e.b**e.m
    width = (scale - 1).bit_length() or 1
    order = sorted(e.cells, key=lambda c: (_morton_key(c, width), c))
    uncovered = set(order)
    pieces: list[Box] = []
    for k, side in enumerate(_budget_sides(eps, n), start=1):
        if side < cs:
            return _certify_infeasible(e, uncovered, k, eps)
        target = next(c for c in order if c in uncovered)
        lo = tuple(min(j * cs, 1 - side) for j in target)
        pieces.append(Box.cube(lo, side))
        frame = _frame(pieces[-1:], scale)
        window = _window(_on_frame(pieces[-1], frame), frame // scale, 0)
        uncovered = {c for c in uncovered if not _in_window(c, window)}
        if not uncovered:
            break
        if k == max_pieces:
            return GreedyFailure("max-pieces", position=k + 1, uncovered=len(uncovered))
    cover = CoverSeq(n=n, eps=eps, strong=True, pieces=tuple(pieces))
    report = verify_cover(e, cover)
    if not report.ok:
        raise AssertionError("greedy emitted a cover that fails verification")
    return cover


def _certify_infeasible(e: DigitalSet, uncovered: set, position: int, eps: Fraction) -> GreedyFailure:
    # refutes any cover of e, not just this search: the total side budget
    # must span the projection of the whole set on every axis
    needed = max(len({c[axis] for c in e.cells}) * e.cell_side for axis in range(e.n))
    reason = "budget-infeasible" if _series_upper(eps, e.n) < needed else "stalled"
    return GreedyFailure(reason, position=position, uncovered=len(uncovered))


def _series_upper(eps: Fraction, n: int) -> Fraction:
    """Certified upper bound of sum_{k>=1} eps**(k/n), the side budget of a strong cover.

    The geometric sum r/(1-r), with r an upper enclosure of eps**(1/n)
    whose grid is refined until r < 1.
    """
    prec = DEFAULT_PRECISION
    r = pow_upper(eps, 1, n, prec)
    while r >= 1:
        prec *= 10
        r = pow_upper(eps, 1, n, prec)
    return r / (1 - r)


def merge_covers(covers: Sequence[CoverSeq], eps: Fraction) -> CoverSeq:
    """Interleave m covers with strengthened budgets into one eps-cover.

    Requires every input cover to satisfy the budget (eps**m)**k at its own
    positions; piece k of cover i then lands at global position
    (k-1)*m + i or earlier, where the eps**position budget holds because
    position <= k*m.  Ragged inputs are compacted, which only ever moves a
    piece to an earlier (more generous) position.
    """
    eps = Fraction(eps)
    if not covers:
        raise ValueError("need at least one cover")
    if not (0 < eps < 1):
        raise ValueError("eps must lie strictly between 0 and 1")
    m = len(covers)
    n = covers[0].n
    strong = covers[0].strong
    strengthened = eps**m
    for i, cover in enumerate(covers, start=1):
        if cover.n != n:
            raise ValueError("dimension mismatch between covers")
        if cover.strong != strong:
            raise ValueError("cannot merge strong with non-strong covers")
        k = cover.first_budget_violation(strengthened)
        if k is not None:
            raise ValueError(f"cover {i} piece {k} exceeds the strengthened budget")
    layers = itertools.zip_longest(*(cover.pieces for cover in covers))
    pieces = [piece for layer in layers for piece in layer if piece is not None]
    merged = CoverSeq(n=n, eps=eps, strong=strong, pieces=tuple(pieces))
    if merged.first_budget_violation() is not None:
        raise AssertionError("merge produced an over-budget piece")
    return merged


def _strictly_inside(point: Point, box: Box) -> bool:
    return all(lo < c < hi for c, (lo, hi) in zip(point.coords, box.intervals))


def _meets(box: tuple, target: tuple) -> bool:
    """Whether the relative-open box meets the closed target, both as (lo, hi) pairs."""
    return all(blo < thi and tlo < bhi for (blo, bhi), (tlo, thi) in zip(box, target))


def _outside_faces(target: tuple, boxes: Sequence[tuple]) -> Iterator[tuple]:
    """Closed faces of target's box-bound arrangement that no box strictly holds.

    Target and boxes are per-axis (lo, hi) pairs of even ints on one
    doubled frame, so that every gap midpoint is an int.  Per axis, the
    pieces are the target's bounds, the bounds of the boxes meeting it that
    fall strictly inside, and the open gaps between them.  A face takes one
    piece per axis; strict membership in each box is constant on it, so one
    sample point (a bound or a gap midpoint) decides it.  The closures of
    the yielded faces make up target minus the union.  Each face comes as
    its per-axis (lo, hi) pairs.
    """
    live = [box for box in boxes if _meets(box, target)]
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


def _ball_frame(k_set: DigitalSet, ball: BallSpec, base: int) -> tuple[int, int, list[tuple]]:
    """The doubled frame 2D of the set and the ball, with D a multiple of
    ``base``; its cell width f, and the boxes on it."""
    frame = 2 * _frame(ball.boxes, lcm(base, k_set.b**k_set.m))
    return frame, frame // k_set.b**k_set.m, [_on_frame(box, frame) for box in ball.boxes]


def ball_membership(k_set: DigitalSet, ball: BallSpec) -> bool:
    """Exact decision: k_set inside the union, and every box meets k_set.

    On the doubled frame, each cell is tested against the boxes in its
    integer touching window only; no cell may have an outside face.
    """
    if k_set.n != ball.n:
        raise ValueError("dimension mismatch")
    _, f, boxes = _ball_frame(k_set, ball, 1)
    met: set[tuple] = set()
    for cell, near in zip(k_set.cells, _touching_pieces(k_set.cells, boxes, f)):
        target = _cell_bounds(cell, f)
        if next(_outside_faces(target, near), None) is not None:
            return False
        met.update(box for box in near if _meets(box, target))
    return met.issuperset(boxes)


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
    """
    if k_set.n != ball.n:
        raise ValueError("dimension mismatch")
    if len(witnesses) != len(ball.boxes):
        raise ValueError("need exactly one witness per box")
    if not ball_membership(k_set, ball):
        raise ValueError("set is not a member of the ball")
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
    # the frame holds the bound too, so that the grown cells stay on it
    frame, f, boxes = _ball_frame(k_set, ball, bound.denominator)
    reach = bound.numerator * (frame // bound.denominator)
    near_sq = reach * reach
    # a box that meets the cell grown by the bound holds the cell in its
    # touching window widened by ceil(bound * scale) cells each way
    widened = _touching_pieces(k_set.cells, boxes, f, 1 + -(-reach // f))
    for cell, near in zip(k_set.cells, widened):
        target = _cell_bounds(cell, f)
        grown = tuple((max(lo - reach, 0), min(hi + reach, frame)) for lo, hi in target)
        for face in _outside_faces(grown, near):
            near_sq = min(near_sq, _box_gap_sq(target, face))
    if near_sq == 0:
        raise AssertionError("membership held but the complement touches the set")
    if near_sq == reach * reach:
        return bound
    near_sq = Fraction(near_sq, frame * frame)
    return root_lower(near_sq, 2, max(DEFAULT_PRECISION, near_sq.denominator))
