"""Cover certificates with shrinking volume budgets, and their verifiers.

A ``CoverSeq`` claims that its pieces cover some digital set while the
k-th piece (1-based) has Lebesgue measure at most ``eps**k``.  Claims are
never trusted: ``verify_cover`` decides budgets and coverage exactly, the
greedy searcher re-verifies anything it emits, and failed searches are
reported as data rather than as refutations.

Ball specifications (finite unions of boxes open relative to the unit
cube, each required to meet the set) get an exact membership decision and
a certified stability radius for the Hausdorff metric.  Both come from one
pass: the box bounds cut a target box into faces, one sample point per
face decides whether the face lies outside the union, and the radius is
the least distance from a cell to an outside face near it.

Every one of these decisions runs on one integer frame per call
(``geometry._frame``), a cover's own derived once when it is built: the
bounds become ints once, and only what is reported, a witness cell or a
radius, goes back to a Fraction.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from math import ceil, floor, lcm
from typing import Iterable, Iterator, Sequence

from .geometry import (
    Box,
    DigitalSet,
    Point,
    Record,
    _box_gap_sq,
    _covers,
    _frame,
    _in_window,
    _on_frame,
    _touching_pieces,
    _window,
)
from .rational import DEFAULT_PRECISION, Negative, _frac, root_lower, root_upper


def _budget(eps) -> Fraction:
    """eps as a Fraction, refused unless 0 < eps < 1: the one check of a cover budget."""
    eps = _frac(eps)
    if not 0 < eps < 1:
        raise ValueError("eps must lie strictly between 0 and 1")
    return eps


class CoverSeq(Record):
    """Ordered cover pieces under the budget volume(piece_k) <= eps**k.

    The budget is a claim checked by ``first_budget_violation``, not a
    constructor guarantee, so defective certificates stay representable.
    ``strong`` asserts the geometric cube shape of every piece and is
    enforced here.  The pieces' integer frame D and their bounds times D
    are derived once, in ``_framed``, for the cube check and the budget and
    coverage verdicts alike.
    """

    n: int
    eps: Fraction
    strong: bool
    pieces: tuple[Box, ...]

    def __init__(self, n: int, eps: Fraction, strong: bool, pieces: Iterable[Box]):
        eps, pieces = _budget(eps), tuple(pieces)
        if n < 1:
            raise ValueError("dimension must be >= 1")
        if any(piece.n != n for piece in pieces):
            raise ValueError("piece dimension mismatch")
        self._set(n, eps, strong, pieces)
        if strong:
            for piece in self._framed[1]:
                sides = {hi - lo for lo, hi in piece}
                if len(sides) != 1 or min(sides) <= 0:
                    raise ValueError("strong cover pieces must be cubes")

    @cached_property
    def _framed(self) -> tuple[int, tuple]:
        """D, the lcm of the bound denominators, and the pieces' bounds times D.

        Built in one pass on first use, which for a strong cover is its own
        cube check in ``__init__``.  A loaded cover is built after
        ``serialize.from_json`` has dropped the parsed document, so these
        bounds (about 0.2 MB at 1,200 pieces in n=1) never sit beside it at
        the peak of ``cover-verify``.
        """
        frame = _frame(self.pieces)
        return frame, tuple(_on_frame(piece, frame) for piece in self.pieces)

    def first_budget_violation(self, eps: Fraction | None = None) -> int | None:
        """First position k with volume(piece_k) > eps**k, or None.

        ``eps`` defaults to the cover's own; ``merge_covers`` passes the
        strengthened budget its inputs must meet.  With eps = p/q and the
        pieces on their integer frame D, the test is
        prod(hi - lo) * q**k > p**k * D**n, with running powers.
        """
        eps = self.eps if eps is None else eps
        frame, pieces = self._framed
        room = frame**self.n
        p_k = q_k = 1
        for k, piece in enumerate(pieces, start=1):
            p_k *= eps.numerator
            q_k *= eps.denominator
            vol = 1
            for lo, hi in piece:
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
    """Search gave up: 'budget-infeasible' is certified, 'stalled' is not."""

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


def _cell_bounds(cell: tuple[int, ...], f: int) -> tuple[tuple[int, int], ...]:
    return tuple((j * f, (j + 1) * f) for j in cell)


def verify_cover(e: DigitalSet, cover: CoverSeq) -> CoverReport:
    """Exact budget and coverage verdicts for a claimed cover of e.

    The pieces and the cells go onto one integer frame, the lcm of ``b**m``
    and the cover's own frame, where cell j spans j*f..(j+1)*f.
    Each cell goes to the integer core ``_covers`` with only the pieces
    whose touching window holds it.  The core filters nothing, so it must
    get every piece touching the cell, and an extra one costs only time;
    the verdict and first uncovered cell are those of the whole cover.
    """
    if e.n != cover.n:
        raise ValueError("dimension mismatch")
    k = cover.first_budget_violation()
    scale = e.b**e.m
    frame, pieces = cover._framed
    up = lcm(frame, scale) // frame
    if up > 1:
        pieces = [tuple((lo * up, hi * up) for lo, hi in piece) for piece in pieces]
    f = frame * up // scale
    touching = zip(e.cells, _touching_pieces(e.cells, pieces, f))
    witness = next((cell for cell, near in touching if not _covers(_cell_bounds(cell, f), [pieces[h] for h in near])), None)
    return CoverReport(first_violation=None if k is None else (k, "budget"), uncovered_witness=witness)


def _morton_key(cell: tuple[int, ...], width: int) -> int:
    key = 0
    for bit in range(width - 1, -1, -1):
        for j in cell:
            key = (key << 1) | ((j >> bit) & 1)
    return key


def _budget_sides(eps: Fraction, n: int) -> Iterator[Fraction]:
    """Per position k = 1, 2, ..., a certified lower enclosure of eps**(k/n).

    The grid enclosure of the n-th root of eps**k and the k-th power of
    that of eps are both lower bounds; the larger is kept.
    """
    root_lo = root_lower(eps, n)
    for k in itertools.count(1):
        yield max(root_lower(eps**k, n), root_lo**k)


def greedy_strong_cover(e: DigitalSet, eps: Fraction) -> CoverSeq | GreedyFailure:
    """Greedy search for a verified strong cover of e at budget eps.

    Cells are processed in one pass of Morton (bit-interleaved) order; the
    keys are distinct and a covered cell stays covered.  Position k emits
    the largest admissible cube, side a certified lower enclosure of
    eps**(k/n), anchored at the first uncovered cell j and clamped into the
    unit cube.  It runs only while side >= cs, and on each axis it spans
    lo = min(j*cs, 1 - side) <= j*cs to lo + side >= (j+1)*cs, so it holds
    cell j: the search ends within ``len(e.cells)`` positions, with no cap.
    A failure is only a refutation when the side-sum bound certifies that
    no strong cover's sides can span the set's projection on some axis;
    otherwise the result is inconclusive by design.
    """
    eps = _budget(eps)
    n, cs, scale = e.n, e.cell_side, e.b**e.m
    width = (scale - 1).bit_length() or 1
    order = iter(sorted(e.cells, key=lambda c: _morton_key(c, width)))
    uncovered = set(e.cells)
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
    on a grid finer than n/(1-eps).  Then r exceeds eps**(1/n) by less
    than (1-eps)/n, which by concavity is at most 1 - eps**(1/n), so r < 1.
    """
    p, q = eps.numerator, eps.denominator
    r = root_upper(eps, n, max(DEFAULT_PRECISION, n * q // (q - p) + 1))
    return r / (1 - r)


def merge_covers(covers: Sequence[CoverSeq], eps: Fraction) -> CoverSeq:
    """Interleave m covers with strengthened budgets into one eps-cover.

    Requires every input cover to satisfy the budget (eps**m)**k at its own
    positions; piece k of cover i then lands at global position
    (k-1)*m + i or earlier, where the eps**position budget holds because
    position <= k*m.  Ragged inputs are compacted, which only ever moves a
    piece to an earlier (more generous) position.  Every dimension and kind
    is checked before any budget, so only a broken budget is ``Negative``.
    """
    eps = _budget(eps)
    if not covers:
        raise ValueError("need at least one cover")
    m = len(covers)
    n = covers[0].n
    strong = covers[0].strong
    strengthened = eps**m
    if any(cover.n != n for cover in covers):
        raise ValueError("dimension mismatch between covers")
    if any(cover.strong != strong for cover in covers):
        raise ValueError("cannot merge strong with non-strong covers")
    for i, cover in enumerate(covers, start=1):
        k = cover.first_budget_violation(strengthened)
        if k is not None:
            raise Negative(f"cover {i} piece {k} exceeds the strengthened budget")
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
