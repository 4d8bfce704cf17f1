"""Coverage verdicts for budgeted covers, the greedy search and the merge.

A ``CoverSeq`` (a record of ``cells``) claims that its pieces cover some
digital set while the k-th piece (1-based) has Lebesgue measure at most
``eps**k``.  Claims are never trusted: ``verify_cover`` decides budgets
and coverage exactly, the greedy searcher re-verifies anything it emits,
and failed searches are reported as data rather than as refutations.

Coverage is decided by one integer core, ``_covers``, on one integer
frame per call (``cells._frame``), a cover's own derived once when it is
built: the bounds become ints once, and only the witness cell that is
reported leaves the frame.  ``covers_box`` puts Fraction boxes on their
frame for the core, and ``verify_cover`` asks the core once per cell.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from typing import Sequence

from .cells import (
    Box,
    CoverSeq,
    DigitalSet,
    Record,
    _budget,
    _budget_sides,
    _cell_bounds,
    _frame,
    _in_window,
    _on_frame,
    _touching_pieces,
    _window,
)
from .rational import DEFAULT_PRECISION, Negative, root_upper


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


def _contains(piece: tuple, lo: tuple, hi: tuple) -> bool:
    return all(plo <= tlo and thi <= phi for (plo, phi), tlo, thi in zip(piece, lo, hi))


def _touches(piece: tuple, lo: tuple, hi: tuple) -> bool:
    return all(plo <= thi and tlo <= phi for (plo, phi), tlo, thi in zip(piece, lo, hi))


def covers_box(target: Box, pieces: Sequence[Box]) -> bool:
    """Exact decision of target ⊆ union(pieces), all boxes closed.

    Maps the target and the pieces onto their integer frame and decides
    there with ``_covers``, given the pieces that touch the target.
    """
    if any(p.n != target.n for p in pieces):
        raise ValueError("dimension mismatch")
    frame = _frame([target, *pieces])
    box = _on_frame(target, frame)
    lo, hi = zip(*box)
    return _covers(box, [q for q in (_on_frame(p, frame) for p in pieces) if _touches(q, lo, hi)])


def _covers(target: tuple, pieces: Sequence[tuple]) -> bool:
    """Whether target lies in the union of pieces, closed boxes given as
    per-axis (lo, hi) int pairs on one frame.

    ``pieces`` must hold every piece that touches the target, as a cell's
    touching window does; one that does not costs time only.  Splits the
    target at the median piece boundary crossing its interior on the first
    crossed axis, left half first, on an explicit stack.  A half differs
    from its parent on the split axis alone, so it keeps those of the
    parent's pieces that reach it on that axis, one test per piece.  Given
    only touching pieces, every sub-box so keeps only the pieces that touch
    it, and N thin pieces split in O(N log N) rather than one boundary at a
    time.  Once no piece boundary crosses a sub-box, the sub-box is covered
    iff a single piece contains it, which makes the verdict exact whichever
    crossing is split at.  A target that one piece contains, as each cell
    of a cover's own set is, is settled at the first step, before any split.
    """
    lo, hi = zip(*target)
    stack = [(lo, hi, pieces, 0)]
    while stack:
        lo, hi, live, axis = stack.pop()
        a, z = lo[axis], hi[axis]
        # a piece that holds the sub-box spans it on every axis, so on the one it was cut on
        if any(_contains(p, lo, hi) for p in live if p[axis][0] <= a and z <= p[axis][1]):
            continue
        split = _crossing(live, lo, hi)
        if split is None:
            return False
        axis, v = split
        stack.append((lo[:axis] + (v,) + lo[axis + 1 :], hi, [p for p in live if v <= p[axis][1]], axis))
        stack.append((lo, hi[:axis] + (v,) + hi[axis + 1 :], [p for p in live if p[axis][0] <= v], axis))
    return True


def _crossing(pieces: list[tuple], lo: tuple, hi: tuple) -> tuple[int, int] | None:
    """Median piece boundary strictly inside lo..hi on the first axis that has one."""
    for axis, (tlo, thi) in enumerate(zip(lo, hi)):
        inside = sorted([v for p in pieces for v in p[axis] if tlo < v < thi])
        if inside:
            return axis, inside[len(inside) // 2]
    return None


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
