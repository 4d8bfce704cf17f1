"""Exact geometry over the unit cube: points, boxes, digital sets, brackets.

Coordinates are Fractions.  Distances are handled as squared values so that
every comparison stays rational; Euclidean roots appear only inside
``hausdorff_bracket``, which returns a certified rational enclosure.

Between digital sets, distances are integers on a common grid, and the
nearest cell of a sorted set is found by a pruned scan rather than by
testing all pairs: ``_nearest_gap_sq`` runs outward from a bisected
position and stops a run once the first-axis gap alone reaches the best
distance found, which no later cell of that run can beat.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence, Union

from .rational import DEFAULT_PRECISION, root_lower, root_upper


def _frac(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("floats are not accepted; use Fraction")
    return Fraction(value)


@dataclass(frozen=True)
class Point:
    """A point of the closed unit cube."""

    coords: tuple[Fraction, ...]

    def __post_init__(self):
        coords = tuple(_frac(c) for c in self.coords)
        object.__setattr__(self, "coords", coords)
        if not coords:
            raise ValueError("point needs at least one coordinate")
        if any(c < 0 or c > 1 for c in coords):
            raise ValueError("point coordinates must lie in [0, 1]")

    @property
    def n(self) -> int:
        return len(self.coords)


@dataclass(frozen=True)
class Box:
    """Closed axis-aligned box, one (lo, hi) pair per axis, lo <= hi."""

    intervals: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        ivs = tuple((_frac(lo), _frac(hi)) for lo, hi in self.intervals)
        object.__setattr__(self, "intervals", ivs)
        if not ivs:
            raise ValueError("box needs at least one axis")
        for lo, hi in ivs:
            if lo > hi:
                raise ValueError(f"inverted interval [{lo}, {hi}]")

    @property
    def n(self) -> int:
        return len(self.intervals)

    def sides(self) -> tuple[Fraction, ...]:
        return tuple(hi - lo for lo, hi in self.intervals)

    def vertices(self) -> Iterable[tuple[Fraction, ...]]:
        return itertools.product(*self.intervals)

    @classmethod
    def cube(cls, corner: Sequence[Fraction], side: Fraction) -> "Box":
        """The cube [corner, corner + side] on every axis; side must be positive."""
        side = _frac(side)
        if side <= 0:
            raise ValueError("cube side must be positive")
        return cls(tuple((_frac(c), _frac(c) + side) for c in corner))


@dataclass(frozen=True)
class DigitalSet:
    """Nonempty union of closed depth-m grid cells of [0,1]^n in base b.

    A cell index tuple (j_1, ..., j_n) names the box
    prod_i [j_i / b**m, (j_i + 1) / b**m].  Cells are stored sorted and
    deduplicated; this is the canonical form used by serialization.
    """

    n: int
    b: int
    m: int
    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        if self.b < 2:
            raise ValueError("base must be >= 2")
        if self.m < 0:
            raise ValueError("depth must be >= 0")
        cells = tuple(sorted({tuple(int(j) for j in cell) for cell in self.cells}))
        object.__setattr__(self, "cells", cells)
        if not cells:
            raise ValueError("digital set must be nonempty")
        top = self.b**self.m
        for cell in cells:
            if len(cell) != self.n:
                raise ValueError("cell arity differs from dimension")
            if any(j < 0 or j >= top for j in cell):
                raise ValueError(f"cell index out of range: {cell}")

    @property
    def cell_side(self) -> Fraction:
        return Fraction(1, self.b**self.m)

    def cell_box(self, cell: tuple[int, ...]) -> Box:
        s = self.cell_side
        return Box(tuple((j * s, (j + 1) * s) for j in cell))

    def boxes(self) -> list[Box]:
        return [self.cell_box(cell) for cell in self.cells]

    def refine(self, depth: int) -> "DigitalSet":
        """The same set re-gridded at a deeper depth (same base)."""
        if depth < self.m:
            raise ValueError("refinement depth must be >= current depth")
        if depth == self.m:
            return self
        f = self.b ** (depth - self.m)
        offsets = list(itertools.product(range(f), repeat=self.n))
        cells = [
            tuple(j * f + o for j, o in zip(cell, off))
            for cell in self.cells
            for off in offsets
        ]
        return DigitalSet(self.n, self.b, depth, tuple(cells))


@dataclass(frozen=True)
class HBracket:
    """Certified rational bracket [lo, hi] around a Hausdorff distance."""

    lo: Fraction
    hi: Fraction
    sample_depth: int
    width_cap: Fraction

    def __post_init__(self):
        if self.sample_depth < 0:
            raise ValueError("sample depth must be >= 0")
        if self.lo < 0 or self.hi < self.lo:
            raise ValueError("bracket must satisfy 0 <= lo <= hi")
        if self.hi - self.lo > self.width_cap:
            raise ValueError("bracket wider than its certified cap")


GeometricSet = Union[Point, Box, DigitalSet]


def volume(box: Box) -> Fraction:
    v = Fraction(1)
    for lo, hi in box.intervals:
        v *= hi - lo
    return v


def min_side(box: Box) -> Fraction:
    return min(hi - lo for lo, hi in box.intervals)


def diam_sq(box: Box) -> Fraction:
    return sum(((hi - lo) ** 2 for lo, hi in box.intervals), Fraction(0))


def _box_gap_sq(a: Sequence[tuple], b: Sequence[tuple]) -> Fraction:
    """Squared gap between two boxes given as per-axis (lo, hi) pairs."""
    total = Fraction(0)
    for (alo, ahi), (blo, bhi) in zip(a, b):
        gap = max(blo - ahi, alo - bhi)
        if gap > 0:
            total += gap * gap
    return total


def _as_boxes(obj: GeometricSet) -> list[Box]:
    if isinstance(obj, Point):
        return [Box(tuple((c, c) for c in obj.coords))]
    if isinstance(obj, Box):
        return [obj]
    if isinstance(obj, DigitalSet):
        return obj.boxes()
    raise TypeError(f"unsupported geometric object: {type(obj)!r}")


def _dist_sq_digital(a: DigitalSet, b: DigitalSet) -> Fraction:
    # common integer scale keeps the whole scan in integer arithmetic
    scale = lcm(a.b**a.m, b.b**b.m)
    fa, fb = scale // a.b**a.m, scale // b.b**b.m
    best = a.n * scale * scale  # exceeds every squared gap on this grid
    for ca in a.cells:
        lo = tuple(j * fa for j in ca)
        hi = tuple(j + fa for j in lo)
        best = _nearest_gap_sq(lo, hi, b.cells, fb, best, 0)
        if best == 0:
            return Fraction(0)
    return Fraction(best, scale * scale)


def dist_sq(a: GeometricSet, b: GeometricSet) -> Fraction:
    """Exact squared Euclidean distance between two compact sets.

    Zero exactly when the (closed) sets intersect.
    """
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    if isinstance(a, DigitalSet) and isinstance(b, DigitalSet):
        return _dist_sq_digital(a, b)
    boxes_a, boxes_b = _as_boxes(a), _as_boxes(b)
    best: Fraction | None = None
    for ba in boxes_a:
        for bb in boxes_b:
            d = _box_gap_sq(ba.intervals, bb.intervals)
            if best is None or d < best:
                best = d
                if best == 0:
                    return Fraction(0)
    assert best is not None
    return best


def _contains(piece: Box, lo: tuple, hi: tuple) -> bool:
    return all(
        plo <= tlo and thi <= phi
        for (plo, phi), tlo, thi in zip(piece.intervals, lo, hi)
    )


def _touches(piece: Box, lo: tuple, hi: tuple) -> bool:
    return all(
        plo <= thi and tlo <= phi
        for (plo, phi), tlo, thi in zip(piece.intervals, lo, hi)
    )


def covers_box(target: Box, pieces: Sequence[Box]) -> bool:
    """Exact decision of target ⊆ union(pieces), all boxes closed.

    Splits the target at the median piece boundary crossing its interior on
    the first crossed axis, left half first, on an explicit stack.  Each
    sub-box keeps only the pieces that touch it, so N thin pieces split in
    O(N log N) rather than one boundary at a time.  Once no piece boundary
    crosses a sub-box, the sub-box is covered iff a single piece contains
    it, which makes the verdict exact whichever crossing is split at.
    """
    n = target.n
    for p in pieces:
        if p.n != n:
            raise ValueError("dimension mismatch")

    lo = tuple(iv[0] for iv in target.intervals)
    hi = tuple(iv[1] for iv in target.intervals)
    stack = [(lo, hi, list(pieces))]
    while stack:
        lo, hi, live = stack.pop()
        live = [p for p in live if _touches(p, lo, hi)]
        if any(_contains(p, lo, hi) for p in live):
            continue
        split = _crossing(live, lo, hi)
        if split is None:
            return False
        axis, v = split
        stack.append((lo[:axis] + (v,) + lo[axis + 1 :], hi, live))
        stack.append((lo, hi[:axis] + (v,) + hi[axis + 1 :], live))
    return True


def _crossing(pieces: list[Box], lo: tuple, hi: tuple) -> tuple[int, Fraction] | None:
    """Median piece boundary strictly inside lo..hi on the first axis that has one."""
    for axis, (tlo, thi) in enumerate(zip(lo, hi)):
        inside = sorted({v for p in pieces for v in p.intervals[axis] if tlo < v < thi})
        if inside:
            return axis, inside[len(inside) // 2]
    return None


def _cell_gap_sq(lo: tuple, hi: tuple, cell: tuple[int, ...], f: int, cap: int) -> int:
    """Squared gap from the integer box lo..hi to the box cell*f..(cell+1)*f.

    The sum stops once it reaches ``cap``, so a value ``>= cap`` says only that.
    """
    total = 0
    for x0, x1, j in zip(lo, hi, cell):
        gap = max(j * f - x1, x0 - (j + 1) * f)
        if gap > 0:
            total += gap * gap
            if total >= cap:
                break
    return total


def _nearest_gap_sq(
    lo: tuple, hi: tuple, cells: Sequence[tuple[int, ...]], f: int, best: int, floor: int
) -> int:
    """min(best, least squared gap from the box lo..hi to a cell), cut short at floor.

    ``cells`` are sorted and cell j spans j*f..(j+1)*f.  The scan starts at
    the bisected position of ``lo // f``, the cell holding the corner
    ``lo``, and runs outward both ways.  That cell's column has first-axis
    gap 0, cells after it have no smaller first index and cells before it
    no larger, so along either run the first-axis gap never shrinks: a run
    stops once that gap alone reaches ``best``, and the value is exact.
    Once ``best <= floor`` the caller needs no smaller value, and it is
    returned at once.
    """
    i = bisect_left(cells, tuple(x // f for x in lo))
    for run in (range(i, len(cells)), range(i - 1, -1, -1)):
        for k in run:
            cell = cells[k]
            gap = max(cell[0] * f - hi[0], lo[0] - (cell[0] + 1) * f, 0)
            if gap * gap >= best:
                break
            best = min(best, _cell_gap_sq(lo, hi, cell, f, best))
            if best <= floor:
                return best
    return best


def _directed_max_min_dist_sq(
    cells_a: Sequence[tuple[int, ...]],
    cells_b: Sequence[tuple[int, ...]],
    far: int,
) -> int:
    # centers of A-cells against the union of B-cells, doubled-grid integers;
    # far exceeds every such distance, and a cell whose nearest B-cell is no
    # farther than the running maximum cannot raise it, so its scan stops
    # (at once, for a cell of B: the scan tests it first)
    worst = 0
    for ca in cells_a:
        center = tuple(2 * j + 1 for j in ca)
        worst = max(worst, _nearest_gap_sq(center, center, cells_b, 2, far, worst))
    return worst


def hausdorff_bracket(a: DigitalSet, b: DigitalSet, sample_depth: int) -> HBracket:
    """Certified bracket around the Hausdorff distance of two digital sets.

    Both sets are refined to ``sample_depth``; cell centers sample each set
    exactly, and the 1-Lipschitz dependence of the distance function bounds
    the sampling error by half a cell diameter.

    Each directed distance is the largest, over one set's cell centers, of
    the least distance to the other set's cells, in doubled-grid integers.
    A center's nearest cell comes from the exact sorted scan of
    ``_nearest_gap_sq``, which stops early once the center is known not to
    raise the running maximum (Taha and Hanbury, IEEE TPAMI 37(11), 2015).
    So the value is that of testing all pairs, and no pair is tested twice.
    """
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    if a.b != b.b:
        raise ValueError("base mismatch")
    if sample_depth < max(a.m, b.m):
        raise ValueError("sample depth must refine both sets")
    ar = a.refine(sample_depth)
    br = b.refine(sample_depth)
    unit = 2 * a.b**sample_depth
    far = a.n * unit * unit
    d2 = max(
        _directed_max_min_dist_sq(ar.cells, br.cells, far),
        _directed_max_min_dist_sq(br.cells, ar.cells, far),
    )
    # keep the enclosure grid fine enough for the certified width cap
    eff = max(DEFAULT_PRECISION, unit * unit)
    sq = Fraction(d2, unit * unit)
    root_n_up = root_upper(Fraction(a.n), 2, eff)
    half_cell = root_n_up / unit
    lo = root_lower(sq, 2, eff)
    hi = root_upper(sq, 2, eff) + half_cell
    cap = root_n_up * Fraction(1, a.b**sample_depth)
    return HBracket(lo=lo, hi=hi, sample_depth=sample_depth, width_cap=cap)
