"""Exact geometry over the unit cube: points, boxes, digital sets, brackets.

Points and boxes store their coordinates as Fractions.  A box query maps
every bound in play onto one integer frame: with ``D`` the lcm of the
bounds' denominators (and of a set's ``b**m``), ``_frame`` gives ``D`` and
``_on_frame`` each bound times ``D``, once per call, so the decision itself
compares and subtracts ints; ``covers_box`` runs its median split there.
Distances are handled as squared values so that every comparison stays
exact; Euclidean roots appear only inside ``hausdorff_bracket``, which
returns a certified rational enclosure.

A Hausdorff bracket measures from the cell centers of one set, refined to
the sample depth, to the other set's own cells on the doubled grid, where
every squared distance is an integer.  The nearest cell of a sorted set
to a point is found by a pruned scan rather than by testing every cell:
``_nearest_gap_sq`` visits first-axis columns outward from the point's
and, in each, cells outward from its bisected second coordinate, and it
stops a run once the gap on the axes scanned so far reaches the best
distance found, which no later cell of that run can beat.

Every record of the package is a ``Record``: a frozen value class whose
methods are written once here, not generated for each class at import.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .rational import DEFAULT_PRECISION, root_lower, root_upper


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floats are not accepted; use Fraction")
    return Fraction(value)


class Record:
    """Frozen value record; its fields are its annotated names, in order.

    Records equal only records of their own class with equal fields, hash by
    their fields, and refuse assignment and deletion with ``AttributeError``.
    A record that normalises or checks its fields sets each one once in its
    own ``__init__``; the others take them as positional or keyword arguments.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields += tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        names = self._fields
        values = dict(zip(names, args))
        if len(args) > len(names) or values.keys() & kwargs or {*values, *kwargs} != {*names}:
            raise TypeError(f"{type(self).__name__} takes exactly the fields {names}")
        values.update(kwargs)
        self._set(*(values[name] for name in names))

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign or delete {name!r}: {type(self).__name__} is frozen")

    __delattr__ = __setattr__


class Point(Record):
    """A point of the closed unit cube."""

    coords: tuple[Fraction, ...]

    def __init__(self, coords: Iterable):
        coords = tuple(_frac(c) for c in coords)
        if not coords:
            raise ValueError("point needs at least one coordinate")
        if any(c < 0 or c > 1 for c in coords):
            raise ValueError("point coordinates must lie in [0, 1]")
        object.__setattr__(self, "coords", coords)  # not _set: one call less per point

    @property
    def n(self) -> int:
        return len(self.coords)


class Box(Record):
    """Closed axis-aligned box, one (lo, hi) pair per axis, lo <= hi."""

    intervals: tuple[tuple[Fraction, Fraction], ...]

    def __init__(self, intervals: Iterable[tuple]):
        ivs = tuple((_frac(lo), _frac(hi)) for lo, hi in intervals)
        if not ivs:
            raise ValueError("box needs at least one axis")
        for lo, hi in ivs:
            if lo > hi:
                raise ValueError(f"inverted interval [{lo}, {hi}]")
        object.__setattr__(self, "intervals", ivs)  # not _set: one call less per piece

    @property
    def n(self) -> int:
        return len(self.intervals)

    @classmethod
    def cube(cls, corner: Sequence[Fraction], side: Fraction) -> "Box":
        """The cube [corner, corner + side] on every axis; side must be positive."""
        side = _frac(side)
        if side <= 0:
            raise ValueError("cube side must be positive")
        return cls(tuple((_frac(c), _frac(c) + side) for c in corner))


def _below_power(x: int, b: int, m: int) -> bool:
    """x < b**m for x >= 0, decided by bit lengths before any power is formed.

    With L = b.bit_length(), 2**(L-1) <= b < 2**L: b**m is formed only for an x of more than (L-1)*m bits.
    """
    bits, top = x.bit_length(), b.bit_length()
    return bits <= (top - 1) * m or (bits <= top * m and x < b**m)


class DigitalSet(Record):
    """Nonempty union of closed depth-m grid cells of [0,1]^n in base b.

    A cell index tuple (j_1, ..., j_n) names the box
    prod_i [j_i / b**m, (j_i + 1) / b**m].  Cells are stored sorted and
    deduplicated; this is the canonical form used by serialization.
    """

    n: int
    b: int
    m: int
    cells: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, b: int, m: int, cells: Iterable[tuple[int, ...]]):
        if n < 1:
            raise ValueError("dimension must be >= 1")
        if b < 2:
            raise ValueError("base must be >= 2")
        if m < 0:
            raise ValueError("depth must be >= 0")
        cells = tuple(sorted({tuple(map(int, cell)) for cell in cells}))
        if not cells:
            raise ValueError("digital set must be nonempty")
        if any(len(cell) != n for cell in cells):
            raise ValueError("cell arity differs from dimension")
        if min(map(min, cells)) < 0 or not _below_power(max(map(max, cells)), b, m):
            raise ValueError(f"cell index out of range for depth {m}")
        self._set(n, b, m, cells)

    @property
    def cell_side(self) -> Fraction:
        return Fraction(1, self.b**self.m)

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


class HBracket(Record):
    """Certified rational bracket [lo, hi] around a Hausdorff distance."""

    lo: Fraction
    hi: Fraction
    sample_depth: int
    width_cap: Fraction

    def __init__(self, lo: Fraction, hi: Fraction, sample_depth: int, width_cap: Fraction):
        if sample_depth < 0:
            raise ValueError("sample depth must be >= 0")
        if lo < 0 or hi < lo:
            raise ValueError("bracket must satisfy 0 <= lo <= hi")
        if hi - lo > width_cap:
            raise ValueError("bracket wider than its certified cap")
        self._set(lo, hi, sample_depth, width_cap)


def volume(box: Box) -> Fraction:
    v = Fraction(1)
    for lo, hi in box.intervals:
        v *= hi - lo
    return v


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


def _frame(boxes: Iterable[Box], base: int = 1) -> int:
    """The lcm of ``base`` and every bound denominator of the boxes."""
    return lcm(base, *{v.denominator for box in boxes for iv in box.intervals for v in iv})


def _on_frame(box: Box, frame: int) -> tuple[tuple[int, int], ...]:
    """The box's bounds times ``frame``, a multiple of their denominators, as ints."""
    return tuple(
        (lo.numerator * (frame // lo.denominator), hi.numerator * (frame // hi.denominator))
        for lo, hi in box.intervals
    )


def _window(bounds: Sequence[tuple[int, int]], f: int, slack: int) -> tuple[tuple[int, int], ...]:
    """Per-axis index range of the cells j*f..(j+1)*f that a box, given by its
    per-axis (lo, hi) bounds on an integer frame, holds.

    With ``slack=1`` these are the closed cells it touches,
    ``ceil(lo/f) - 1 <= j <= floor(hi/f)``; with ``slack=0`` the cells it
    contains, ``ceil(lo/f) <= j <= floor(hi/f) - 1``.  A slack of ``1 + g``
    widens the touching window by g cells each way.
    """
    return tuple((-(-lo // f) - slack, hi // f - 1 + slack) for lo, hi in bounds)


def _in_window(cell: tuple[int, ...], window: tuple[tuple[int, int], ...]) -> bool:
    return all(a <= j <= z for j, (a, z) in zip(cell, window))


def _contains(piece: tuple, lo: tuple, hi: tuple) -> bool:
    return all(plo <= tlo and thi <= phi for (plo, phi), tlo, thi in zip(piece, lo, hi))


def _touches(piece: tuple, lo: tuple, hi: tuple) -> bool:
    return all(plo <= thi and tlo <= phi for (plo, phi), tlo, thi in zip(piece, lo, hi))


def covers_box(target: Box, pieces: Sequence[Box]) -> bool:
    """Exact decision of target ⊆ union(pieces), all boxes closed.

    Maps the target and the pieces onto their integer frame and decides
    there with ``_covers``.
    """
    if any(p.n != target.n for p in pieces):
        raise ValueError("dimension mismatch")
    frame = _frame([target, *pieces])
    return _covers(_on_frame(target, frame), [_on_frame(p, frame) for p in pieces])


def _covers(target: tuple, pieces: Sequence[tuple]) -> bool:
    """Whether target lies in the union of pieces, closed boxes given as
    per-axis (lo, hi) int pairs on one frame.

    Splits the target at the median piece boundary crossing its interior on
    the first crossed axis, left half first, on an explicit stack.  Each
    sub-box keeps only the pieces that touch it, so N thin pieces split in
    O(N log N) rather than one boundary at a time.  Once no piece boundary
    crosses a sub-box, the sub-box is covered iff a single piece contains
    it, which makes the verdict exact whichever crossing is split at.
    """
    lo, hi = zip(*target)
    stack = [(lo, hi, pieces)]
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


def _crossing(pieces: list[tuple], lo: tuple, hi: tuple) -> tuple[int, int] | None:
    """Median piece boundary strictly inside lo..hi on the first axis that has one."""
    for axis, (tlo, thi) in enumerate(zip(lo, hi)):
        inside = sorted({v for p in pieces for v in p[axis] if tlo < v < thi})
        if inside:
            return axis, inside[len(inside) // 2]
    return None


def _cell_gap_sq(point: tuple, cell: tuple[int, ...], f: int, cap: int) -> int:
    """Squared gap from the integer point to the box cell*f..(cell+1)*f.

    The sum stops once it reaches ``cap``, so a value ``>= cap`` says only that.
    """
    total = 0
    for x, j in zip(point, cell):
        gap = max(j * f - x, x - (j + 1) * f)
        if gap > 0:
            total += gap * gap
            if total >= cap:
                break
    return total


def _column_index(cells: Sequence[tuple[int, ...]]) -> tuple[list[int], list[int]]:
    """The first-axis values of sorted cells, and where each one's run starts, closed by len(cells)."""
    columns, starts = [], []
    for i, cell in enumerate(cells):
        if not columns or columns[-1] != cell[0]:
            columns.append(cell[0])
            starts.append(i)
    starts.append(len(cells))
    return columns, starts


def _nearest_gap_sq(point: tuple, cells: Sequence[tuple[int, ...]], index: tuple, f: int, best: int, floor: int) -> int:
    """min(best, least squared gap from the integer point to a cell), cut short at floor.

    ``cells`` are sorted, of dimension >= 2, with ``index`` their
    ``_column_index``, and cell j spans j*f..(j+1)*f.  Columns run outward
    both ways from the point's own, and in each column cells run outward
    both ways from the point's bisected second coordinate.  Along a run of
    columns the first-axis gap never shrinks, nor along a run of cells the
    gap on the first two axes, so a run stops once that gap reaches
    ``best``; ``_cell_gap_sq`` adds the other axes, and the value is exact.
    Once ``best <= floor`` the caller needs no smaller value, and it is
    returned at once.
    """
    columns, starts = index
    x, y = point[0], point[1]
    here = bisect_left(columns, x // f)
    for run in (range(here, len(columns)), range(here - 1, -1, -1)):
        for c in run:
            gap = max(columns[c] * f - x, x - (columns[c] + 1) * f, 0)
            across = gap * gap
            if across >= best:
                break
            lo, hi = starts[c], starts[c + 1]
            i = bisect_left(cells, (columns[c], y // f), lo, hi)
            for side in (range(i, hi), range(i - 1, lo - 1, -1)):
                for k in side:
                    cell = cells[k]
                    gap = max(cell[1] * f - y, y - (cell[1] + 1) * f, 0)
                    near = across + gap * gap
                    if near >= best:
                        break
                    best = min(best, near + _cell_gap_sq(point[2:], cell[2:], f, best - near))
                    if best <= floor:
                        return best
    return best


def _directed_max_min_dist_sq(cells_a: Sequence[tuple[int, ...]], cells_b: Sequence[tuple[int, ...]], f: int, far: int) -> int:
    # centers of A-cells against the union of B-cells of doubled width f;
    # far exceeds every such distance, and a cell whose nearest B-cell is no
    # farther than the running maximum cannot raise it, so its scan stops
    # (at once, for a center inside B: the scan tests the cell holding it first)
    if len(cells_a[0]) == 1:  # a line is scanned as a strip of the plane, one cell high
        cells_a, cells_b = [(j, 0) for j, in cells_a], [(j, 0) for j, in cells_b]
    index = _column_index(cells_b)
    worst = 0
    for ca in cells_a:
        center = tuple([2 * j + 1 for j in ca])
        worst = max(worst, _nearest_gap_sq(center, cells_b, index, f, far, worst))
    return worst


def hausdorff_bracket(a: DigitalSet, b: DigitalSet, sample_depth: int) -> HBracket:
    """Certified bracket around the Hausdorff distance of two digital sets.

    Both sets are refined to ``sample_depth``; cell centers sample each set
    exactly, and the 1-Lipschitz dependence of the distance function bounds
    the sampling error by half a cell diameter.

    Each directed distance is the largest, over one set's refined cell
    centers, of the least distance to the other set's cells, in
    doubled-grid integers.  That distance does not depend on how finely the
    other set is cut, so its own cells are scanned, unrefined.  A center's
    nearest cell comes from the exact sorted scan of ``_nearest_gap_sq``,
    which stops early once the center is known not to raise the running
    maximum (Taha and Hanbury, IEEE TPAMI 37(11), 2015).  So the value is
    that of testing all pairs, and no pair is tested twice.
    """
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    if a.b != b.b:
        raise ValueError("base mismatch")
    if sample_depth < max(a.m, b.m):
        raise ValueError("sample depth must refine both sets")
    unit = 2 * a.b**sample_depth
    far = a.n * unit * unit
    d2 = max(
        _directed_max_min_dist_sq(a.refine(sample_depth).cells, b.cells, unit // b.b**b.m, far),
        _directed_max_min_dist_sq(b.refine(sample_depth).cells, a.cells, unit // a.b**a.m, far),
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
