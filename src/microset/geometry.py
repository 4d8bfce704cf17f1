"""Certified brackets around the Hausdorff distance of two digital sets.

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

Only ``hausdorff`` and ``baire.finite_skeleton`` run this module; the
sets and records it reads are defined in ``cells``.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import Sequence

from .cells import DigitalSet, Record, _column_index
from .rational import DEFAULT_PRECISION, root_lower, root_upper


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
