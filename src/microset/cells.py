"""Value records and the integer frame that every subcommand shares.

Every record of the package is a ``Record``: a frozen value class whose
methods are written once here, not generated for each class at import.
Points and boxes store their coordinates as Fractions, a ``DigitalSet``
the int cells of one base-b grid, and a ``CoverSeq`` a claimed cover
under the budget eps**k; the dust adversaries build covers, and the
cover checks read them.

Each box carries its own integer frame, built once in ``Box.__init__``:
``D``, the lcm of its bound denominators, and its bounds times ``D``.  A
piece-by-piece check, the cube shape and the budget of a cover, reads
these alone.  A box query maps every bound in play onto one common frame:
``_frame`` gives the lcm of the boxes' ``D`` (and of a set's ``b**m``), and
``_on_frame`` rescales each box's ints to it, once per call, so the
decision itself compares and subtracts ints.  Only this module knows how
a box becomes ints.  On that frame cell j
spans j*f..(j+1)*f (``_cell_bounds``), a box holds or touches the cells
of its ``_window``, and ``_touching_pieces`` lists, for each sorted cell,
the pieces that touch it.

This module holds what more than one algorithm family reads.  Each
family, ``covers``, ``ball``, ``geometry``, ``dust`` and ``baire``, takes
its eager imports from here and from ``rational`` alone, so a process
compiles only the family its subcommand runs.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Sequence

from .rational import _frac, root_lower


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
    """Closed axis-aligned box, one (lo, hi) pair per axis, lo <= hi.

    Beside its field it keeps its own integer frame, which equality, hashing
    and ``repr`` do not see: ``_den``, the lcm of its bound denominators, and
    ``_ints``, its bounds times ``_den``.
    """

    intervals: tuple[tuple[Fraction, Fraction], ...]

    def __init__(self, intervals: Iterable[tuple]):
        ivs = tuple((_frac(lo), _frac(hi)) for lo, hi in intervals)
        if not ivs:
            raise ValueError("box needs at least one axis")
        den = lcm(*(v.denominator for iv in ivs for v in iv))
        ints = tuple((lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator)) for lo, hi in ivs)
        for (lo, hi), (a, z) in zip(ivs, ints):
            if a > z:
                raise ValueError(f"inverted interval [{lo}, {hi}]")
        object.__setattr__(self, "intervals", ivs)  # not _set: one call less per piece
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_ints", ints)

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

    A cell index tuple (j_1, ..., j_n) of ints names the box
    prod_i [j_i / b**m, (j_i + 1) / b**m].  Cells are stored sorted and
    deduplicated; this is the canonical form used by serialization.
    Int tuples already in strictly increasing order, as ``sample_compact``
    and a ``digitalset/1`` file give them, are kept as given, the caller's
    tuples included, once a scan of neighbours confirms the order; only
    other input is sorted and deduplicated, once.
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
        cells = tuple(cells)
        if not cells:
            raise ValueError("digital set must be nonempty")
        if {*map(type, cells)} != {tuple}:
            cells = tuple(map(tuple, cells))
        if {*map(len, cells)} != {n}:
            raise ValueError("cell arity differs from dimension")
        indices = itertools.chain.from_iterable
        if {*map(type, indices(cells))} != {int}:
            raise ValueError("cell indices must be ints")
        if not all(map(operator.lt, cells, itertools.islice(cells, 1, None))):
            cells = tuple(sorted(set(cells)))
        if min(indices(cells)) < 0 or not _below_power(max(indices(cells)), b, m):
            raise ValueError(f"cell index out of range for depth {m}")
        self._set(n, b, m, cells)

    @property
    def cell_side(self) -> Fraction:
        return Fraction(1, self.b**self.m)

    def refine(self, depth: int) -> "DigitalSet":
        """The same set re-gridded at a deeper depth (same base), its cells made in sorted order."""
        if depth < self.m:
            raise ValueError("refinement depth must be >= current depth")
        if depth == self.m:
            return self
        return DigitalSet(self.n, self.b, depth, tuple(_refined(self.cells, self.b ** (depth - self.m))))


def _refined(cells: list[tuple[int, ...]], f: int) -> list[tuple[int, ...]]:
    """Sorted cells cut into f parts per axis, sorted: each run of one first
    index j takes j*f .. j*f + f - 1 in turn, each with the run's other axes cut."""
    if not cells[0]:
        return cells
    out = []
    for j, run in itertools.groupby(cells, operator.itemgetter(0)):
        rest = _refined([cell[1:] for cell in run], f)
        out += [(x, *tail) for x in range(j * f, j * f + f) for tail in rest]
    return out


def _frame(boxes: Iterable[Box], base: int = 1) -> int:
    """The lcm of ``base`` and every box's own frame, so of every bound denominator."""
    return lcm(base, *{box._den for box in boxes})


def _on_frame(box: Box, frame: int) -> tuple[tuple[int, int], ...]:
    """The box's bounds times ``frame``, a multiple of its own, as ints; on its own frame, its stored tuple."""
    up = frame // box._den
    return box._ints if up == 1 else tuple((lo * up, hi * up) for lo, hi in box._ints)


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


def _cell_bounds(cell: tuple[int, ...], f: int) -> tuple[tuple[int, int], ...]:
    return tuple((j * f, (j + 1) * f) for j in cell)


def _column_index(cells: Sequence[tuple[int, ...]]) -> tuple[list[int], list[int]]:
    """The first-axis values of sorted cells, and where each one's run starts, closed by len(cells)."""
    columns, starts = [], []
    for i, cell in enumerate(cells):
        if not columns or columns[-1] != cell[0]:
            columns.append(cell[0])
            starts.append(i)
    starts.append(len(cells))
    return columns, starts


def _touching_pieces(cells: Sequence[tuple[int, ...]], pieces: Sequence[tuple], f: int, slack: int = 1) -> list[list[int]]:
    """For each cell, in order, the ascending indices of the pieces touching it.

    Cells are sorted and cell j spans j*f..(j+1)*f on the pieces' integer
    frame; a piece touches the cells of its ``_window`` with this ``slack``,
    1 by default.  Only the first-axis columns that hold cells are visited, by
    bisection, so a piece reaching far outside the cube costs no more than
    one that does not.  In each such column the cells of the second-axis
    range are one bisected run, and only they test the remaining axes.  The
    cover checker, the ball checks, the survivor descent and its checker all
    ask this one index.
    """
    columns, starts = _column_index(cells)
    touching: list[list[int]] = [[] for _ in cells]
    for h, piece in enumerate(pieces):
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
                    touching[j].append(h)
    return touching


def _budget(eps) -> Fraction:
    """eps as a Fraction, refused unless 0 < eps < 1: the one check of a cover budget."""
    eps = _frac(eps)
    if not 0 < eps < 1:
        raise ValueError("eps must lie strictly between 0 and 1")
    return eps


def _budget_sides(eps: Fraction, n: int) -> Iterator[Fraction]:
    """Per position k = 1, 2, ..., a certified lower enclosure of eps**(k/n).

    The grid enclosure of the n-th root of eps**k and the k-th power of
    that of eps are both lower bounds; the larger is kept.
    """
    root_lo = root_lower(eps, n)
    for k in itertools.count(1):
        yield max(root_lower(eps**k, n), root_lo**k)


class CoverSeq(Record):
    """Ordered cover pieces under the budget volume(piece_k) <= eps**k.

    The budget is a claim checked by ``first_budget_violation``, not a
    constructor guarantee, so defective certificates stay representable.
    ``strong`` asserts the geometric cube shape of every piece and is
    enforced here.  Both read each piece on its own integer frame.
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
            for piece in pieces:
                sides = {hi - lo for lo, hi in piece._ints}
                if len(sides) != 1 or min(sides) <= 0:
                    raise ValueError("strong cover pieces must be cubes")

    def first_budget_violation(self, eps: Fraction | None = None) -> int | None:
        """First position k with volume(piece_k) > eps**k, or None.

        ``eps`` defaults to the cover's own; ``merge_covers`` passes the
        strengthened budget its inputs must meet, checked as the cover's is.
        With eps = p/q and piece k on its own integer frame D_k, the test is
        prod(hi - lo) * q**k > p**k * D_k**n, with running powers.
        """
        eps = self.eps if eps is None else _budget(eps)
        p_k = q_k = 1
        for k, piece in enumerate(self.pieces, start=1):
            p_k *= eps.numerator
            q_k *= eps.denominator
            vol = 1
            for lo, hi in piece._ints:
                vol *= hi - lo
            if vol * q_k > p_k * piece._den**self.n:
                return k
        return None
