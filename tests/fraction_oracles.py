"""The box queries in ``Fraction`` arithmetic, kept as test oracles.

These are the decisions the library makes on one integer frame per call,
written as they stood before the frame: every bound stays a ``Fraction``,
no touching window prefilters anything, and each cell meets every piece or
box.  ``covers_box`` splits at the median crossing boundary,
``outside_faces`` samples one point per face of the box-bound arrangement,
and ``membership`` and ``stability_radius`` run that arrangement on every
cell.  A box is passed as its per-axis (lo, hi) pairs.

``dist_sq`` takes the least gap over every pair of boxes of two sets, and
``intersect_count`` counts the dust cubes of one level at distance 0 from a
box.  ``bucket`` and ``hit_rows`` state the survivor argument's position
buckets and worst-case hit counts in closed form, and ``premise_budget``
the largest budget its gap premises admit up to a depth.  ``series_upper`` bounds
``sum_k eps**(num*k/den)`` by a prefix of per-term enclosures plus a
geometric tail; the library keeps only its tail, ``covers._series_upper``.

``leaf_cell`` places a leaf by the letter walk, one level's factor at a
time, where the library's one map ``dust._leaf_cells`` sums per-level
steps for the checker and the adversaries alike.

``sides``, ``volume``, ``vertices``, ``cell_box``, ``cell_boxes``,
``level_boxes`` and ``level_digital`` are the ``Fraction`` views of boxes,
digital sets and dust levels that only tests read, and ``on_frame`` a box's
bounds times a frame.  ``svg_rect`` draws a box from its ``Fraction``
bounds, each coordinate floored by the ``decimal`` module.
"""

import decimal
import itertools
from decimal import Decimal
from fractions import Fraction
from math import ceil, floor

from microset.cells import Box, DigitalSet, Point
from microset.rational import DEFAULT_PRECISION, root_lower, root_upper


def sides(box):
    return tuple(hi - lo for lo, hi in box.intervals)


def volume(box):
    v = Fraction(1)
    for lo, hi in box.intervals:
        v *= hi - lo
    return v


def vertices(box):
    return itertools.product(*box.intervals)


def cell_box(e, cell):
    """The closed box of one cell of the digital set e."""
    s = e.cell_side
    return Box(tuple((j * s, (j + 1) * s) for j in cell))


def cell_boxes(e):
    return [cell_box(e, cell) for cell in e.cells]


def level_boxes(tree, k):
    """Level k of a dust tree as (word, closed cube) pairs, in word order."""
    side = tree.spec.level_side(k)
    return tuple((word, Box.cube(tuple(j * side for j in cell), side)) for word, cell in tree.levels[k - 1])


def level_digital(tree, k):
    """Level-k union of a dust tree as a digital set: each cube is one depth-k**2 cell."""
    cells = tuple(cell for _, cell in tree.levels[k - 1])
    return DigitalSet(tree.spec.n, tree.spec.b, tree.spec.grid(k), cells)


def svg_dec(x):
    """1000 * x floored to 6 decimal places, by the decimal module, its trailing zeros dropped.

    The quotient is floored at 60 significant digits and then at 6 places,
    which is the floor at 6 places of the exact value for any |1000 * x| below 10**50.
    """
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.rounding = 60, decimal.ROUND_FLOOR
        value = (Decimal(1000 * x.numerator) / x.denominator).quantize(Decimal("1e-6"))
    return format(value.normalize(), "f")


def svg_rect(box, fill, opacity):
    (x0, x1), (y0, y1) = box.intervals
    x = svg_dec(x0)
    y = svg_dec(Fraction(1) - y1)
    w = svg_dec(x1 - x0)
    h = svg_dec(y1 - y0)
    return (
        f'<rect x="{x}" y="{y}" width="{w}" height="{h}" '
        f'fill="{fill}" fill-opacity="{opacity}" stroke="none"/>'
    )


def cell_window(piece, scale, slack):
    """Per-axis index range of the closed 1/scale-grid cells the piece holds.

    With ``slack=1`` these are the cells the piece touches,
    ``ceil(lo*scale) - 1 <= j <= floor(hi*scale)``; with ``slack=0`` the
    cells it contains, ``ceil(lo*scale) <= j <= floor(hi*scale) - 1``.
    """
    return tuple((ceil(lo * scale) - slack, floor(hi * scale) - 1 + slack) for lo, hi in piece.intervals)


def on_frame(box, frame):
    """The box's bounds times ``frame`` as ints; each product must be whole."""
    scaled = [v * frame for iv in box.intervals for v in iv]
    assert all(v.denominator == 1 for v in scaled)
    return tuple(zip(map(int, scaled[::2]), map(int, scaled[1::2])))


def budget_violation(cover, eps=None):
    """First position k with volume(piece_k) > eps**k, or None."""
    eps = cover.eps if eps is None else eps
    for k, piece in enumerate(cover.pieces, start=1):
        if volume(piece) > eps**k:
            return k
    return None


def _contains(piece, lo, hi):
    return all(plo <= tlo and thi <= phi for (plo, phi), tlo, thi in zip(piece, lo, hi))


def _touches(piece, lo, hi):
    return all(plo <= thi and tlo <= phi for (plo, phi), tlo, thi in zip(piece, lo, hi))


def _crossing(pieces, lo, hi):
    for axis, (tlo, thi) in enumerate(zip(lo, hi)):
        inside = sorted({v for p in pieces for v in p[axis] if tlo < v < thi})
        if inside:
            return axis, inside[len(inside) // 2]
    return None


def covers_box(target, pieces):
    """Whether the closed target lies in the union of the closed pieces."""
    lo = tuple(iv[0] for iv in target)
    hi = tuple(iv[1] for iv in target)
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


def verify(e, cover):
    """(first budget violation, first uncovered cell) against the whole cover."""
    pieces = [piece.intervals for piece in cover.pieces]
    witness = next((c for c in e.cells if not covers_box(cell_box(e, c).intervals, pieces)), None)
    return budget_violation(cover), witness


def meets(box, target):
    """Whether the relative-open box meets the closed target."""
    return all(blo < thi and tlo < bhi for (blo, bhi), (tlo, thi) in zip(box, target))


def outside_faces(target, boxes):
    """Closed faces of target's box-bound arrangement that no box strictly holds."""
    live = [box for box in boxes if meets(box, target)]
    axes = []
    for axis, (tlo, thi) in enumerate(target):
        inner = {v for box in live for v in box[axis] if tlo < v < thi}
        cuts = sorted(inner | {tlo, thi})
        gaps = [(x, (x + y) / 2, y) for x, y in zip(cuts, cuts[1:])]
        axes.append([(v, v, v) for v in cuts] + gaps)
    for face in itertools.product(*axes):
        if not any(
            all(blo < c < bhi for (_, c, _), (blo, bhi) in zip(face, box)) for box in live
        ):
            yield tuple((lo, hi) for lo, _, hi in face)


def gap_sq(a, b):
    total = Fraction(0)
    for (alo, ahi), (blo, bhi) in zip(a, b):
        gap = max(blo - ahi, alo - bhi)
        if gap > 0:
            total += gap * gap
    return total


def _boxes(obj):
    """A point, box or digital set as the per-axis (lo, hi) pairs of its boxes."""
    if isinstance(obj, Point):
        return [tuple((c, c) for c in obj.coords)]
    if isinstance(obj, Box):
        return [obj.intervals]
    return [box.intervals for box in cell_boxes(obj)]


def dist_sq(a, b):
    """Exact squared distance of two points, boxes or digital sets; 0 iff they meet."""
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    return min(gap_sq(x, y) for x in _boxes(a) for y in _boxes(b))


def intersect_count(tree, k, box):
    """How many level-k cubes of the tree the closed box touches."""
    return sum(1 for _, cube in level_boxes(tree, k) if dist_sq(cube, box) == 0)


def bucket(k):
    """The positions h >= 1 with k**2 <= 4h < (k+1)**2, which level k must absorb."""
    return tuple(range(-(-k * k // 4), -(-(k + 1) ** 2 // 4)))


def premise_budget(b, depth):
    """E(depth) = min D_j**(n/h_j) over the non-empty buckets j <= depth, as its pair (D_j, h_j).

    D_j = b**-((j-1)**2) - 2*b**-(j**2) is the level-j gap and h_j the first
    position of bucket j.  For eps < 1 an eps-budgeted cover meets every gap
    premise up to depth exactly when eps**(h_j/n) < D_j for each such j, so
    E = D**(n/h) for the returned pair, whatever n.  The terms are compared
    exactly, as D_j**h_k against D_k**h_j.
    """
    terms = [
        (Fraction(1, b ** ((j - 1) ** 2)) - Fraction(2, b ** (j * j)), bucket(j)[0])
        for j in range(1, depth + 1)
        if bucket(j)
    ]
    least = terms[0]
    for d, h in terms[1:]:
        if d ** least[1] < least[0] ** h:
            least = (d, h)
    return least


def hit_rows(n, k_max, seed_level):
    """Rows (k, hits, capacity, ok) of the worst-case hit recursion.

    Capacity is the survivor floor 2**(n k) - k * 2**((n-1) k).  Up to
    ``seed_level`` the hits are the capacity itself; after it each level
    multiplies them by 2**n and adds 2**((n-1)(k-1)) per position of bucket k.
    """
    rows, hits = [], 0
    for k in range(1, k_max + 1):
        capacity = 2 ** (n * k) - k * 2 ** ((n - 1) * k)
        hits = capacity if k <= seed_level else 2**n * hits + 2 ** ((n - 1) * (k - 1)) * len(bucket(k))
        rows.append((k, hits, capacity, hits <= capacity))
    return rows


def membership(k_set, ball):
    """Every cell inside the union of the open boxes, and every box meets a cell."""
    boxes = [box.intervals for box in ball.boxes]
    met = set()
    for cell in k_set.cells:
        target = cell_box(k_set, cell).intervals
        if next(outside_faces(target, boxes), None) is not None:
            return False
        met.update(box for box in boxes if meets(box, target))
    return met.issuperset(boxes)


def witness_bound(ball, witnesses):
    """The least witness distance to the in-cube complement of its box, or 1."""
    radii = []
    for point, box in zip(witnesses, ball.boxes):
        for c, (lo, hi) in zip(point.coords, box.intervals):
            if lo >= 0:
                radii.append(c - lo)
            if hi <= 1:
                radii.append(hi - c)
    return min(radii, default=Fraction(1))


def stability_radius(k_set, ball, witnesses):
    """The certified radius of a member with valid witnesses, every cell
    grown by the witness bound against every box."""
    bound = witness_bound(ball, witnesses)
    near_sq = bound * bound
    boxes = [box.intervals for box in ball.boxes]
    for cell in k_set.cells:
        target = cell_box(k_set, cell).intervals
        grown = tuple((max(lo - bound, 0), min(hi + bound, 1)) for lo, hi in target)
        for face in outside_faces(grown, boxes):
            near_sq = min(near_sq, gap_sq(target, face))
    assert near_sq > 0
    if near_sq == bound * bound:
        return bound
    return root_lower(near_sq, 2, max(DEFAULT_PRECISION, near_sq.denominator))


def series_upper(eps, num, den, terms):
    """Certified upper bound of sum_{k>=1} eps**(num*k/den).

    Finite prefix of per-term upper enclosures plus the geometric tail
    r**(terms+1)/(1-r), with r an upper enclosure of eps**(num/den) whose
    grid is refined until r < 1.
    """
    prec = DEFAULT_PRECISION
    r = root_upper(eps**num, den, prec)
    while r >= 1:
        prec *= 10
        r = root_upper(eps**num, den, prec)
    partial = sum(
        (min(root_upper(eps ** (num * k), den, prec), r**k) for k in range(1, terms + 1)),
        Fraction(0),
    )
    return partial + r ** (terms + 1) / (1 - r)


def leaf_cell(spec, i):
    """Cell of leaf i mod 2**(n*depth) in word order: letters are i's base-2**n digits plus 1.

    Letter t at level k moves parent index p to p*f or p*f + f - 1 on each
    axis, f = factor(k), by that axis's bit of t - 1, axis 0 most significant.
    """
    n, depth, cell = spec.n, spec.depth, (0,) * spec.n
    for k in range(1, depth + 1):
        corner, f = (i >> n * (depth - k)) % 2**n, spec.factor(k)
        cell = tuple(p * f + (corner >> (n - 1 - axis) & 1) * (f - 1) for axis, p in enumerate(cell))
    return cell
