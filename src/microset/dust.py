"""Corner-dust construction with super-exponentially shrinking cubes.

Level k of the tree holds 2**(n*k) closed cubes of side b**(-k**2); each
cube sits flush in one corner of its parent and shares exactly one vertex
with it.  Volumes relate through c = b**n: a level-k cube has measure
c**(-k**2), which shrinks fast enough that the limit set has Hausdorff
dimension zero, yet the gap structure lets a survivor argument refute
every sufficiently tight cover-budget claim.

A level-k cube is one closed cell of the b**grid(k) grid; ``DustSpec.grid``
is the only place the growth k*k is written, and ``_children`` the only
place a letter picks a corner.  ``_leaf_cells`` is the one map from a
leaf to its cell: it sums the corner steps of the leaf's index in word
order, for the checker's survivor word and the adversaries' leaves alike.
Every dust algorithm takes the spec and places the cells it needs from
it.  A ``DustTree`` holds the integer cells of every level, and is built
only where one is written, loaded or drawn.

All verdicts are exact.  The only enclosures are the roots inside
``hausdorff_measure_upper`` and the adversaries' budget sides, each
directed so the reported number is safe in the stated direction.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import ceil, prod
from operator import add, itemgetter

from . import baire
from .cells import Box, CoverSeq, Record, _budget, _budget_sides, _frame, _on_frame, _touching_pieces
from .rational import DEFAULT_PRECISION, Negative, _frac, root_upper


class DustSpec(Record):
    """Parameters of the construction: dimension n, base b and depth.

    The spec fixes the tree, labelling included: child letter t sits in the
    parent corner whose bits are those of t - 1, axis 0 most significant.
    Admissibility (b large enough for positive gaps) is left to ``validate``,
    so defective parameters stay representable; each dust operation refuses
    them with one ``Negative``, from ``_require_admissible``.
    """

    n: int
    b: int
    depth: int

    def __init__(self, n: int, b: int, depth: int):
        if n < 1:
            raise ValueError("dimension must be >= 1")
        if b < 2:
            raise ValueError("base must be >= 2")
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self._set(n, b, depth)

    @property
    def c(self) -> int:
        return self.b**self.n

    def grid(self, k: int) -> int:
        """Level k lives on the b**grid(k) grid; the only statement of the growth."""
        return k * k

    def scale(self, k: int) -> int:
        """Cells per axis of the level-k grid."""
        return self.b ** self.grid(k)

    def factor(self, k: int) -> int:
        """Level-k cells per axis of one level-(k-1) cell."""
        return self.scale(k) // self.scale(k - 1)

    def level_side(self, k: int) -> Fraction:
        return Fraction(1, self.scale(k))

    def level_volume(self, k: int) -> Fraction:
        return self.level_side(k) ** self.n


def validate(spec: DustSpec) -> str | None:
    """First violated admissibility inequality, or None when all hold.

    The leftover measure delta_k = V_{k-1} - 2**n * V_k is positive exactly
    when a parent is more than two children wide, factor(k) >= 3.  At k = 1
    that is b >= 3, which also gives the piece-count bound c >= 2**n + 1.
    """
    for k in range(1, spec.depth + 1):
        if spec.factor(k) < 3:
            delta = spec.level_volume(k - 1) - 2**spec.n * spec.level_volume(k)
            return f"delta_{k} = {delta} is not positive"
    return None


def _require_admissible(spec: DustSpec) -> None:
    problem = validate(spec)
    if problem is not None:
        raise Negative(f"inadmissible: {problem}")


class DustTree(Record):
    """Per level, (word, cell) pairs in word order.

    A cell is the cube's integer index tuple on its level's b**(k*k) grid.
    """

    spec: DustSpec
    levels: tuple[tuple[tuple[tuple[int, ...], tuple[int, ...]], ...], ...]


def _check_tree(tree: DustTree) -> None:
    """Exact structural re-check of a tree on an admissible spec; raises on a defect.

    Level k holds 2**(n*k) distinct words, each a level-(k-1) word plus a
    letter in 1..2**n, so every family is full.  Its distinct cells sit flush
    in a corner of their parent p, index p*f or p*f + f - 1 per axis with
    f = factor(k) >= 3.  So a family fills its parent's corners, the least
    sibling gap is f - 2 cells, d_k = side_{k-1} - 2 side_k, and by induction
    over disjoint parents D_{k-1} apart, level k is min(d_k, D_{k-1}) = D_k apart.
    """
    spec = tree.spec
    if len(tree.levels) != spec.depth:
        raise AssertionError("tree depth is wrong")
    parent_lookup = {(): (0,) * spec.n}
    for k, level in enumerate(tree.levels, start=1):
        if len(level) != 2 ** (spec.n * k):
            raise AssertionError(f"level {k} cube count is wrong")
        lookup = dict(level)
        if len(lookup) != len(level) or not all(
            len(w) == k and w[:-1] in parent_lookup and 1 <= w[-1] <= 2**spec.n for w in lookup
        ):
            raise AssertionError(f"level {k} words are not distinct children")
        f = spec.factor(k)
        for word, cell in level:
            parent = parent_lookup[word[:-1]]
            if len(cell) != spec.n or any(j not in (p * f, p * f + f - 1) for p, j in zip(parent, cell)):
                raise AssertionError(f"cube {word} is not flush in a corner of its parent")
        if len(set(lookup.values())) != len(level):
            raise AssertionError(f"level {k} has touching siblings")
        parent_lookup = lookup


def _children(spec: DustSpec, family, k: int) -> list:
    """Level-k (word, cell) children of level-(k-1) (word, cell) pairs, in word order.

    Letter t in 1..2**n takes the parent corner whose bits are those of t - 1,
    axis 0 most significant: bit 0 or 1 puts the child of parent index p at
    p*f or p*f + f - 1, with f = factor(k).
    """
    f, n = spec.factor(k), spec.n
    corners = [
        (t, [((t - 1) >> (n - 1 - axis) & 1) * (f - 1) for axis in range(n)])
        for t in range(1, 2**n + 1)
    ]
    children = []
    for word, cell in family:
        base = [p * f for p in cell]
        children.extend((word + (t,), tuple(map(add, base, corner))) for t, corner in corners)
    return children


def _leaf_cells(spec: DustSpec):
    """The map from i to the cell of leaf i mod 2**(n*depth) in word order; each level's step is formed once.

    Leaf i's letters are its base-2**n digits plus 1, so bit n*(depth-k) +
    n-1-axis of i is the corner bit that letter k takes on that axis in
    ``_children``.  A set bit puts the child factor(k) - 1 level-k cells
    along, which is the level-(k-1) side less the level-k side, in leaf
    cells; a leaf's index on an axis is the sum of the steps of its set bits.
    """
    n, depth = spec.n, spec.depth
    side = [spec.b ** (spec.grid(depth) - spec.grid(k)) for k in range(depth + 1)]  # level k's, in leaf cells
    steps = [(side[k - 1] - side[k], n * (depth - k) + n - 1) for k in range(1, depth + 1)]
    return lambda i: tuple(sum(step for step, bit in steps if i >> (bit - axis) & 1) for axis in range(n))


def generate(spec: DustSpec) -> DustTree:
    """Build the tree the spec defines, then re-verify every structural invariant exactly.

    The only builder of a ``DustTree``: a loaded tree file is rebuilt here too.
    """
    _require_admissible(spec)
    levels, current = [], [((), (0,) * spec.n)]
    for k in range(1, spec.depth + 1):
        current = _children(spec, current, k)
        levels.append(tuple(current))
    tree = DustTree(spec=spec, levels=tuple(levels))
    _check_tree(tree)
    return tree


class GapTable(Record):
    """Per-level measures and gaps, all exact.

    volume: cube measure V_k.  leftover: measure of a parent minus its
    children, V_{k-1} - 2**n V_k.  sibling_gap: distance between sibling
    cubes along one axis, d_k.  level_gap: running minimum D_k, a lower
    bound for the distance between any two level-k cubes.
    """

    depth: int
    volume: tuple[Fraction, ...]
    leftover: tuple[Fraction, ...]
    sibling_gap: tuple[Fraction, ...]
    level_gap: tuple[Fraction, ...]

    def __init__(self, depth: int, volume, leftover, sibling_gap, level_gap):
        columns = tuple(map(tuple, (volume, leftover, sibling_gap, level_gap)))
        if any(len(column) != depth for column in columns):
            raise ValueError("gap table columns must hold depth entries each")
        if columns[3] != tuple(itertools.accumulate(columns[2], min)):
            raise ValueError("level_gap is not the running minimum of sibling_gap")
        self._set(depth, *columns)


def gap_table(spec: DustSpec) -> GapTable:
    """Exact gap table, read off the spec's grid alone.

    The sibling gap is d_k = side_{k-1} - 2 side_k; ``_check_tree``, which
    every tree passes when ``generate`` builds or reloads it, proves that the
    siblings of a tree are exactly d_k apart, so its level gaps are D_k.
    """
    _require_admissible(spec)
    levels = range(1, spec.depth + 1)
    d_vals = [spec.level_side(k - 1) - 2 * spec.level_side(k) for k in levels]
    return GapTable(
        depth=spec.depth,
        volume=tuple(spec.level_volume(k) for k in levels),
        leftover=tuple(spec.level_volume(k - 1) - 2**spec.n * spec.level_volume(k) for k in levels),
        sibling_gap=tuple(d_vals),
        level_gap=tuple(itertools.accumulate(d_vals, min)),
    )


def hausdorff_measure_upper(spec: DustSpec, alpha: Fraction) -> Fraction:
    """Certified upper bound 2**(n k) * n**(alpha/2) * V_k**(alpha/n) at level k = spec.depth.

    Covering the limit set by the level-k cubes witnesses this bound on
    the alpha-dimensional Hausdorff outer measure; it tends to zero in k
    for every positive alpha, which pins the dimension at zero.

    With alpha = a/q, each power is the root of an exact one: n**(a/2)
    is the 2q-th root of n**a, and the side part V_k**(alpha/n) =
    b**-(grid(k) alpha), the nq-th root of V_k**a, is enclosed on a
    grid b**ceil(grid(k) alpha) times finer than ``DEFAULT_PRECISION``, so
    each enclosed factor exceeds its value by a relative error of at most
    1/DEFAULT_PRECISION, and the bound exceeds the true product by a factor
    below 1 + 3/DEFAULT_PRECISION.
    """
    alpha = _frac(alpha)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    k = spec.depth
    a, q = alpha.numerator, alpha.denominator
    count = Fraction(2 ** (spec.n * k))
    diam_scale = root_upper(Fraction(spec.n**a), 2 * q)
    side_grid = DEFAULT_PRECISION * spec.b ** ceil(spec.grid(k) * alpha)
    side_part = root_upper(spec.level_volume(k) ** a, q * spec.n, side_grid)
    return count * diam_scale * side_part


def refutation_budget_lower(spec: DustSpec) -> Fraction:
    """The critical cover budget c**-4 = b**(-4n), exact.

    It is the largest eps at which every eps-budgeted cover meets the gap
    premises of ``_refutation_premises`` at every depth.  Write
    D_j = level_gap(j), B_j for bucket j and h_j = _bucket_start(j).  For
    eps < 1, eps**h is largest at a bucket's first position, so every
    eps-budgeted cover meets the premises at depth d exactly when eps < E(d)
    = min D_j**(n/h_j) over the non-empty buckets j <= d.  B_1 is empty; for
    j >= 2, D_j = b**-((j-1)**2) - 2 b**-(j**2) > b**-(j**2) since
    b**(2j-1) > 3, and h_j >= j**2/4, so every term exceeds c**-4, and the
    terms tend to it.

    A cover that meets the premises leaves S_d >= 1 survivors at depth d.
    (1) A piece of B_j measures below D_j**n, so a side is shorter than D_j.
    (2) On each axis the level-j cells project to 2**j intervals, each the
    shadow of 2**((n-1)j) cells; two that first split at level i <= j lie
    d_i >= D_j apart.  (3) So the piece touches at most 2**((n-1)j) level-j
    cells.  (4) A child of a level-(j-1) survivor lies in its parent, which
    touches no piece of an earlier bucket.  (5) Hence
    S_j >= 2**n S_(j-1) - |B_j| 2**((n-1)j), and S_1 = 2**n.  (6) So
    S_d >= 2**(nd) (1 - sum_{j=2..d} |B_j| 2**-j).  (7) |B_2m| = m + 1 and
    |B_2m+1| = m, so the full sum is sum_{m>=1} (3m/2 + 1) 4**-m = 1 exactly,
    and S_d >= 2**(nd) sum_{j>d} |B_j| 2**-j = 2**((n-1)d) ((d+1)//2 + 1).
    (8) Survivors of successive depths are nested compact sets, so some point
    of the dust lies in no piece: no cover with vol(piece_h) <= c**(-4h),
    of cubes or of boxes, covers the dust.
    """
    _require_admissible(spec)
    return Fraction(1, spec.c**4)


def _bucket_start(k: int) -> int:
    """Least position h >= k**2 / 4: the first position of bucket k.

    Bucket k holds the cover positions h with k**2 / 4 <= h < (k+1)**2 / 4,
    the pieces that level k of the survivor descent must absorb.
    """
    return (k * k + 3) // 4


class SurvivorCertificate(Record):
    """Machine-checkable witness that a cover misses part of the dust.

    ``checked_prefix`` pieces were examined (those whose position is below
    (depth+1)**2 / 4); ``survivor_word`` names a depth-level cube exactly
    disjoint from every one of them, and ``level_counts`` are the exact
    survivor counts per level along the way, so each is at least 1.
    """

    depth: int
    checked_prefix: int
    survivor_word: tuple[int, ...]
    level_counts: tuple[int, ...]

    def __init__(self, depth: int, checked_prefix: int, survivor_word, level_counts):
        survivor_word, level_counts = tuple(survivor_word), tuple(level_counts)
        if depth < 1 or checked_prefix < 0:
            raise ValueError("certificate needs depth >= 1 and an examined prefix >= 0")
        if len(level_counts) != depth or min(level_counts) < 1:
            raise ValueError("certificate needs one survivor count of at least 1 per level")
        self._set(depth, checked_prefix, survivor_word, level_counts)


def _examined_prefix(depth: int, piece_count: int) -> int:
    """Pieces bucketed into levels 1..depth: positions below (depth+1)**2 / 4."""
    return min(piece_count, _bucket_start(depth + 1) - 1)


def _refutation_premises(spec: DustSpec, cover: CoverSeq) -> tuple[int, list]:
    """Check what the survivor argument assumes; (frame, examined pieces on it), or ``Negative``.

    The cover must share the spec's dimension (else ValueError), satisfy its
    own eps-budget and, piece by piece, the direct gap budget: a piece in
    bucket j must have measure below level_gap(j) ** n.  Checking the gap
    budget directly (rather than trusting any chain of inequalities through
    eps) keeps the premise of the survivor argument explicit and exact.  The
    frame is a multiple of the leaf grid's ``scale(depth)``, so every gap is
    a whole number of its units.  Admissibility, factor(j) >= 3, gives
    d_(j+1) < side_j <= d_j, so the sibling gaps decrease and level_gap(j)
    is d_j = side_(j-1) - 2 side_j, taken in ints on the frame, which only
    the examined pieces and the leaf grid form.
    """
    if cover.n != spec.n:
        raise ValueError("dimension mismatch")
    _require_admissible(spec)
    if cover.first_budget_violation() is not None:
        raise Negative("cover does not satisfy its eps budget")
    examined = cover.pieces[: _examined_prefix(spec.depth, len(cover.pieces))]
    frame = _frame(examined, spec.scale(spec.depth))
    pieces = [_on_frame(piece, frame) for piece in examined]
    for j in range(1, spec.depth + 1):
        budget = (frame // spec.scale(j - 1) - 2 * (frame // spec.scale(j))) ** spec.n
        for h in range(_bucket_start(j), min(_bucket_start(j + 1), len(pieces) + 1)):
            if prod(hi - lo for lo, hi in pieces[h - 1]) >= budget:
                raise Negative(f"piece {h} is not below the level-{j} gap budget")
    return frame, pieces


def survivor_refute(spec: DustSpec, cover: CoverSeq) -> SurvivorCertificate:
    """Survivor chain through the spec's dust against a budgeted cover.

    Raises ``Negative`` when the cover misses a premise of ``_refutation_premises``.
    A cover that meets them leaves a survivor (``refutation_budget_lower``).
    """
    frame, pieces = _refutation_premises(spec, cover)
    counts, least = _survivor_descent(spec, frame, pieces)
    if least is None:
        raise AssertionError("no survivor on a cover that meets the refutation premises")
    cert = SurvivorCertificate(spec.depth, len(pieces), least, counts)
    _check_survivor(spec, frame, pieces, cert)
    return cert


def _survivor_descent(spec: DustSpec, frame: int, pieces: list) -> tuple[tuple[int, ...], tuple | None]:
    """Per-level survivor counts, and the least depth-level survivor word or None.

    A level-k survivor is a child of a level-(k-1) survivor that touches none
    of level k's active pieces, those bucketed into levels 1..k; a level-k cell
    is ``frame // scale(k)`` wide on the pieces' frame.  A survivor touching no
    examined piece is free: its 2**n children are free again, so free cells are
    only counted, and the least leaf below one is its word padded with letter
    1.  Only survivors whose first touching piece is not yet active are placed
    and descended into.  Each level's children, sorted by cell, make one
    ``_touching_pieces`` call, so the work goes with the pieces and the cells
    they touch.
    """
    counts, leaves, free, family = [], [], 0, [((), (0,) * spec.n)]
    for k in range(1, spec.depth + 1):
        f, active = frame // spec.scale(k), _examined_prefix(k, len(pieces))
        free, placed = free * 2**spec.n, []
        children = sorted(_children(spec, family, k), key=itemgetter(1))
        for (word, cell), near in zip(children, _touching_pieces([cell for _, cell in children], pieces, f)):
            if not near:
                free += 1
                leaves.append(word + (1,) * (spec.depth - k))
            elif near[0] >= active:
                placed.append((word, cell))
        family = placed
        counts.append(free + len(placed))
    return tuple(counts), min(leaves, default=None)


def revalidate_survivor(spec: DustSpec, cover: CoverSeq, cert: SurvivorCertificate) -> None:
    """Re-check a certificate from scratch; raises ``Negative`` when a claim fails.

    The cover must meet the premises ``survivor_refute`` demands.  The
    certificate must carry the spec's depth, the prefix the cover's length
    implies, a depth-level word whose cube touches no examined piece, and the
    survivor descent's own per-level counts.  Any surviving word is accepted,
    not only the least one, which is the word the refuter emits.
    """
    frame, pieces = _refutation_premises(spec, cover)
    _check_survivor(spec, frame, pieces, cert)
    if cert.level_counts != _survivor_descent(spec, frame, pieces)[0]:
        raise Negative("certificate level counts differ from the survivor walk")


def _check_survivor(spec: DustSpec, frame: int, pieces: list, cert: SurvivorCertificate) -> None:
    """The certificate's claims about the spec and the examined pieces on their frame, except the counts."""
    if cert.depth != spec.depth:
        raise Negative("certificate depth differs from the spec")
    if cert.checked_prefix != len(pieces):
        raise Negative("certificate examined a different prefix")
    word = cert.survivor_word
    if len(word) != spec.depth or not all(1 <= letter <= 2**spec.n for letter in word):
        raise Negative("survivor word does not name a cube")
    leaf = sum((t - 1) << spec.n * (spec.depth - k) for k, t in enumerate(word, start=1))
    near = _touching_pieces([_leaf_cells(spec)(leaf)], pieces, frame // spec.scale(spec.depth))[0]
    if near:
        raise Negative(f"survivor touches examined piece {near[0] + 1}")


def adversary_swallow(spec: DustSpec, eps: Fraction, count: int) -> CoverSeq:
    """Budget-tight adversary that eats leaf cubes in word order.

    Piece h is the largest admissible cube (side a lower enclosure of
    eps**(h/n), capped at the leaf side) anchored at the next untouched
    leaf cube's corner.  The budget and the spec are checked before any side is formed.
    """
    eps = _budget(eps)
    _require_admissible(spec)
    leaf_side, leaf_cell = spec.level_side(spec.depth), _leaf_cells(spec)
    pieces = []
    for h, side in enumerate(itertools.islice(_budget_sides(eps, spec.n), count)):
        cell = leaf_cell(h)
        pieces.append(Box.cube(tuple(j * leaf_side for j in cell), min(side, leaf_side)))
    return CoverSeq(n=spec.n, eps=eps, strong=True, pieces=tuple(pieces))


def adversary_random(spec: DustSpec, eps: Fraction, count: int, seed: int) -> CoverSeq:
    """Seeded adversary placing budget-tight cubes near random leaf cubes; checked first as the swallow one is."""
    eps = _budget(eps)
    _require_admissible(spec)
    rng = baire.SplitMix64(seed)
    leaf_side, leaf_cell = spec.level_side(spec.depth), _leaf_cells(spec)
    pieces = []
    for budget_side in itertools.islice(_budget_sides(eps, spec.n), count):
        cell = leaf_cell(rng.next())
        side = min(budget_side, leaf_side) * Fraction(rng.next() % 512 + 512, 1024)
        corner = []
        for j in cell:
            wiggle = (leaf_side - side) * Fraction(rng.next() % 1024, 1024)
            corner.append(min(j * leaf_side + wiggle, 1 - side))
        pieces.append(Box.cube(tuple(corner), side))
    return CoverSeq(n=spec.n, eps=eps, strong=True, pieces=tuple(pieces))
