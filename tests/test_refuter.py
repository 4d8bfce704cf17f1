"""Property coverage for the survivor refuter beyond the worked examples."""

import hashlib
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraction_oracles import bucket, dist_sq, level_boxes, level_digital
from microset import serialize
from microset.covers import CoverSeq, verify_cover
from microset.dust import (
    DustSpec,
    SurvivorCertificate,
    _children,
    _examined_prefix,
    _refutation_premises,
    _survivor_descent,
    adversary_random,
    adversary_swallow,
    gap_table,
    generate,
    refutation_budget_lower,
    revalidate_survivor,
    survivor_refute,
)
from microset.geometry import Box, _in_window, _window

F = Fraction

_LINE = generate(DustSpec(n=1, b=3, depth=4))
_PLANE = generate(DustSpec(n=2, b=3, depth=3))
_LINE_EPS = refutation_budget_lower(_LINE.spec)
_PLANE_EPS = refutation_budget_lower(_PLANE.spec)


def _check_certificate(tree, cover, cert):
    assert isinstance(cert, SurvivorCertificate)
    revalidate_survivor(tree.spec, cover, cert)
    lookup = dict(level_boxes(tree, tree.spec.depth))
    cube = lookup[cert.survivor_word]
    for piece in cover.pieces[: cert.checked_prefix]:
        assert dist_sq(cube, piece) > 0
    assert all(count >= 1 for count in cert.level_counts)
    # nested ancestry: prefixes of the survivor word name live cubes
    for k in range(1, tree.spec.depth):
        assert cert.survivor_word[:k] in dict(level_boxes(tree, k))


@settings(max_examples=20)
@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=10))
def test_random_adversaries_never_defeat_the_line_refuter(seed, count):
    cover = adversary_random(_LINE.spec, _LINE_EPS, count, seed)
    assert verify_cover(level_digital(_LINE, 4), cover).budget_ok
    cert = survivor_refute(_LINE.spec, cover)
    _check_certificate(_LINE, cover, cert)


@settings(max_examples=10)
@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=6))
def test_random_adversaries_never_defeat_the_plane_refuter(seed, count):
    cover = adversary_random(_PLANE.spec, _PLANE_EPS, count, seed)
    cert = survivor_refute(_PLANE.spec, cover)
    _check_certificate(_PLANE, cover, cert)


@settings(max_examples=10)
@given(st.integers(min_value=1, max_value=12))
def test_swallow_adversary_any_length_line(count):
    cover = adversary_swallow(_LINE.spec, _LINE_EPS, count)
    cert = survivor_refute(_LINE.spec, cover)
    _check_certificate(_LINE, cover, cert)


@settings(max_examples=8)
@given(st.fractions(min_value=F(1, 10**6), max_value=F(1, 81)))
def test_any_budget_below_threshold_refutes_line_swallows(eps):
    cover = adversary_swallow(_LINE.spec, eps, 6)
    cert = survivor_refute(_LINE.spec, cover)
    _check_certificate(_LINE, cover, cert)


def _tail(d):
    """Closed form of sum_{j>d} |B_j| 2**-j, with B_j the positions bucket j holds."""
    return F((d + 1) // 2 + 1, 2**d)


def _floor(n, k):
    """Least level-k survivor count on a cover that meets the premises: 2**(nk) * _tail(k)."""
    return 2 ** (n * k) * _tail(k)


def test_bucket_sums_and_the_closed_form_tail_make_one():
    partial = F(0)
    for d in range(1, 201):
        partial += F(len(bucket(d)), 2**d)
        assert partial + _tail(d) == 1
        assert all(2 ** (n * d) * _tail(d) >= 1 for n in (1, 2, 3))
    # so the tail is the series' own: sum_{j>=2} |B_j| 2**-j = 1 exactly
    assert _tail(200) < F(1, 2**190)


def _slab_adversary(spec, eps):
    """Full-width slabs, each on the column of its level that holds the most survivors.

    Position h of bucket j is [x s, x s + w] on axis 0 and [0, 1] on every other
    axis, with s the level-j side, w = min(eps**h, s)/2 and x the least axis-0
    index among the level-j columns holding the most level-j survivors.  No two
    dust columns are adjacent, so the slab touches the cells of column x alone.
    """
    tree, survivors, pieces = generate(spec), {()}, []
    for j in range(1, spec.depth + 1):
        side = spec.level_side(j)
        alive = [(word, cell) for word, cell in tree.levels[j - 1] if word[:-1] in survivors]
        for h in bucket(j):
            columns = Counter(cell[0] for _, cell in alive)
            x = min(columns, key=lambda c: (-columns[c], c))
            slab = (x * side, x * side + min(eps**h, side) / 2)
            pieces.append(Box((slab,) + ((F(0), F(1)),) * (spec.n - 1)))
            alive = [(word, cell) for word, cell in alive if cell[0] != x]
        survivors = {word for word, _ in alive}
    return CoverSeq(n=spec.n, eps=eps, strong=False, pieces=tuple(pieces))


@pytest.mark.parametrize("n, depth", [(1, 8), (1, 10), (2, 4), (2, 5), (2, 6), (2, 7), (3, 4), (3, 5)])
def test_slab_adversary_meets_the_survivor_floor_exactly(n, depth):
    spec = DustSpec(n=n, b=3, depth=depth)
    cover = _slab_adversary(spec, refutation_budget_lower(spec))
    cert = survivor_refute(spec, cover)
    revalidate_survivor(spec, cover, cert)
    assert cert.checked_prefix == len(cover.pieces)
    assert cert.level_counts == tuple(_floor(n, k) for k in range(1, depth + 1))
    if (n, depth) == (2, 7):
        assert cert.level_counts == (4, 8, 24, 48, 128, 256, 640)


@st.composite
def _premise_covers(draw):
    """A spec and a cover meeting its premises: a swallow or random adversary at or
    below the critical budget, or boxes with one side just under their level's gap."""
    n = draw(st.integers(min_value=1, max_value=3))
    depth = draw(st.integers(min_value=2, max_value=4))
    spec = DustSpec(n=n, b=draw(st.sampled_from((3, 4))), depth=depth)
    count = draw(st.integers(min_value=1, max_value=bucket(depth)[-1] + 2))
    kind = draw(st.sampled_from(("swallow", "random", "boxes")))
    if kind != "boxes":
        eps = refutation_budget_lower(spec) / draw(st.sampled_from((1, 2, 10**3)))
        if kind == "swallow":
            return spec, adversary_swallow(spec, eps, count)
        return spec, adversary_random(spec, eps, count, draw(st.integers(min_value=0, max_value=2**64 - 1)))
    sixtyfourths = st.integers(min_value=0, max_value=64).map(lambda i: F(i, 64))
    gaps, pieces = gap_table(spec).level_gap, []
    for j in range(2, depth + 1):
        gap = gaps[j - 1]
        for _ in bucket(j)[: count - len(pieces)]:
            # the other sides multiply to at most gap**(n-1), so the measure lies below gap**n
            sides, room = [], gap ** (n - 1)
            for _ in range(n - 1):
                sides.append(min(draw(sixtyfourths.filter(bool)), room))
                room /= sides[-1]
            short = gap - draw(st.sampled_from((spec.level_side(depth), F(1, 10**9))))
            sides.insert(draw(st.integers(min_value=0, max_value=n - 1)), short)
            corner = [(1 - side) * draw(sixtyfourths) for side in sides]
            pieces.append(Box(tuple((lo, lo + side) for lo, side in zip(corner, sides))))
    return spec, CoverSeq(n=n, eps=F(99, 100), strong=False, pieces=tuple(pieces))


@given(_premise_covers())
def test_survivor_counts_never_fall_below_the_floor(case):
    spec, cover = case
    cert = survivor_refute(spec, cover)
    revalidate_survivor(spec, cover, cert)
    assert all(count >= _floor(spec.n, k) for k, count in enumerate(cert.level_counts, start=1))


def _scan_descent(spec, frame, pieces):
    """The survivor descent by a plain scan: each child tests every piece's window in order, up to the first that touches."""
    counts, leaves, free, family = [], [], 0, [((), (0,) * spec.n)]
    for k in range(1, spec.depth + 1):
        f, active = frame // spec.scale(k), _examined_prefix(k, len(pieces))
        windows = [_window(piece, f, 1) for piece in pieces]
        free, placed = free * 2**spec.n, []
        for word, cell in _children(spec, family, k):
            # the first examined piece the cell touches; len(pieces) for none
            h = next((h for h, w in enumerate(windows) if _in_window(cell, w)), len(pieces))
            if h == len(pieces):
                free += 1
                leaves.append(word + (1,) * (spec.depth - k))
            elif h >= active:
                placed.append((word, cell))
        family = placed
        counts.append(free + len(placed))
    return tuple(counts), min(leaves, default=None)


@st.composite
def _deep_descents(draw):
    """A spec deeper than any tree the tests build, and the examined pieces of a swallow or
    random adversary at or below the critical budget on their frame, some copied over others."""
    n = draw(st.integers(min_value=1, max_value=3))
    depth = draw(st.integers(min_value=1, max_value={1: 12, 2: 9, 3: 7}[n]))
    spec = DustSpec(n=n, b=draw(st.sampled_from((3, 4))), depth=depth)
    eps = refutation_budget_lower(spec) / draw(st.sampled_from((1, 2, 10**3)))
    count = draw(st.integers(min_value=1, max_value=_examined_prefix(depth, 10**9) + 2))
    seed = draw(st.none() | st.integers(min_value=0, max_value=2**64 - 1))
    cover = adversary_swallow(spec, eps, count) if seed is None else adversary_random(spec, eps, count, seed)
    frame, pieces = _refutation_premises(spec, cover)
    # a piece repeated at another position: only its least index decides whether it is active
    positions = st.integers(min_value=0, max_value=max(len(pieces) - 1, 0))
    for source, target in draw(st.lists(st.tuples(positions, positions), max_size=4 if pieces else 0)):
        pieces[target] = pieces[source]
    return spec, frame, pieces


@given(_deep_descents())
def test_indexed_descent_matches_the_piece_scan_deep(case):
    spec, frame, pieces = case
    assert _survivor_descent(spec, frame, pieces) == _scan_descent(spec, frame, pieces)


def test_spread_random_adversary_is_refuted_and_rechecked_fast():
    # 240 examined pieces spread over the dust at n=2, depth 30 place thousands of
    # cells, so descent work that grew as placed cells times pieces would take seconds
    spec = DustSpec(n=2, b=3, depth=30)
    cover = adversary_random(spec, refutation_budget_lower(spec), _examined_prefix(30, 10**9) + 2, 7)
    assert len(cover.pieces) == 242
    started = time.monotonic()
    cert = survivor_refute(spec, cover)
    refuted = time.monotonic()
    revalidate_survivor(spec, cover, cert)
    rechecked = time.monotonic()
    assert refuted - started < 1.0 and rechecked - refuted < 1.0
    blob = serialize.canonical_bytes(serialize.to_json(cert))
    assert hashlib.sha256(blob).hexdigest() == "0f5f03cd396c069d00ecf62dd3ceb6b85c94a61d0971012f1a65e88395051ecd"
