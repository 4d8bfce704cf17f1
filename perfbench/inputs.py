"""Seeded inputs and the benchmark's own reference geometry.

Nothing here imports ``microset``: the benchmark builds the documents it
feeds the program, and the facts its oracles compare against, from first
principles.  Dust cubes live on the integer grid of their deepest level,
digital sets are integer cell tuples, and every other quantity is an exact
``Fraction``.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from fractions import Fraction
from itertools import product
from math import isqrt

_MASK = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 (Steele, Lea, Flood 2014), the generator `baire` documents."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next() % n

    def fork(self, label: str) -> "SplitMix64":
        """Independent stream per purpose, so adding a job never shifts another."""
        mixed = self.state
        for ch in label.encode():
            mixed = ((mixed ^ ch) * 0x100000001B3) & _MASK
        child = SplitMix64(mixed)
        child.next()
        return child


def iroot(a: int, r: int) -> int:
    """Floor of the r-th root of a non-negative integer."""
    if a < 2 or r == 1:
        return a
    x = 1 << -(-a.bit_length() // r)
    while True:
        y = ((r - 1) * x + a // x ** (r - 1)) // r
        if y >= x:
            return x
        x = y


def fmt(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def write_doc(path, doc: dict) -> None:
    """Write a document in the program's canonical JSON form."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------- digital sets


def sample_cells(rng: SplitMix64, n: int, top: int, count: int, keep=None, start=()):
    """Exactly ``count`` distinct cells of the top**n grid, optionally filtered.

    A fixed count (not a density) keeps the work per job the same for every
    seed, which is what lets timings from different seeds be compared.
    """
    cells = set(start)
    while len(cells) < count:
        cell = tuple(rng.below(top) for _ in range(n))
        if keep is None or keep(cell):
            cells.add(cell)
    return sorted(cells)


def digitalset_doc(n: int, b: int, m: int, cells) -> dict:
    return {"schema": "digitalset/1", "n": n, "b": b, "m": m, "cells": [list(c) for c in sorted(cells)]}


def baire_cells(seed: int, n: int, b: int, depth: int, density: Fraction):
    """Cells `baire-sample` must emit: i-th lexicographic cell kept on draw i."""
    rng = SplitMix64(seed)
    num, den = density.numerator, density.denominator
    kept = [
        cell
        for cell in product(range(b**depth), repeat=n)
        if rng.next() * den < num * (1 << 64)
    ]
    return kept or [(0,) * n]


def centre_dist_sq(a_cells, b_cells) -> int:
    """Brute-force max-min squared distance between cell centres, in cells.

    Both sets share a grid, so centre differences are index differences.
    Plane sets only; rows of ``b_cells`` are scanned outward from the query
    row and abandoned once the row offset alone exceeds the best distance.
    """
    rows: dict[int, list[int]] = {}
    for x, y in b_cells:
        rows.setdefault(y, []).append(x)
    for xs in rows.values():
        xs.sort()
    ys = sorted(rows)
    worst = 0
    for x, y in a_cells:
        best = None
        order = sorted(ys, key=lambda r: abs(r - y))
        for r in order:
            dy2 = (r - y) ** 2
            if best is not None and dy2 >= best:
                break
            xs = rows[r]
            i = bisect_left(xs, x)
            for j in (i - 1, i):
                if 0 <= j < len(xs):
                    d = dy2 + (xs[j] - x) ** 2
                    if best is None or d < best:
                        best = d
        worst = max(worst, best)
    return worst


# ------------------------------------------------------------------- dust trees


def dust_levels(n: int, b: int, depth: int):
    """Words and integer corners of every level, on the leaf grid b**(depth**2).

    Level-k cubes have side b**(depth**2 - k**2) grid units.  Child letter t
    sits in the parent corner whose bits are those of t-1, axis 0 most
    significant (the default corner order), and each level is sorted by word.
    """
    levels = []
    current = [((), (0,) * n)]
    for k in range(1, depth + 1):
        shift = b ** (depth**2 - (k - 1) ** 2) - b ** (depth**2 - k**2)
        nxt = []
        for word, corner in current:
            for letter in range(1, 2**n + 1):
                bits = [((letter - 1) >> (n - 1 - axis)) & 1 for axis in range(n)]
                nxt.append((word + (letter,), tuple(c + bit * shift for c, bit in zip(corner, bits))))
        nxt.sort()
        levels.append(nxt)
        current = nxt
    return levels


def level_side(b: int, k: int) -> Fraction:
    return Fraction(1, b ** (k * k))


def gap_rows(n: int, b: int, depth: int):
    """(volume, leftover, sibling_gap, level_gap) per level, from the formulas."""
    rows, running = [], None
    for k in range(1, depth + 1):
        vol = level_side(b, k) ** n
        left = level_side(b, k - 1) ** n - 2**n * vol
        d = level_side(b, k - 1) - 2 * level_side(b, k)
        running = d if running is None else min(running, d)
        rows.append((vol, left, d, running))
    return rows


def full_prefix(depth: int) -> int:
    """Positions the refuter examines at this depth: h < (depth + 1)**2 / 4."""
    return ((depth + 1) ** 2 - 1) // 4


def critical_root(n: int, b: int) -> Fraction:
    """Rational q with q**n below the refuter's certified critical budget.

    The budget is (root_n(2**n + 1) - 2)**(4n) / b**(4n); rounding the root
    down to three decimals gives t, and q = t**4 / b**4 makes eps = q**n
    exact with every side budget eps**(h/n) = q**h rational.
    """
    t = Fraction(iroot((2**n + 1) * 1000**n, n) - 2000, 1000)
    return t**4 / b**4


def cube(corner, side):
    return [[fmt(c), fmt(c + side)] for c in corner]


def adversary_cover(rng: SplitMix64, n: int, b: int, depth: int, pieces: int, style: str) -> dict:
    """Budget-tight strong cover aimed at leaf cubes, within the gap budgets.

    Piece h is a cube of side min(q**h, leaf side, D_bucket(h)); "swallow"
    anchors it at a leaf corner, "random" shrinks it by a seeded factor in
    [1/2, 1) and slides it inside the leaf.
    """
    q = critical_root(n, b)
    grid = b ** (depth * depth)
    leaves = dust_levels(n, b, depth)[-1]
    leaf = level_side(b, depth)
    gaps = gap_rows(n, b, depth)
    out = []
    for h in range(1, pieces + 1):
        side = min(q**h, leaf)
        bucket = isqrt(4 * h)
        if bucket <= depth:
            side = min(side, gaps[bucket - 1][3])
        _, corner = leaves[rng.below(len(leaves))]
        lo = [Fraction(c, grid) for c in corner]
        if style == "random":
            side *= Fraction(512 + rng.below(512), 1024)
            lo = [c + (leaf - side) * Fraction(rng.below(1024), 1024) for c in lo]
        out.append(cube(lo, side))
    return {"schema": "coverseq/1", "n": n, "eps": fmt(q**n), "strong": True, "pieces": out}


def survivor_disjoint(n: int, b: int, depth: int, word, cover: dict, checked: int) -> str | None:
    """Rebuild the survivor's leaf cube from its word; None when it is clear.

    Closed boxes are disjoint exactly when some axis separates them strictly.
    """
    if len(word) != depth or any(not 1 <= t <= 2**n for t in word):
        return f"survivor word {word} does not name a leaf"
    grid = b ** (depth * depth)
    corner = dict(dust_levels(n, b, depth)[-1])[tuple(word)]
    for h, piece in enumerate(cover["pieces"][:checked], start=1):
        # the leaf is [c, c + 1] on the leaf grid on every axis
        if all(
            Fraction(lo) * grid <= c + 1 and c <= Fraction(hi) * grid
            for c, (lo, hi) in zip(corner, piece)
        ):
            return f"survivor touches examined piece {h}"
    return None
