"""Random compact sets and finite skeletons.

Sampling is bit-exact across platforms: the generator is SplitMix64
(Steele, Lea, Flood 2014), a cell is kept when u * density_den <
density_num * 2**64 holds in integer arithmetic, and every derived
quantity is rational.  Identical specs therefore give byte-identical
sets.

The i-th draw of a stream depends only on its state, seed + (i+1)*gamma
mod 2**64, so ``sample_compact`` draws a block of cells at once: the
block is one Python int of 128-bit lanes, each lane holding a 64-bit
state, and the add, xor-shift and multiply steps run on the whole int.
Every lane is masked to 64 bits before a multiply, so a product fills at
most its own lane, and a cell is kept when its lane plus 2**64 minus the
density threshold does not carry out of 64 bits.  The lanes are built
from little-endian bytes, so no step depends on the host.  The scalar
``SplitMix64`` stays the definition of the stream.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator

from .geometry import DigitalSet, Point, Record, hausdorff_bracket
from .rational import _frac, root_upper

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_BLOCK = 2048  # lanes per packed int: the kernel's few 32 KiB ints do not grow with the depth


class SplitMix64:
    """SplitMix64: 64-bit state, one add and two xor-shift-multiply mixes."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)


class SampleSpec(Record):
    """Parameters for seeded draws of random digital sets."""

    seed: int
    n: int
    b: int
    depth: int
    density: Fraction

    def __init__(self, seed: int, n: int, b: int, depth: int, density: Fraction):
        density = _frac(density)
        if not 0 < density <= 1:
            raise ValueError("density must lie in (0, 1]")
        if n < 1 or b < 2 or depth < 0:
            raise ValueError("bad sample dimensions")
        self._set(seed, n, b, depth, density)


def _keep_flags(seed: int, count: int, density: Fraction) -> Iterator[bytes]:
    """The keep flags of the first ``count`` draws of ``SplitMix64(seed)``, one byte per draw.

    A draw u is kept when u < t = ceil(density * 2**64), that is, when
    u + (2**64 - t) does not carry out of 64 bits.  Blocks of ``_BLOCK``
    lanes are decided one packed int at a time; the last block may run
    past ``count``.
    """
    lanes = min(_BLOCK, count)
    ones = int.from_bytes((1).to_bytes(16, "little") * lanes, "little")
    low = ones * _MASK
    # lane i starts i+1 steps past the block's state; below 2**76, so it cannot spill
    ramp = int.from_bytes(b"".join((i * _GAMMA).to_bytes(16, "little") for i in range(1, lanes + 1)), "little")
    bias = ((1 << 64) + (-(density.numerator << 64) // density.denominator)) * ones
    for start in range(0, count, lanes):
        z = (ramp + ((seed + start * _GAMMA) & _MASK) * ones) & low
        z = (((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9) & low
        z = (((z ^ (z >> 27)) & low) * 0x94D049BB133111EB) & low
        # bits 64..96 of every lane are clear here, so each carry stops at bit 64
        carry = (((z ^ (z >> 31)) + bias) >> 64) & ones
        yield (carry ^ ones).to_bytes(16 * lanes, "little")[::16]


def sample_compact(spec: SampleSpec) -> DigitalSet:
    """Draw a nonempty random digital set at the given depth and density.

    Cells are visited in lexicographic order; cell i uses the i-th output
    of the stream seeded by ``spec.seed``, kept when the draw clears the
    density threshold.  An all-rejected draw keeps the lexicographically
    first cell, because the sampled object must be a nonempty compact set.
    """
    side = spec.b**spec.depth
    flags = itertools.chain.from_iterable(_keep_flags(spec.seed, side**spec.n, spec.density))
    # the peak of memory is the last block, where the kernel's ints meet the kept cells;
    # the set keeps these tuples as drawn, so building it adds nothing to the peak
    kept = tuple(itertools.compress(itertools.product(range(side), repeat=spec.n), flags))
    return DigitalSet(spec.n, spec.b, spec.depth, kept or ((0,) * spec.n,))


def skeleton_depth(e: DigitalSet, delta: Fraction) -> int:
    """Smallest refinement depth whose half cell diameter is at most delta."""
    delta = _frac(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    root_n_up = root_upper(Fraction(e.n), 2)
    depth = e.m
    while root_n_up > 2 * delta * e.b**depth:
        depth += 1
    return depth


def finite_skeleton(e: DigitalSet, delta: Fraction) -> list[Point]:
    """Finite delta-net inside the set: cell centers of a fine refinement.

    The refinement depth is chosen so half the cell diameter (certified
    via an upper enclosure of sqrt(n)) is at most delta; every point of
    the set then lies within delta of a returned center, and every center
    lies in the set.  Each call re-certifies this by a Hausdorff bracket
    between the set and the refined cells carrying the centers.
    """
    depth = skeleton_depth(e, delta)
    fine = e.refine(depth)
    if hausdorff_bracket(e, fine, depth).hi > delta:
        raise AssertionError("skeleton bracket exceeded delta")
    half = Fraction(1, 2 * fine.b**fine.m)
    return [
        Point(tuple(Fraction(2 * j + 1) * half for j in cell)) for cell in fine.cells
    ]
