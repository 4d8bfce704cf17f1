"""Random compact sets, finite skeletons, and coverability frequencies.

Sampling is bit-exact across platforms: the generator is SplitMix64
(Steele, Lea, Flood 2014), a cell is kept when u * density_den <
density_num * 2**64 holds in integer arithmetic, and every derived
quantity is rational.  Identical specs therefore give byte-identical
reports.

The frequency study is an illustration, not evidence: it samples one
i.i.d. cell-inclusion model at finite depth, while typicality in the
Baire-category sense is a topological notion with no canonical
probability measure behind it.  Finite-depth witness frequencies neither
prove nor refute any category statement.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .covers import CoverSeq, greedy_strong_cover
from .geometry import DigitalSet, HBracket, Point, hausdorff_bracket
from .rational import format_scalar, root_upper

_MASK = (1 << 64) - 1


class SplitMix64:
    """SplitMix64: 64-bit state, one add and two xor-shift-multiply mixes."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def fork(self, stream: int) -> "SplitMix64":
        """Derived stream: mix the stream index into a fresh seed."""
        child = SplitMix64(self.state ^ (stream * 0xA3EC647659359ACD))
        child.next()
        return child


@dataclass(frozen=True)
class SampleSpec:
    """Parameters for seeded draws of random digital sets."""

    seed: int
    n: int
    b: int
    depth: int
    density: Fraction
    trials: int = 1

    def __post_init__(self):
        object.__setattr__(self, "density", Fraction(self.density))
        if not 0 < self.density <= 1:
            raise ValueError("density must lie in (0, 1]")
        if self.n < 1 or self.b < 2 or self.depth < 0:
            raise ValueError("bad sample dimensions")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


def sample_compact(spec: SampleSpec) -> DigitalSet:
    """Draw a nonempty random digital set at the given depth and density.

    Cells are visited in lexicographic order; cell i uses the i-th output
    of the stream seeded by ``spec.seed``, kept when the draw clears the
    density threshold.  An all-rejected draw keeps the lexicographically
    first cell, because the sampled object must be a nonempty compact set.
    """
    rng = SplitMix64(spec.seed)
    den = spec.density.denominator
    limit = spec.density.numerator << 64
    kept = tuple(
        cell
        for cell in itertools.product(range(spec.b**spec.depth), repeat=spec.n)
        if rng.next() * den < limit
    )
    return DigitalSet(spec.n, spec.b, spec.depth, kept or ((0,) * spec.n,))


def skeleton_depth(e: DigitalSet, delta: Fraction) -> int:
    """Smallest refinement depth whose half cell diameter is at most delta."""
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    root_n_up = root_upper(Fraction(e.n), 2)
    depth = e.m
    while root_n_up > 2 * delta * e.b**depth:
        depth += 1
    return depth


def _checked_refinement(e: DigitalSet, delta: Fraction) -> tuple[DigitalSet, HBracket]:
    """The skeleton's refinement of e, with a Hausdorff bracket certified within delta."""
    depth = skeleton_depth(e, delta)
    fine = e.refine(depth)
    bracket = hausdorff_bracket(e, fine, depth)
    if bracket.hi > delta:
        raise AssertionError("skeleton bracket exceeded delta")
    return fine, bracket


def finite_skeleton(e: DigitalSet, delta: Fraction) -> list[Point]:
    """Finite delta-net inside the set: cell centers of a fine refinement.

    The refinement depth is chosen so half the cell diameter (certified
    via an upper enclosure of sqrt(n)) is at most delta; every point of
    the set then lies within delta of a returned center, and every center
    lies in the set.  Each call re-certifies this by a Hausdorff bracket
    between the set and the refined cells carrying the centers.
    """
    fine, _ = _checked_refinement(e, delta)
    half = Fraction(1, 2 * fine.b**fine.m)
    return [
        Point(tuple(Fraction(2 * j + 1) * half for j in cell)) for cell in fine.cells
    ]


@dataclass(frozen=True)
class TrialRecord:
    """One sampled set: size, witness outcome per exponent, skeleton bracket."""

    trial: int
    seed: int
    cells: int
    outcomes: tuple[tuple[int, str], ...]
    skeleton_bracket: HBracket


@dataclass(frozen=True)
class TypicalityReport:
    """Aggregate of seeded trials.

    ``witness_frequency`` maps each exponent s to the fraction of trials
    where a budget-verified cube cover was found; the complementary
    outcome is "unknown" (search gave up), never "refuted", since failure
    to find a cover at finite depth refutes nothing.
    """

    spec: SampleSpec
    s_list: tuple[int, ...]
    max_pieces: int
    delta: Fraction
    records: tuple[TrialRecord, ...]
    witness_frequency: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        if len(self.records) != self.spec.trials:
            raise ValueError("record count must equal trials")
        for _, freq in self.witness_frequency:
            if not 0 <= freq <= 1:
                raise ValueError("frequencies must lie in [0, 1]")


def typicality_report(spec: SampleSpec, s_list: list[int], max_pieces: int) -> TypicalityReport:
    """Run the seeded trials and tally cover-witness frequencies.

    Each trial uses a stream derived from (seed, trial index), so trials
    are order-independent and insertion-stable.  Per trial and exponent s
    the search asks for a cube cover with budgets (1/s)**k; the search
    verifies every cover it returns.  The skeleton check uses the standard
    tolerance of one refined half diameter at the sampling depth, so its
    bracket depends only on (n, b, depth) and is computed once.
    """
    if any(s < 2 for s in s_list):
        raise ValueError("exponents must be >= 2")
    root_n_up = root_upper(Fraction(spec.n), 2)
    delta = root_n_up / (2 * spec.b**spec.depth)
    probe = DigitalSet(spec.n, spec.b, spec.depth, ((0,) * spec.n,))
    _, bracket = _checked_refinement(probe, delta)
    base = SplitMix64(spec.seed)
    records: list[TrialRecord] = []
    hits = {s: 0 for s in s_list}
    for t in range(spec.trials):
        trial_seed = base.fork(t + 1).next()
        draw = SampleSpec(
            seed=trial_seed,
            n=spec.n,
            b=spec.b,
            depth=spec.depth,
            density=spec.density,
        )
        e = sample_compact(draw)
        outcomes = []
        for s in s_list:
            found = isinstance(greedy_strong_cover(e, Fraction(1, s), max_pieces), CoverSeq)
            hits[s] += found
            outcomes.append((s, "witness" if found else "unknown"))
        records.append(
            TrialRecord(
                trial=t,
                seed=trial_seed,
                cells=len(e.cells),
                outcomes=tuple(outcomes),
                skeleton_bracket=bracket,
            )
        )
    freq = tuple((s, Fraction(hits[s], spec.trials)) for s in s_list)
    return TypicalityReport(
        spec=spec,
        s_list=tuple(s_list),
        max_pieces=max_pieces,
        delta=delta,
        records=tuple(records),
        witness_frequency=freq,
    )


def write_typicality_csv(report: TypicalityReport, path: str | Path) -> None:
    """One row per trial; outcome columns are keyed by exponent."""
    fields = ["trial", "seed", "cells"]
    fields += [f"outcome_s{s}" for s in report.s_list]
    fields += ["skeleton_lo", "skeleton_hi"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for rec in report.records:
            row = {"trial": rec.trial, "seed": rec.seed, "cells": rec.cells}
            for s, outcome in rec.outcomes:
                row[f"outcome_s{s}"] = outcome
            row["skeleton_lo"] = format_scalar(rec.skeleton_bracket.lo)
            row["skeleton_hi"] = format_scalar(rec.skeleton_bracket.hi)
            writer.writerow(row)


def write_typicality_json(report: TypicalityReport, path: str | Path) -> None:
    """Canonical JSON summary; rationals as "num/den" strings."""
    payload = {
        "schema": "typicality/1",
        "seed": report.spec.seed,
        "n": report.spec.n,
        "b": report.spec.b,
        "depth": report.spec.depth,
        "density": format_scalar(report.spec.density),
        "trials": report.spec.trials,
        "s_list": list(report.s_list),
        "max_pieces": report.max_pieces,
        "delta": format_scalar(report.delta),
        "witness_frequency": {
            str(s): format_scalar(freq) for s, freq in report.witness_frequency
        },
        "note": (
            "finite-depth witness frequencies under an i.i.d. cell model; "
            "illustrative only, no category-theoretic content"
        ),
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
