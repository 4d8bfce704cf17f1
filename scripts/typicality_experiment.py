#!/usr/bin/env python3
"""Witness-frequency study over random digital sets.

Samples seeded compact sets at a fixed density, searches for strong cube
covers at budgets (1/s)**k for each requested s, and tallies how often
a verified witness was found.  Frequencies describe this finite sampling
model only; an "unknown" outcome just means the search gave up.
"""

import argparse
import sys
from fractions import Fraction

from microset.baire import (
    SampleSpec,
    typicality_report,
    write_typicality_csv,
    write_typicality_json,
)
from microset.rational import parse_scalar


def density(text: str) -> Fraction:
    """A rational in (0, 1], written as the ``microset`` command reads it."""
    try:
        value = parse_scalar(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(f"density must lie in (0, 1]: {text!r}")
    return value


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--n", type=int, default=2)
    parser.add_argument("--b", type=int, default=3)
    parser.add_argument("--depth", type=int, default=3)
    parser.add_argument("--density", type=density, default=Fraction(1, 20))
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument(
        "--s", type=int, nargs="+", default=[2, 3, 4], help="budget exponents"
    )
    parser.add_argument("--max-pieces", type=int, default=4096)
    parser.add_argument("--csv", default=None, help="per-trial CSV output path")
    parser.add_argument("--json", default=None, help="summary JSON output path")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = SampleSpec(
        seed=args.seed,
        n=args.n,
        b=args.b,
        depth=args.depth,
        density=args.density,
        trials=args.trials,
    )
    report = typicality_report(spec, args.s, args.max_pieces)
    sizes = [rec.cells for rec in report.records]
    print(f"sampled {spec.trials} sets: n={spec.n} b={spec.b} depth={spec.depth} "
          f"density={spec.density}")
    print(f"cells per set: min={min(sizes)} max={max(sizes)}")
    print(f"skeleton tolerance delta = {report.delta}")
    for s, freq in report.witness_frequency:
        print(f"  s={s:2d}  witness frequency {freq}  (~{float(freq):.2f})")
    if args.csv:
        write_typicality_csv(report, args.csv)
        print(f"wrote {args.csv}")
    if args.json:
        write_typicality_json(report, args.json)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
