#!/usr/bin/env python3
"""Batch refutation run: seeded adversarial covers against one dust tree.

Derives the critical budget when none is given, throws a mix of swallowing
and random adversaries at the dust the spec defines, and prints one line per
refutation.  With ``--out-dir`` the tree is built and written too, so that
the dumped certificates can be re-validated with ``microset dust-refute --check``.
"""

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from microset import serialize
from microset.dust import (
    DustSpec,
    RefuterFailure,
    adversary_random,
    adversary_swallow,
    generate,
    refutation_budget_lower,
    survivor_refute,
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=1, help="dimension (default 1)")
    parser.add_argument("--b", type=int, default=3, help="grid base (default 3)")
    parser.add_argument("--depth", type=int, default=4, help="tree depth (default 4)")
    parser.add_argument(
        "--adversaries", type=int, default=10, help="number of covers to refute"
    )
    parser.add_argument("--seed", type=int, default=2026, help="adversary seed")
    parser.add_argument(
        "--eps",
        type=Fraction,
        default=None,
        help="cover budget; defaults to the certified critical budget",
    )
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=None,
        help="directory for tree, covers, and certificates (optional)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = DustSpec(n=args.n, b=args.b, depth=args.depth)
    eps = args.eps if args.eps is not None else refutation_budget_lower(spec)
    print(f"tree: n={spec.n} b={spec.b} depth={spec.depth} "
          f"leaves={2 ** (spec.n * spec.depth)}")
    print(f"budget eps = {eps} (~{float(eps):.3e})")

    out_dir = args.out_dir
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        serialize.save(generate(spec), out_dir / "tree.json")

    failures = 0
    for i in range(args.adversaries):
        pieces = 1 + i
        if i % 2 == 0:
            kind = "swallow"
            cover = adversary_swallow(spec, eps, pieces)
        else:
            kind = "random"
            cover = adversary_random(spec, eps, pieces, args.seed + i)
        outcome = survivor_refute(spec, cover)
        if isinstance(outcome, RefuterFailure):
            failures += 1
            print(f"[{i:02d}] {kind:7s} pieces={pieces:2d}  "
                  f"FAILURE at level {outcome.level}")
            continue
        counts = ",".join(str(c) for c in outcome.level_counts)
        word = "".join(str(w) for w in outcome.survivor_word)
        print(f"[{i:02d}] {kind:7s} pieces={pieces:2d}  checked={outcome.checked_prefix}  "
              f"survivor={word}  alive per level: {counts}")
        if out_dir is not None:
            serialize.save(cover, out_dir / f"cover_{i:02d}.json")
            serialize.save(outcome, out_dir / f"cert_{i:02d}.json")

    if failures:
        print(f"{failures} refutation(s) failed", file=sys.stderr)
        return 1
    print(f"all {args.adversaries} covers refuted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
