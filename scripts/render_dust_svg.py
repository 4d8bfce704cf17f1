#!/usr/bin/env python3
"""Render a planar dust tree, and optionally an adversarial cover, to SVG."""

import argparse
import sys
from pathlib import Path

from microset.dust import DustSpec, adversary_random, generate, refutation_budget_lower
from microset.svg import render_cover, render_dust, write_svg


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--b", type=int, default=3)
    parser.add_argument("--depth", type=int, default=3)
    parser.add_argument("--max-level", type=int, default=None)
    parser.add_argument("-o", "--out", type=Path, required=True)
    parser.add_argument(
        "--cover-pieces", type=int, default=0,
        help="also render a random adversarial cover with this many pieces",
    )
    parser.add_argument("--cover-seed", type=int, default=7)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = DustSpec(n=2, b=args.b, depth=args.depth)
    write_svg(render_dust(generate(spec), args.max_level), args.out)
    print(f"wrote {args.out}")
    if args.cover_pieces > 0:
        eps = refutation_budget_lower(spec)
        cover = adversary_random(spec, eps, args.cover_pieces, args.cover_seed)
        cover_path = args.out.with_name(args.out.stem + "_cover" + args.out.suffix)
        write_svg(render_cover(cover), cover_path)
        print(f"wrote {cover_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
