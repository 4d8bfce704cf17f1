"""Command-line surface over the library.

Thin shell: every subcommand parses arguments, loads canonical JSON
documents, calls exactly one library operation, and writes canonical
documents back.  No arithmetic happens here, and identical inputs give
byte-identical outputs.  Each handler imports the library modules it
calls, so a process loads only what its subcommand runs.

Exit codes:
  0  the requested construction or verification succeeded and re-validated
  1  verified negative: the operation ran and exactly established a "no"
     (budget violated, not a member, premises refuted, no survivor at
     some level, search gave up)
  2  usage error or malformed input file
  3  internal invariant failure (a re-validation the library performs on
     its own output did not pass) or any other unexpected exception,
     reported on one stderr line without a traceback
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .rational import format_scalar, parse_scalar


class _Negative(Exception):
    """Verified-negative outcome: message for stdout, exit code 1."""


def _scalar(text: str) -> Fraction:
    try:
        return parse_scalar(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="microset",
        description="exact cover certificates for compact subsets of the unit cube",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dust-generate", help="build and verify a dust tree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("-o", "--out", required=True)

    p = sub.add_parser("dust-gaps", help="exact per-level gap table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--tree", default=None, help="cross-check against this tree file")
    p.add_argument("-o", "--out", default=None)

    p = sub.add_parser(
        "dust-hmeasure", help="certified upper bound for the alpha-measure at one level"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--alpha", type=_scalar, required=True)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser(
        "dust-refute", help="survivor certificate against a budgeted cover"
    )
    p.add_argument("--tree", required=True)
    p.add_argument("--cover", required=True)
    p.add_argument("-o", "--out", default=None)
    p.add_argument(
        "--check",
        default=None,
        help="re-validate this existing certificate instead of searching",
    )

    p = sub.add_parser("cover-verify", help="verify budgets and coverage")
    p.add_argument("--set", dest="set_path", required=True)
    p.add_argument("--cover", required=True)
    p.add_argument("-o", "--out", default=None)

    p = sub.add_parser("cover-search", help="search for a cube cover with budgets eps**k")
    p.add_argument("--set", dest="set_path", required=True)
    p.add_argument("--eps", type=_scalar, required=True)
    p.add_argument("--max-pieces", type=int, default=4096)
    p.add_argument("-o", "--out", default=None)

    p = sub.add_parser("cover-merge", help="interleave covers into one sequence")
    p.add_argument("--covers", nargs="+", required=True)
    p.add_argument("--eps", type=_scalar, required=True)
    p.add_argument("-o", "--out", required=True)

    p = sub.add_parser(
        "ball-check",
        help="membership in a finite open-box union, optionally with a stability radius",
    )
    p.add_argument("--set", dest="set_path", required=True)
    p.add_argument("--ball", required=True)
    p.add_argument(
        "--witness",
        action="append",
        default=[],
        help="point as comma-separated rationals, one per box, e.g. '1/2,1/3'",
    )

    p = sub.add_parser("hausdorff", help="certified Hausdorff distance bracket")
    p.add_argument("--a", dest="a_path", required=True)
    p.add_argument("--b", dest="b_path", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("-o", "--out", default=None)

    p = sub.add_parser("baire-sample", help="seeded random digital set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--density", type=_scalar, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--out", required=True)

    p = sub.add_parser("render-svg", help="static SVG of a planar tree or cover")
    p.add_argument("--tree", default=None)
    p.add_argument("--cover", default=None)
    p.add_argument("--max-level", type=int, default=None)
    p.add_argument("-o", "--out", required=True)

    return parser


def _load_as(path: str, schema: str):
    from . import serialize

    return serialize.load(path, schema)


def _emit(obj, out: str | None) -> None:
    if out is not None:
        from . import serialize

        serialize.save(obj, out)


def _cmd_dust_generate(args) -> int:
    from . import dust, serialize

    spec = dust.DustSpec(n=args.n, b=args.b, depth=args.depth)
    problem = dust.validate(spec)
    if problem is not None:
        raise _Negative(f"inadmissible: {problem}")
    tree = dust.generate(spec)
    serialize.save(tree, args.out)
    total = sum(len(level) for level in tree.levels)
    print(f"generated {total} cubes across {spec.depth} levels -> {args.out}")
    return 0


def _cmd_dust_gaps(args) -> int:
    from . import dust

    spec = dust.DustSpec(n=args.n, b=args.b, depth=args.depth)
    problem = dust.validate(spec)
    if problem is not None:
        raise _Negative(f"inadmissible: {problem}")
    if args.tree is not None:
        tree = _load_as(args.tree, "dusttree/1")
        if tree.spec != spec:
            raise ValueError("tree was built for a different n, b or depth")
    table = dust.gap_table(spec)
    _emit(table, args.out)
    for k in range(1, spec.depth + 1):
        print(
            f"k={k} volume={format_scalar(table.volume[k - 1])}"
            f" leftover={format_scalar(table.leftover[k - 1])}"
            f" sibling_gap={format_scalar(table.sibling_gap[k - 1])}"
            f" level_gap={format_scalar(table.level_gap[k - 1])}"
        )
    return 0


def _cmd_dust_hmeasure(args) -> int:
    from . import dust

    spec = dust.DustSpec(n=args.n, b=args.b, depth=max(args.k, 1))
    bound = dust.hausdorff_measure_upper(spec, args.alpha, args.k)
    print(format_scalar(bound))
    return 0


def _cmd_dust_refute(args) -> int:
    from . import dust

    # the tree file is loaded, and so fully checked, though only its spec is used
    spec = _load_as(args.tree, "dusttree/1").spec
    cover = _load_as(args.cover, "coverseq/1")
    if cover.n != spec.n:
        raise ValueError("cover and tree differ in dimension")
    if args.check is not None:
        cert = _load_as(args.check, "survivor/1")
        try:
            dust.revalidate_survivor(spec, cover, cert)
        except ValueError as exc:
            raise _Negative(f"certificate rejected: {exc}") from None
        print(f"certificate re-validated: survivor {list(cert.survivor_word)}")
        return 0
    try:
        outcome = dust.survivor_refute(spec, cover)
    except ValueError as exc:
        raise _Negative(f"refutation premises not met: {exc}") from None
    if isinstance(outcome, dust.RefuterFailure):
        raise _Negative(
            f"refuter failure: no survivor at level {outcome.level} "
            f"(checked prefix {outcome.checked_prefix})"
        )
    _emit(outcome, args.out)
    print(
        f"survivor {list(outcome.survivor_word)} disjoint from the first "
        f"{outcome.checked_prefix} pieces"
    )
    return 0


def _cmd_cover_verify(args) -> int:
    from . import covers

    e = _load_as(args.set_path, "digitalset/1")
    cover = _load_as(args.cover, "coverseq/1")
    report = covers.verify_cover(e, cover)
    _emit(report, args.out)
    if report.ok:
        print("cover verified: budgets and coverage hold")
        return 0
    if report.first_violation is not None:
        k, kind = report.first_violation
        raise _Negative(f"{kind} violation at position {k}")
    raise _Negative(f"uncovered cell {list(report.uncovered_witness)}")


def _cmd_cover_search(args) -> int:
    from . import covers
    from .covers import GreedyFailure

    e = _load_as(args.set_path, "digitalset/1")
    # the search verifies what it emits; a failed check raises AssertionError
    cover = covers.greedy_strong_cover(e, args.eps, args.max_pieces)
    if isinstance(cover, GreedyFailure):
        raise _Negative(
            f"{cover.reason} at position {cover.position}"
            f" ({cover.uncovered} cells uncovered)"
        )
    _emit(cover, args.out)
    print(f"cover with {len(cover.pieces)} pieces at eps={format_scalar(cover.eps)}")
    return 0


def _cmd_cover_merge(args) -> int:
    from . import covers, serialize

    loaded = [_load_as(path, "coverseq/1") for path in args.covers]
    if len({cover.n for cover in loaded}) > 1:
        raise ValueError("covers differ in dimension")
    try:
        merged = covers.merge_covers(loaded, args.eps)
    except ValueError as exc:
        raise _Negative(f"merge premises not met: {exc}") from None
    serialize.save(merged, args.out)
    print(f"merged {len(loaded)} covers into {len(merged.pieces)} pieces -> {args.out}")
    return 0


def _cmd_ball_check(args) -> int:
    from . import covers
    from .geometry import Point

    k_set = _load_as(args.set_path, "digitalset/1")
    ball = _load_as(args.ball, "ballspec/1")
    member = covers.ball_membership(k_set, ball)
    if not member:
        raise _Negative("not a member of the open-box union")
    if args.witness:
        points = [
            Point(tuple(parse_scalar(c) for c in text.split(","))) for text in args.witness
        ]
        radius = covers.ball_stability_radius(k_set, ball, points)
        print(f"member; stability radius {format_scalar(radius)}")
    else:
        print("member")
    return 0


def _cmd_hausdorff(args) -> int:
    from .geometry import hausdorff_bracket

    a = _load_as(args.a_path, "digitalset/1")
    b = _load_as(args.b_path, "digitalset/1")
    bracket = hausdorff_bracket(a, b, args.depth)
    _emit(bracket, args.out)
    print(
        f"lo={format_scalar(bracket.lo)} hi={format_scalar(bracket.hi)}"
        f" width_cap={format_scalar(bracket.width_cap)}"
    )
    return 0


def _cmd_baire_sample(args) -> int:
    from . import baire, serialize

    spec = baire.SampleSpec(
        seed=args.seed, n=args.n, b=args.b, depth=args.depth, density=args.density
    )
    e = baire.sample_compact(spec)
    serialize.save(e, args.out)
    print(f"sampled {len(e.cells)} cells -> {args.out}")
    return 0


def _cmd_render_svg(args) -> int:
    from . import svg

    if (args.tree is None) == (args.cover is None):
        raise ValueError("give exactly one of --tree or --cover")
    if args.cover is not None and args.max_level is not None:
        raise ValueError("--max-level applies to --tree only")
    if args.tree is not None:
        text = svg.render_dust(_load_as(args.tree, "dusttree/1"), args.max_level)
    else:
        text = svg.render_cover(_load_as(args.cover, "coverseq/1"))
    svg.write_svg(text, args.out)
    print(f"wrote {args.out}")
    return 0


_HANDLERS = {
    "dust-generate": _cmd_dust_generate,
    "dust-gaps": _cmd_dust_gaps,
    "dust-hmeasure": _cmd_dust_hmeasure,
    "dust-refute": _cmd_dust_refute,
    "cover-verify": _cmd_cover_verify,
    "cover-search": _cmd_cover_search,
    "cover-merge": _cmd_cover_merge,
    "ball-check": _cmd_ball_check,
    "hausdorff": _cmd_hausdorff,
    "baire-sample": _cmd_baire_sample,
    "render-svg": _cmd_render_svg,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _HANDLERS[args.command](args)
    except _Negative as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # any other escape is a bug: one line, no traceback
        print(f"internal error, please report: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
