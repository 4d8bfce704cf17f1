"""Command-line surface over the library.

Each subcommand parses its flags, loads canonical JSON documents, calls
the library, and writes canonical documents back; identical inputs give
byte-identical outputs.  A handler checks only what the command line adds
(flag combinations, the ``--count`` floor, a ``--tree`` that matches the
flags) and counts what it prints: every rule on a value, such as the float
refusal, the eps range or dust admissibility, is checked once in the
library, and ``main`` maps its exceptions to the exit codes below.
Library modules are bound at the top but registered lazily by the
package, so a process runs only the modules its subcommand calls.

Exit codes:
  0  the requested construction or verification succeeded and re-validated
  1  verified negative, a ``microset.Negative``: the inputs are well formed and
     their claim is false (budget violated, not a member, premises refuted, search gave up)
  2  usage error or malformed input file
  3  internal invariant failure (a re-validation the library performs on
     its own output did not pass) or any other unexpected exception,
     reported on one stderr line without a traceback
"""

from __future__ import annotations

import sys

from . import baire, ball, cells, covers, dust, geometry, serialize, svg
from .rational import Negative, format_scalar, parse_scalar


def _flag(names: str, kind="path", default=..., count=1, dest=None, help=""):
    """A flag's spellings ("-o/--out"), value kind (int, rational, path or point), default (...
    if required), count (1, "+" for one or more values, "append" for one per use) and attribute."""
    names = tuple(names.split("/"))
    return names, dest or names[-1].lstrip("-").replace("-", "_"), kind, default, count, help


class _Args:
    """A subcommand's flag values, one attribute each."""


def _named(token: str, flags: dict):
    """None for a value, else the flag a token names (None if unknown) and the value after "=".
    As in the standard library parser, a token naming no flag is a value unless it starts with
    "-" and is not "-", a text with a space or a negative number such as "-3" or "-.5" (one
    final newline allowed)."""
    if token in flags:
        return flags[token], None
    name, eq, value = token.partition("=")
    if eq and name in flags:
        return flags[name], value
    digits = token[1:].removesuffix("\n")
    number = not digits.endswith(".") and digits.replace(".", "", 1).isdecimal()
    return None if token[:1] != "-" or token == "-" or " " in token or number else (None, None)


def _parse(argv: list[str]):
    """(handler, args) read from argv by _COMMANDS, or None once a help text is printed; a usage
    error raises ValueError.  The rules are the standard library parser's, except that no flag
    may be abbreviated."""
    def fail(message: str) -> ValueError:  # the usage line of the subcommand read so far follows
        return ValueError(f"{message}\n{_help(command).splitlines()[0]}")
    command, flags, spec, args, unknown = None, dict.fromkeys(_HELP[0], _HELP), (), _Args(), []
    tokens = list(argv)
    while tokens:
        token = tokens.pop(0)
        named = _named(token, flags)
        if named is None and command is None:
            if token not in _COMMANDS:
                raise fail(f"invalid subcommand {token!r}")
            command, spec = token, _COMMANDS[token][1]
            flags = {name: flag for flag in (_HELP, *spec) for name in flag[0]}
            vars(args).update((flag[1], flag[3]) for flag in spec)  # ... marks a required flag
        elif named is None or named[0] is None:
            unknown.append(token)
        elif named[0] is _HELP and named[1] is None:
            print(_help(command))
            return None
        else:
            (names, dest, kind, _, count, _), value = named
            texts = [] if value is None else [value]
            while value is None and tokens and (count == "+" or not texts) and not _named(tokens[0], flags):
                texts.append(tokens.pop(0))
            if not texts or not count:
                raise fail(f"argument {'/'.join(names)}: expected {'a' if count else 'no'} value")
            read = {"int": int, "rational": parse_scalar}.get(kind, str)  # looked up per call, for tracers
            try:
                got = [read(text) for text in texts]
            except ValueError as exc:
                raise fail(f"argument {'/'.join(names)}: {exc}") from None
            vars(args)[dest] = got[0] if count == 1 else got if count == "+" else vars(args)[dest] + got
    missing = ["/".join(flag[0]) for flag in spec if vars(args)[flag[1]] is ...]
    if command is None or missing:
        raise fail(f"the following arguments are required: {', '.join(missing) or 'COMMAND'}")
    if unknown:
        raise fail(f"unrecognized arguments: {' '.join(unknown)}")
    return _COMMANDS[command][2], args


def _help(command: str | None) -> str:
    """The usage line, then the subcommands, or one subcommand's flags, with their help."""
    if command is None:
        usage, about = "[-h] COMMAND ...", "exact cover certificates for compact subsets of the unit cube"
        title = "subcommands ('microset COMMAND --help' lists one's flags)"
        rows = [(name, entry[0]) for name, entry in _COMMANDS.items()]
    else:
        (about, spec, _), usage, title, rows = _COMMANDS[command], command, "flags", []
        for names, _, kind, default, count, text in (_HELP, *spec):
            meta = f" {kind.upper()}" * (count != 0) + " ..." * (count == "+")
            usage += f" {names[0]}{meta}" if default is ... else f" [{names[0]}{meta}]"
            given = "required" if default is ... else "" if default in (None, []) else f"default {default}"
            rows.append((", ".join(names) + meta, "; ".join(filter(None, (text, given)))))
    width = max(len(left) for left, _ in rows) + 2
    lines = "\n".join(f"  {left:<{width}}{right}".rstrip() for left, right in rows)
    return f"usage: microset {usage}\n\n{about}\n\n{title}:\n{lines}"


def _emit(obj, out: str | None) -> None:
    if out is not None:
        serialize.save(obj, out)


def _cmd_dust_generate(args) -> int:
    tree = dust.generate(dust.DustSpec(n=args.n, b=args.b, depth=args.depth))
    serialize.save(tree, args.out)
    total = sum(len(level) for level in tree.levels)
    print(f"generated {total} cubes across {args.depth} levels -> {args.out}")
    return 0


def _cmd_dust_gaps(args) -> int:
    spec = dust.DustSpec(n=args.n, b=args.b, depth=args.depth)
    table = dust.gap_table(spec)  # before --tree is read: an inadmissible spec is exit 1 with or without it
    if args.tree is not None:
        tree = serialize.load(args.tree, "dusttree/1")
        if tree.spec != spec:
            raise ValueError("tree was built for a different n, b or depth")
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
    spec = dust.DustSpec(n=args.n, b=args.b, depth=args.k)
    print(format_scalar(dust.hausdorff_measure_upper(spec, args.alpha)))
    return 0


def _cmd_dust_adversary(args) -> int:
    if args.count < 1:
        raise ValueError("--count must be at least 1")
    spec = dust.DustSpec(n=args.n, b=args.b, depth=args.depth)
    eps = dust.refutation_budget_lower(spec) if args.eps is None else args.eps
    if args.seed is None:
        kind, cover = "swallow", dust.adversary_swallow(spec, eps, args.count)
    else:
        kind, cover = "random", dust.adversary_random(spec, eps, args.count, args.seed)
    if cover.first_budget_violation() is not None:
        raise AssertionError("the adversary broke its own budget")
    serialize.save(cover, args.out)
    print(f"{kind} cover with {args.count} pieces -> {args.out}")
    return 0


def _cmd_dust_refute(args) -> int:
    if args.check is not None and args.out is not None:
        raise ValueError("--check re-validates a certificate and writes no file; drop -o/--out")
    # the tree file is loaded, and so fully checked, though only its spec is used
    spec = serialize.load(args.tree, "dusttree/1").spec
    cover = serialize.load(args.cover, "coverseq/1")
    if args.check is not None:
        cert = serialize.load(args.check, "survivor/1")
        try:
            dust.revalidate_survivor(spec, cover, cert)
        except Negative as exc:
            raise Negative(f"certificate rejected: {exc}") from None
        print(f"certificate re-validated: survivor {list(cert.survivor_word)}")
        return 0
    try:
        cert = dust.survivor_refute(spec, cover)
    except Negative as exc:
        raise Negative(f"refutation premises not met: {exc}") from None
    _emit(cert, args.out)
    print(f"survivor {list(cert.survivor_word)} disjoint from the first {cert.checked_prefix} pieces")
    return 0


def _cmd_cover_verify(args) -> int:
    e = serialize.load(args.set_path, "digitalset/1")
    cover = serialize.load(args.cover, "coverseq/1")
    report = covers.verify_cover(e, cover)
    _emit(report, args.out)
    if report.ok:
        print("cover verified: budgets and coverage hold")
        return 0
    if report.first_violation is not None:
        k, kind = report.first_violation
        raise Negative(f"{kind} violation at position {k}")
    raise Negative(f"uncovered cell {list(report.uncovered_witness)}")


def _cmd_cover_search(args) -> int:
    e = serialize.load(args.set_path, "digitalset/1")
    # the search verifies what it emits; a failed check raises AssertionError
    cover = covers.greedy_strong_cover(e, args.eps)
    if isinstance(cover, covers.GreedyFailure):
        raise Negative(
            f"{cover.reason} at position {cover.position}"
            f" ({cover.uncovered} cells uncovered)"
        )
    _emit(cover, args.out)
    print(f"cover with {len(cover.pieces)} pieces at eps={format_scalar(cover.eps)}")
    return 0


def _cmd_cover_merge(args) -> int:
    loaded = [serialize.load(path, "coverseq/1") for path in args.covers]
    try:
        merged = covers.merge_covers(loaded, args.eps)
    except Negative as exc:
        raise Negative(f"merge premises not met: {exc}") from None
    serialize.save(merged, args.out)
    print(f"merged {len(loaded)} covers into {len(merged.pieces)} pieces -> {args.out}")
    return 0


def _cmd_ball_check(args) -> int:
    # witnesses are input, read before any file; given them, the radius pass decides membership too
    points = [cells.Point(tuple(parse_scalar(c) for c in text.split(","))) for text in args.witness]
    k_set = serialize.load(args.set_path, "digitalset/1")
    union = serialize.load(args.ball, "ballspec/1")
    if points:
        radius = ball.ball_stability_radius(k_set, union, points)
        print(f"member; stability radius {format_scalar(radius)}")
    elif ball.ball_membership(k_set, union):
        print("member")
    else:
        raise Negative("not a member of the open-box union")
    return 0


def _cmd_hausdorff(args) -> int:
    a = serialize.load(args.a_path, "digitalset/1")
    b = serialize.load(args.b_path, "digitalset/1")
    bracket = geometry.hausdorff_bracket(a, b, args.depth)
    _emit(bracket, args.out)
    print(
        f"lo={format_scalar(bracket.lo)} hi={format_scalar(bracket.hi)}"
        f" width_cap={format_scalar(bracket.width_cap)}"
    )
    return 0


def _cmd_baire_sample(args) -> int:
    spec = baire.SampleSpec(
        seed=args.seed, n=args.n, b=args.b, depth=args.depth, density=args.density
    )
    e = baire.sample_compact(spec)
    serialize.save(e, args.out)
    print(f"sampled {len(e.cells)} cells -> {args.out}")
    return 0


def _cmd_render_svg(args) -> int:
    if (args.tree is None) == (args.cover is None):
        raise ValueError("give exactly one of --tree or --cover")
    if args.tree is not None:
        lines = svg.render_dust(serialize.load(args.tree, "dusttree/1"))
    else:
        lines = svg.render_cover(serialize.load(args.cover, "coverseq/1"))
    svg.write_svg(lines, args.out)
    print(f"wrote {args.out}")
    return 0


_HELP = _flag("-h/--help", default=None, count=0, help="show this help")
_N, _B, _DEPTH = _flag("--n", "int"), _flag("--b", "int"), _flag("--depth", "int")
_SET, _EPS, _COVER = _flag("--set", dest="set_path"), _flag("--eps", "rational"), _flag("--cover")
_OUT, _MAYBE_OUT = _flag("-o/--out"), _flag("-o/--out", default=None)

_COMMANDS = {  # subcommand -> (help, flags, handler)
    "dust-generate": ("build and verify a dust tree", (_N, _B, _DEPTH, _OUT), _cmd_dust_generate),
    "dust-gaps": ("exact per-level gap table", (
        _N, _B, _DEPTH, _flag("--tree", default=None, help="cross-check against this tree file"),
        _MAYBE_OUT), _cmd_dust_gaps),
    "dust-hmeasure": ("certified upper bound for the alpha-measure at one level", (
        _N, _B, _flag("--alpha", "rational"),
        _flag("--k", "int", help="the level, which is the dust's depth")), _cmd_dust_hmeasure),
    "dust-adversary": ("budget-tight cover that the refuter must beat", (
        _N, _B, _DEPTH, _flag("--count", "int"),
        _flag("--eps", "rational", default=None, help="default: the critical budget"),
        _flag("--seed", "int", default=None, help="random cover from this seed; default: swallow leaves"),
        _OUT), _cmd_dust_adversary),
    "dust-refute": ("survivor certificate against a budgeted cover", (
        _flag("--tree"), _COVER, _MAYBE_OUT,
        _flag("--check", default=None, help="re-validate this existing certificate instead of searching")),
        _cmd_dust_refute),
    "cover-verify": ("verify budgets and coverage", (_SET, _COVER, _MAYBE_OUT), _cmd_cover_verify),
    "cover-search": ("search for a cube cover with budgets eps**k", (
        _SET, _EPS, _MAYBE_OUT), _cmd_cover_search),
    "cover-merge": ("interleave covers into one sequence", (
        _flag("--covers", count="+"), _EPS, _OUT), _cmd_cover_merge),
    "ball-check": ("membership in a finite open-box union, optionally with a stability radius", (
        _SET, _flag("--ball"), _flag("--witness", "point", default=[], count="append",
                                     help="comma-separated rationals, one per box, e.g. '1/2,1/3'")),
        _cmd_ball_check),
    "hausdorff": ("certified Hausdorff distance bracket", (
        _flag("--a", dest="a_path"), _flag("--b", dest="b_path"), _DEPTH, _MAYBE_OUT), _cmd_hausdorff),
    "baire-sample": ("seeded random digital set", (
        _N, _B, _DEPTH, _flag("--density", "rational"), _flag("--seed", "int"), _OUT), _cmd_baire_sample),
    "render-svg": ("static SVG of a planar tree or cover", (
        _flag("--tree", default=None), _flag("--cover", default=None), _OUT), _cmd_render_svg),
}


def main(argv: list[str] | None = None) -> int:
    try:
        parsed = _parse(sys.argv[1:] if argv is None else argv)
        return 0 if parsed is None else parsed[0](parsed[1])
    except Negative as exc:
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
