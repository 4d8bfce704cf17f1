"""The ``argparse`` command line the ``microset`` table parser replaced, kept as a test oracle.

``build_parser`` is the parser as it stood, flag for flag.  ``outcome``
runs it on one argv and reports what ``cli._parse`` must agree with:
``("help",)``, ``("error",)``, or ``("ok", command, values)``.

argparse accepts any unique prefix of a flag (``--dep`` for ``--depth``),
which the table parser refuses on purpose, so argv drawn for a comparison
spells every flag in full.  argparse's rule for a token that looks like a
negative number is not the same in every Python release; ``_Parser`` pins
the rule of Python 3.10 and 3.11, under which ``-3`` and ``-.5`` are values
and ``-1/2`` is a flag, so the oracle reads alike on every version.
"""

import argparse
import contextlib
import io
import re

from microset.rational import parse_scalar


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _scalar(text: str):
    try:
        return parse_scalar(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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

    p = sub.add_parser("dust-adversary", help="budget-tight cover that the refuter must beat")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--eps", type=_scalar, default=None, help="default: the critical budget")
    p.add_argument(
        "--seed", type=int, default=None, help="random cover from this seed; default: swallow leaves"
    )
    p.add_argument("-o", "--out", required=True)

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
    p.add_argument("-o", "--out", required=True)

    return parser


PARSER = build_parser()


def outcome(argv: list[str]) -> tuple:
    """("help",) if argparse printed a help text, ("error",) on a usage error, else
    ("ok", command, {attribute: value})."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            values = vars(PARSER.parse_args(argv))
        except SystemExit as exc:
            return ("help",) if exc.code == 0 else ("error",)
    return ("ok", values.pop("command"), values)
