"""The command-line parser: agreement with the argparse parser it replaced, help and usage
errors, the console script, and fuzzed argv for every subcommand."""

import contextlib
import importlib
import io
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import argparse_oracle
from microset import cli, serialize
from microset.ball import BallSpec
from microset.cells import Box, CoverSeq, DigitalSet
from microset.covers import greedy_strong_cover
from microset.dust import (
    DustSpec,
    adversary_swallow,
    gap_table,
    generate,
    refutation_budget_lower,
    survivor_refute,
)

F = Fraction
ROOT = Path(__file__).resolve().parent.parent


def table_outcome(argv: list[str]) -> tuple:
    """``cli._parse`` on argv, in the form of ``argparse_oracle.outcome``."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            parsed = cli._parse(argv)
        except ValueError:
            return ("error",)
    if parsed is None:
        return ("help",)
    handler, args = parsed
    command = next(name for name, entry in cli._COMMANDS.items() if entry[2] is handler)
    return ("ok", command, vars(args))


# ints, rationals, negative numbers (values) and "-1/2" (a flag), texts with a space (values),
# a flag-like "--x", and spellings that int() and parse_scalar read in their own ways
_ODD_VALUES = ("0", "3", "-3", "12", "1/2", "-1/2", "0.5", "-.5", "1_0", " 7 ", "-٣", "--x", "",
               "x.json", "-", "1e-5", "2/0", "3.", "-3\n", "-1/2 ", "-x y")
_PLAIN = {"int": st.integers(-3, 20).map(str), "rational": st.sampled_from(("1/2", "3", "0.5", "-2/7")),
          "path": st.sampled_from(("x.json", "dir/y.json")), "point": st.sampled_from(("1/2", "1/2,1/3"))}


@settings(max_examples=300)
@given(data=st.data())
def test_table_parser_agrees_with_argparse(data):
    command = data.draw(st.sampled_from(list(cli._COMMANDS)))
    uses = []  # most required flags, some others, some of them twice
    for flag in cli._COMMANDS[command][1]:
        given = data.draw(st.integers(0, 19)) < (19 if flag[3] is ... else 8)
        uses += [flag] * given * (1 + (data.draw(st.integers(0, 2)) == 0))
    argv = []
    for names, _, kind, _, count, _ in data.draw(st.permutations(uses)):
        value = _PLAIN[kind] if data.draw(st.integers(0, 3)) else st.sampled_from(_ODD_VALUES)
        values = [data.draw(value) for _ in range(data.draw(st.integers(1, 3)) if count == "+" else 1)]
        if data.draw(st.integers(0, 19)) == 0:  # one value too many, or none
            values = [*values, data.draw(value)] if data.draw(st.booleans()) else []
        name = data.draw(st.sampled_from(names))
        if values and data.draw(st.booleans()):
            argv += [f"{name}={values[0]}", *values[1:]]
        else:
            argv += [name, *values]
    # an unknown flag and a help flag, anywhere: a help flag after an unknown one still shows help
    for extra in (("--x", "-x", "--precision"), ("-h", "--help")):
        if data.draw(st.integers(0, 7)) == 0:
            argv.insert(data.draw(st.integers(0, len(argv))), data.draw(st.sampled_from(extra)))
    if data.draw(st.integers(0, 19)) > 0:
        argv.insert(0, command)
    assert table_outcome(argv) == argparse_oracle.outcome(argv), argv


_HMEASURE = ["dust-hmeasure", "--n", "1", "--b", "3", "--k", "1"]
_BALL = ["ball-check", "--set", "s.json", "--ball", "b.json"]


@pytest.mark.parametrize(
    "argv",
    [
        [*_HMEASURE, "--alpha", "-3"],  # negative numbers are values
        [*_HMEASURE, "--alpha", "-.5"],
        [*_HMEASURE, "--alpha", "-3\n"],
        [*_HMEASURE, "--alpha", "-3."],
        [*_HMEASURE, "--alpha", "-1/2"],  # and anything else after "-" is a flag
        [*_HMEASURE, "--alpha", "-1/2 "],  # unless it has a space
        [*_HMEASURE, "--alpha=-1/2"],
        [*_HMEASURE, "--alpha", "1", "--alpha", "2"],  # the last use wins
        [*_HMEASURE, "--alpha", "1", "2"],
        [*_BALL, "--witness", "1/2", "--witness=1/3,1", "--witness", "-1"],
        ["cover-merge", "--covers", "a", "b", "c", "--eps", "1/2", "-o", "m"],
        ["cover-merge", "--covers", "a", "--eps", "1/2", "--covers", "b", "c", "-o=m"],
        ["cover-merge", "--covers=a", "b", "--eps", "1/2", "-o", "m"],
        [*_HMEASURE, "--x", "--help"],  # an unknown flag is reported after all tokens are read
        ["--x", "--help"],
        [*_HMEASURE, "--alpha", "x", "--help"],  # a bad value is reported at once
        [*_HMEASURE, "--alpha", "--help"],
        [*_HMEASURE, "--help=1"],
        ["nope", "--help"],
        ["-3"],
        [],
    ],
)
def test_table_parser_agrees_with_argparse_on_each_rule(argv):
    assert table_outcome(argv) == argparse_oracle.outcome(argv)


def test_flag_names_are_never_abbreviated():
    # argparse bound any unique prefix; the one intended difference
    tree = ["dust-generate", "--n", "1", "--b", "3", "-o", "t.json"]
    assert argparse_oracle.outcome([*tree, "--dep", "2"])[0] == "ok"
    assert table_outcome([*tree, "--dep", "2"]) == ("error",)
    assert table_outcome([*tree, "--depth", "2"])[0] == "ok"
    search = ["cover-search", "--set", "s.json", "--eps", "1/2"]
    assert argparse_oracle.outcome([*search, "--s", "2"])[2]["set_path"] == "2"  # silently rebound
    assert table_outcome([*search, "--s", "2"]) == ("error",)
    assert argparse_oracle.outcome(["--he"]) == ("help",)
    assert table_outcome(["--he"]) == ("error",)


def test_help_lists_subcommands_and_their_flags(capsys):
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: microset ")
    for name, (about, _, _) in cli._COMMANDS.items():
        assert re.search(rf"^  {name} +{re.escape(about)}$", out, re.M), name
    for name, (_, flags, _) in cli._COMMANDS.items():
        for option in ("-h", "--help"):
            assert cli.main([name, option]) == 0
            captured = capsys.readouterr()
            assert captured.err == "" and captured.out.startswith(f"usage: microset {name} [-h] ")
            for names, _, _, _, _, text in flags:
                row = rf"^  {re.escape(', '.join(names))} .*{re.escape(text)}"
                assert re.search(row, captured.out, re.M), (name, names)


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["no-such-command"],
        ["--precision", "3"],
        ["dust-generate"],
        ["dust-generate", "--n", "1", "--b", "3", "--depth", "2", "-o"],
        ["dust-generate", "--n", "x", "--b", "3", "--depth", "2", "-o", "t.json"],
        ["dust-hmeasure", "--n", "1", "--b", "3", "--alpha", "-1/2", "--k", "1"],
        ["dust-hmeasure", "--n", "1", "--b", "3", "--alpha", "1e-5", "--k", "1"],
        ["cover-search", "--set", "s.json", "--eps", "1/2", "--s", "2"],
        ["cover-merge", "--covers=a.json", "b.json", "--eps", "1/2", "-o", "m.json"],
        ["render-svg", "-o", "x.svg", "--help=yes"],
    ],
)
def test_usage_errors_print_an_error_and_the_usage_line(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error, usage = captured.err.splitlines()
    assert error.startswith("error: ") and usage.startswith("usage: microset ")


def test_console_script_runs_main(monkeypatch, capsys):
    pyproject = (ROOT / "pyproject.toml").read_text()
    scripts = pyproject.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    module, attr = re.search(r'^microset = "([\w.]+):(\w+)"$', scripts, re.M).groups()
    entry = getattr(importlib.import_module(module), attr)
    monkeypatch.setattr(sys, "argv", ["microset", "--help"])
    assert entry() == 0
    monkeypatch.setattr(sys, "argv", ["microset"])
    assert entry() == 2
    assert "usage: microset" in capsys.readouterr().err


def _box1(lo, hi):
    return Box(((F(lo), F(hi)),))


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    """Valid documents of every kind a subcommand reads, and files that are none of them."""
    tmp = tmp_path_factory.mktemp("fuzz")
    set1 = DigitalSet(1, 3, 2, ((0,), (4,)))
    spec2 = DustSpec(n=2, b=3, depth=2)
    cover2 = adversary_swallow(spec2, refutation_budget_lower(spec2), 3)
    docs = {
        "set1": set1,
        "set2": DigitalSet(2, 3, 1, ((0, 0), (2, 2))),
        "tree1": generate(DustSpec(n=1, b=3, depth=2)),
        "tree2": generate(spec2),
        "cover1": greedy_strong_cover(set1, F(1, 2)),
        "cover1b": CoverSeq(n=1, eps=F(1, 4), strong=False, pieces=(_box1(0, F(1, 4)),)),
        "cover2": cover2,
        "cert2": survivor_refute(spec2, cover2),
        "ball1": BallSpec(n=1, boxes=(_box1(F(-1, 2), F(1, 2)),)),
        "gaps": gap_table(DustSpec(n=1, b=3, depth=2)),
    }
    for name, doc in docs.items():
        serialize.save(doc, tmp / f"{name}.json")
    (tmp / "garbage.json").write_text("{not json")
    named = {name: str(tmp / f"{name}.json") for name in [*docs, "garbage", "missing"]}
    # for each flag that reads a file, the documents of its kind; any other file is the wrong kind
    kinds = {"set_path": ("set1", "set2"), "a_path": ("set1", "set2"), "b_path": ("set1", "set2"),
             "tree": ("tree1", "tree2"), "cover": ("cover1", "cover1b", "cover2"),
             "covers": ("cover1", "cover1b"), "ball": ("ball1",), "check": ("cert2",)}
    paths = {dest: [named[name] for name in names] for dest, names in kinds.items()}
    paths["any"] = [*named.values(), str(tmp)]
    paths["out"] = [str(tmp / "out.json"), str(tmp / "out.svg"), str(tmp), str(tmp / "no-dir" / "out.json")]
    return paths


_SMALL = {"n": 3, "depth": 3, "k": 3, "b": 4, "seed": 3, "count": 3}
_RATIONALS = {
    "alpha": ("0", "1/2", "1", "3/2", "-1"),
    "eps": ("1/2", "1/3", "4/5", "1/100", "0", "1"),
    "density": ("1/2", "1/10", "1", "0", "2"),
}
_POINTS = ("1/2", "1/6", "1/2,1/3", "0,0", "1", "-1/3")
# only these go wide: none reads as a large number
_HOSTILE = ("1e-1000000", "2/0", "2**64", "", " ", "nan", "-1/2", "0x10", "--x", "-", "1/0,1")
_UNKNOWN = ("--precision", "--s", "-x", "--dep", "--corner-order")


@settings(max_examples=300)
@given(data=st.data())
def test_fuzzed_command_lines_exit_0_1_or_2(data, paths):
    command = data.draw(st.sampled_from(list(cli._COMMANDS)))
    pieces = []
    for names, dest, kind, default, count, _ in cli._COMMANDS[command][1]:
        if data.draw(st.integers(0, 9)) >= (9 if default is ... else 5):
            continue
        if kind == "path":
            plain = st.sampled_from(paths[dest if dest == "out" or data.draw(st.integers(0, 3)) else "any"])
        elif kind == "int":
            plain = st.integers(0, _SMALL[dest]).map(str)
        elif kind == "rational":
            plain = st.sampled_from(_RATIONALS[dest])
        else:
            plain = st.sampled_from(_POINTS)
        # an output flag writes only under the fixture's directory
        value = plain if dest == "out" or data.draw(st.integers(0, 7)) else st.sampled_from(_HOSTILE)
        values = data.draw(st.lists(value, min_size=1, max_size=3 if count == "+" else 1))
        pieces.append([data.draw(st.sampled_from(names)), *values])
    if data.draw(st.integers(0, 3)) == 0:
        for flag in data.draw(st.lists(st.sampled_from(_UNKNOWN), min_size=1, max_size=2)):
            pieces.append([flag, *data.draw(st.lists(st.sampled_from(("2", "x")), max_size=1))])
    argv = [command, *(token for piece in data.draw(st.permutations(pieces)) for token in piece)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
