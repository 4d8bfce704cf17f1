"""The README's examples run as written and state what they print."""

import re
import shlex
from fractions import Fraction
from pathlib import Path

from microset import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading: str, lang: str, index: int = 0) -> str:
    """The fenced block of the given language under the heading, the first by default."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{lang}\n(.*?)```", section, re.S)[index]


def test_thirty_second_tour_runs_and_finds_its_survivor():
    namespace: dict = {}
    exec(_block("Thirty-second tour", "python"), namespace)
    assert namespace["eps"] == Fraction(1, 81)
    assert namespace["cert"].survivor_word == (1, 2, 2, 1)


def test_command_line_hmeasure_prints_its_stated_bound(capsys):
    line = next(
        line for line in _block("Command line", "text").splitlines() if line.startswith("microset dust-hmeasure")
    )
    command, stated = line.split("# prints ")
    assert cli.main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out.strip() == stated.strip() == "8/19683"


def test_experiments_block_runs_as_written(tmp_path, monkeypatch, capsys):
    # every line is a microset command; CI runs the same block from an installed package
    lines = _block("Experiments", "sh").splitlines()
    assert all(line.startswith("microset ") for line in lines)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        command, _, stated = line.partition("# prints ")
        assert cli.main(shlex.split(command)[1:]) == 0, line
        out = capsys.readouterr().out
        if stated:
            assert out.strip() == stated.strip(), line
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "dust.svg", "dust_cover.svg", "random.json", "random_cert.json",
        "swallow.json", "swallow_cert.json", "tree.json",
    ]


def test_sampling_block_runs_as_written(tmp_path, monkeypatch, capsys):
    # each line states what it prints and, unless it is 0, its exit code; CI checks the codes the same way
    lines = _block("Experiments", "sh", 1).splitlines()
    assert all(line.startswith("microset ") for line in lines)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        command, note = line.split("# ")
        exits, printed = re.fullmatch(r"(?:exits (\d+), )?prints (.+)", note.strip()).groups()
        assert cli.main(shlex.split(command)[1:]) == int(exits or 0), line
        out, err = capsys.readouterr()
        assert (out + err).strip() == printed, line
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "dense.json", "sparse.json", "sparse_2.json", "sparse_3.json",
    ]
