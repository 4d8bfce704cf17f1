"""The README's examples run as written and state what they print."""

import re
import shlex
from fractions import Fraction
from pathlib import Path

from microset import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    """The first fenced block of the given language under the heading."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


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
