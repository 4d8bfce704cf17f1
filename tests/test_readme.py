"""The README's examples run as written and state what they print."""

import hashlib
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
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()}
    assert written == _EXPERIMENT_DIGESTS


# every file of the dust pipeline is a pure function of its flags; the covers are
# drawn at the critical budget 1/3**8
_EXPERIMENT_DIGESTS = {
    "dust.svg": "7432c39f432886fb2ad835a4b1b4e4f8a5541b8036c39bf7e6653e27e77c66b6",
    "dust_cover.svg": "34b77ac5d5842386ca0553ecc0ffdaceede3f2d42e108f25efa0239755a43a5f",
    "random.json": "5cb20fbf313b59b5aa0a22ebec7716a9b777aaf4b0b7f0e3aa5e0639b8198112",
    "random_cert.json": "aafef75147e981af4cb5a79bc0a774e4e023c7398e0122670da6408df93da1ae",
    "swallow.json": "9e19fdc4093f2629d6b9df17a7bce31287dd39ae4e0b4ab871f69603f5f13640",
    "swallow_cert.json": "9a23c53b9e865e96c0a62561266d8042004905bb12e2992d3a8cf94f14c4b1b1",
    "tree.json": "51a8908ee470de9f5b28b70d3d338163abed31b35991f836e824042062267482",
}


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
