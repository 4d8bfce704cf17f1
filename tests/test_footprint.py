"""Each subcommand runs only the modules whose code it calls.

``import microset`` registers every library module lazily: each is in
``sys.modules`` from the start, but its code runs on first attribute
access, when its class changes from the lazy subclass to ``ModuleType``.
Each case runs the real command line as ``python -m microset`` does (through
``runpy``) and reports, at exit, the ``microset.*`` modules whose code ran.
No subcommand imports ``dataclasses`` or ``inspect``: the records need
neither, and ``import dataclasses`` alone took 8-13 ms of each process on
a 2-vCPU Xeon with Python 3.11.  Nor does any subcommand or ``--help``
import ``argparse``, or the ``gettext`` and ``locale`` it pulls in: the
command line is read from one table, where ``argparse`` cost about 9 ms
of each process on the same machine.  The sampler does not import
``array`` either: its packed lanes are ints built from little-endian
bytes, so no draw depends on the host's byte order.
"""

import ast
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import microset
from fraction_oracles import cell_boxes
from microset import serialize
from microset.covers import CoverSeq
from microset.dust import DustSpec, adversary_swallow, generate
from microset.geometry import DigitalSet

BASE = {"cli", "rational"}
LOADS = BASE | {"geometry", "serialize"}

UNUSED_STDLIB = {"argparse", "array", "dataclasses", "gettext", "inspect", "locale"}

RUN_MAIN = f"""
import atexit, runpy, sys, types
atexit.register(lambda: print((sorted(
    name for name, module in sys.modules.items()
    if name.startswith("microset.") and type(module) is types.ModuleType
), sorted({UNUSED_STDLIB!r} & set(sys.modules))), file=sys.stderr))
runpy.run_module("microset", run_name="__main__", alter_sys=True)
"""


def loaded_modules(*argv) -> set[str]:
    proc = subprocess.run(
        [sys.executable, "-c", RUN_MAIN, *map(str, argv)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    names, unused = ast.literal_eval(proc.stderr.splitlines()[-1])
    assert unused == [], argv
    return {name.removeprefix("microset.") for name in names}


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("footprint")
    tree = generate(DustSpec(n=2, b=3, depth=2))
    paths = {
        "set": tmp / "set.json",
        "other": tmp / "other.json",
        "tree": tmp / "tree.json",
        "cover": tmp / "cover.json",
        "full": tmp / "full.json",
    }
    e = DigitalSet(2, 3, 1, ((0, 0), (2, 2)))
    serialize.save(e, paths["set"])
    serialize.save(DigitalSet(2, 3, 1, ((1, 1),)), paths["other"])
    serialize.save(tree, paths["tree"])
    serialize.save(adversary_swallow(tree.spec, Fraction(1, 10**6), 2), paths["cover"])
    serialize.save(CoverSeq(n=2, eps=Fraction(1, 2), strong=True, pieces=tuple(cell_boxes(e))), paths["full"])
    return {name: str(path) for name, path in paths.items()}


def test_help_loads_only_the_parser():
    assert loaded_modules("--help") == BASE


def test_hausdorff_loads_no_class_module_beyond_geometry(docs):
    argv = ["hausdorff", "--a", docs["set"], "--b", docs["other"], "--depth", "2"]
    assert loaded_modules(*argv) == LOADS


def test_baire_sample_adds_only_baire(tmp_path):
    argv = ["baire-sample", "--n", "2", "--b", "3", "--depth", "2", "--density", "1/2",
            "--seed", "1", "-o", tmp_path / "sample.json"]
    assert loaded_modules(*argv) == LOADS | {"baire"}


def test_dust_generate_loads_no_covers_baire_or_svg(tmp_path):
    argv = ["dust-generate", "--n", "2", "--b", "3", "--depth", "2", "-o", tmp_path / "tree.json"]
    assert loaded_modules(*argv) == LOADS | {"dust"}


def test_dust_refute_loads_no_baire_or_svg(docs, tmp_path):
    argv = ["dust-refute", "--tree", docs["tree"], "--cover", docs["cover"], "-o", tmp_path / "cert.json"]
    assert loaded_modules(*argv) == LOADS | {"dust", "covers"}


@pytest.mark.parametrize("seed, extra", [((), set()), (("--seed", "1"), {"baire"})])
def test_dust_adversary_loads_baire_only_to_draw(tmp_path, seed, extra):
    # with a seed, adversary_random draws from baire's SplitMix64; without one, the cover swallows
    argv = ["dust-adversary", "--n", "2", "--b", "3", "--depth", "2", "--count", "3", *seed,
            "-o", tmp_path / "cover.json"]
    assert loaded_modules(*argv) == LOADS | {"dust", "covers"} | extra


def test_cover_verify_loads_no_dust_baire_or_svg(docs):
    argv = ["cover-verify", "--set", docs["set"], "--cover", docs["full"]]
    assert loaded_modules(*argv) == LOADS | {"covers"}


def test_module_level_imports_follow_the_layering():
    # rational <- geometry <- {covers, dust, baire}; the rest import per call
    allowed = {
        "rational": set(),
        "geometry": {"rational"},
        "covers": {"geometry", "rational"},
        "dust": {"geometry", "rational"},
        "baire": {"geometry", "rational"},
        "serialize": {"rational"},
        "svg": set(),
        "cli": {"rational"},
        "__init__": set(),
        "__main__": {"cli"},
    }
    package = Path(microset.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {node.module for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1}
        assert imported == allowed[path.stem], path.name
        # anywhere in the module, not only at its top level
        stdlib = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
        stdlib |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 0}
        assert "dataclasses" not in stdlib, path.name
