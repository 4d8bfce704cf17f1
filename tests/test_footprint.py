"""Each subcommand runs only the modules whose code it calls.

``import microset`` registers every library module lazily: each is in
``sys.modules`` from the start, but its code runs on first attribute
access, when its class changes from the lazy subclass to ``ModuleType``.
That is the package's only way to load a module late: a module binds the
package modules it uses at its top, with ``from . import x``, and reads
``x.name`` where it calls it.  ``PINS`` holds one case per invocation, and
README.md's table shows the same rows.  Each case runs the real command
line as ``python -m microset`` does (through ``runpy``) and reports, at
exit, the ``microset.*`` modules whose code ran.  ``RUN_MAIN`` is a plain
script, so it runs without pytest under any interpreter, with
``PYTHONPATH=src`` and the command line as its arguments.
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
from graphlib import TopologicalSorter
from pathlib import Path

import pytest

import microset
from fraction_oracles import cell_boxes
from microset import serialize
from microset.ball import BallSpec
from microset.cells import Box, CoverSeq, DigitalSet
from microset.dust import DustSpec, adversary_swallow, generate, survivor_refute

BASE = {"cli", "rational"}

UNUSED_STDLIB = {"argparse", "array", "dataclasses", "gettext", "inspect", "locale"}

RUN_MAIN = f"""
import atexit, runpy, sys, types
atexit.register(lambda: print((sorted(
    name for name, module in sys.modules.items()
    if name.startswith("microset.") and type(module) is types.ModuleType
), sorted({UNUSED_STDLIB!r} & set(sys.modules))), file=sys.stderr))
runpy.run_module("microset", run_name="__main__", alter_sys=True)
"""

# invocation, as README.md's table names it -> (argv, with {document} and {tmp}
# filled from the docs fixture; the modules beyond BASE whose code runs)
PINS = {
    "--help": ("--help", set()),
    "hausdorff": ("hausdorff --a {set} --b {other} --depth 2", {"cells", "geometry", "serialize"}),
    "baire-sample": ("baire-sample --n 2 --b 3 --depth 2 --density 1/2 --seed 1 -o {tmp}/sample.json",
                     {"cells", "serialize", "baire"}),
    "dust-generate": ("dust-generate --n 2 --b 3 --depth 2 -o {tmp}/generated.json", {"cells", "serialize", "dust"}),
    "dust-gaps": ("dust-gaps --n 2 --b 3 --depth 2", {"cells", "dust"}),
    "dust-gaps --tree": ("dust-gaps --n 2 --b 3 --depth 2 --tree {tree}", {"cells", "serialize", "dust"}),
    "dust-hmeasure": ("dust-hmeasure --n 1 --b 3 --alpha 1 --k 3", {"cells", "dust"}),
    "dust-refute": ("dust-refute --tree {tree} --cover {cover} -o {tmp}/refuted.json", {"cells", "serialize", "dust"}),
    "dust-refute --check": ("dust-refute --tree {tree} --cover {cover} --check {cert}", {"cells", "serialize", "dust"}),
    # with a seed, adversary_random draws from baire's SplitMix64; without one, the cover swallows
    "dust-adversary": ("dust-adversary --n 2 --b 3 --depth 2 --count 3 -o {tmp}/swallow.json",
                       {"cells", "serialize", "dust"}),
    "dust-adversary --seed": ("dust-adversary --n 2 --b 3 --depth 2 --count 3 --seed 1 -o {tmp}/random.json",
                              {"cells", "serialize", "dust", "baire"}),
    "cover-verify": ("cover-verify --set {set} --cover {full}", {"cells", "serialize", "covers"}),
    "cover-search": ("cover-search --set {set} --eps 1/2", {"cells", "serialize", "covers"}),
    "cover-merge": ("cover-merge --covers {cover} {cover} --eps 1/1000 -o {tmp}/merged.json",
                    {"cells", "serialize", "covers"}),
    "ball-check": ("ball-check --set {other} --ball {ball}", {"cells", "serialize", "ball"}),
    "ball-check --witness": ("ball-check --set {other} --ball {ball} --witness 1/2,1/2", {"cells", "serialize", "ball"}),
    "render-svg --tree": ("render-svg --tree {tree} -o {tmp}/tree.svg", {"cells", "serialize", "dust", "svg"}),
    "render-svg --cover": ("render-svg --cover {cover} -o {tmp}/cover.svg", {"cells", "serialize", "svg"}),
}

# invocations -> the algorithm modules none of them runs: a dust certificate needs no
# coverage core and no Hausdorff bracket, a cover check no bracket and no ball pass, a
# ball check no coverage core, and a sample no bracket
APART = {
    ("dust-generate", "dust-refute", "dust-refute --check", "dust-gaps", "dust-hmeasure", "dust-adversary"):
        {"covers", "geometry"},
    ("cover-verify", "cover-search"): {"geometry", "ball"},
    ("ball-check",): {"covers"},
    ("baire-sample",): {"geometry"},
}


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


def assert_pinned(invocation: str, docs: dict) -> None:
    argv, modules = PINS[invocation]
    assert loaded_modules(*(token.format(**docs) for token in argv.split())) == BASE | modules


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("footprint")
    tree = generate(DustSpec(n=2, b=3, depth=2))
    cover = adversary_swallow(tree.spec, Fraction(1, 10**6), 2)
    e = DigitalSet(2, 3, 1, ((0, 0), (2, 2)))
    documents = {
        "set": e,
        "other": DigitalSet(2, 3, 1, ((1, 1),)),
        "tree": tree,
        "cover": cover,
        "cert": survivor_refute(tree.spec, cover),
        "full": CoverSeq(n=2, eps=Fraction(1, 2), strong=True, pieces=tuple(cell_boxes(e))),
        "ball": BallSpec(n=2, boxes=(Box(((Fraction(1, 4), Fraction(3, 4)),) * 2),)),
    }
    for name, obj in documents.items():
        serialize.save(obj, tmp / f"{name}.json")
    return {"tmp": str(tmp), **{name: str(tmp / f"{name}.json") for name in documents}}


def test_help_loads_only_the_parser(docs):
    assert_pinned("--help", docs)


def test_hausdorff_loads_the_bracket_and_no_other_family(docs):
    assert_pinned("hausdorff", docs)


def test_baire_sample_adds_only_baire(docs):
    assert_pinned("baire-sample", docs)


def test_dust_generate_loads_no_covers_baire_or_svg(docs):
    assert_pinned("dust-generate", docs)


def test_dust_refute_loads_no_baire_or_svg(docs):
    assert_pinned("dust-refute", docs)


@pytest.mark.parametrize("invocation", ["dust-adversary", "dust-adversary --seed"], ids=["seed0-extra0", "seed1-extra1"])
def test_dust_adversary_loads_baire_only_to_draw(docs, invocation):
    assert_pinned(invocation, docs)


def test_cover_verify_loads_no_dust_baire_or_svg(docs):
    assert_pinned("cover-verify", docs)


@pytest.mark.parametrize("invocation", [
    "dust-gaps", "dust-gaps --tree", "dust-hmeasure", "dust-refute --check", "cover-search", "cover-merge",
    "ball-check", "ball-check --witness", "render-svg --tree", "render-svg --cover",
])
def test_every_other_invocation_loads_only_what_it_runs(docs, invocation):
    assert_pinned(invocation, docs)


@pytest.mark.parametrize("invocations, apart", APART.items(), ids=[group[0] for group in APART])
def test_each_family_runs_apart_from_the_others(invocations, apart):
    # the pins above are checked against real runs, so these hold of the processes too
    for invocation in invocations:
        assert not PINS[invocation][1] & apart, invocation


def _imports_the_package(node: ast.Import | ast.ImportFrom) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or node.module.partition(".")[0] == "microset"
    return any(alias.name.partition(".")[0] == "microset" for alias in node.names)


def test_module_level_imports_follow_the_layering():
    # eager `from .x import name` imports form rational <- cells <- {geometry, covers, ball, dust, baire};
    # every other use of a package module goes through a `from . import x` binding at the top,
    # which costs nothing until the lazily registered module is first read
    shared = {"cells", "rational"}
    eager = {
        "rational": set(),
        "cells": {"rational"},
        "geometry": shared,
        "covers": shared,
        "ball": shared,
        "dust": shared,
        "baire": shared,
        "serialize": {"rational"},
        "svg": set(),
        "cli": {"rational"},
        "__init__": set(),
        "__main__": {"cli"},
    }
    package = Path(microset.__file__).parent
    registered = next(
        set(ast.literal_eval(node.args[1]))
        for node in ast.walk(ast.parse((package / "__init__.py").read_text()))
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "map" and ast.unparse(node.args[0]) == "_lazy"
    )
    graph = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        relative = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
        imported = {node.module for node in relative if node.module is not None}
        assert imported == eager[path.stem], path.name
        bound = {alias.name for node in relative if node.module is None for alias in node.names}
        assert bound <= registered, path.name
        graph[path.stem] = imported | bound
        # no function body, class body or `if TYPE_CHECKING:` block imports a package module
        top = {id(node) for node in tree.body}
        nested = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top]
        assert not any(map(_imports_the_package, nested)), path.name
        # anywhere in the module, not only at its top level
        stdlib = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
        stdlib |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 0}
        assert "dataclasses" not in stdlib, path.name
    # eager imports and bindings together form no cycle
    tuple(TopologicalSorter(graph).static_order())
