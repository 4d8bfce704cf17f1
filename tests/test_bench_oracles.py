"""The benchmark's independent oracles, run against the library in tier-1.

``perfbench/inputs.py`` rebuilds dust levels, gap rows, survivor
disjointness and centre distances from first principles, without importing
``microset``.  It is read here as source and executed into a fresh module,
so no bytecode is written next to it, and the library is compared against
it on small random specs and sets.

``perfbench/layers.py`` credits traced time to functions by their
``<module>.<function>`` names; a name that no longer resolves leaves its
metric at 0 with no error.  Its tables are read here with ``ast`` and each
name is looked up in the package.
"""

import ast
import importlib
import inspect
import json
import types
from fractions import Fraction
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from microset import serialize
from microset.dust import DustSpec, SurvivorCertificate, gap_table, generate, survivor_refute
from microset.geometry import hausdorff_bracket

F = Fraction

_INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
_SOURCE = _INPUTS.read_text()
oracles = types.ModuleType("perfbench_inputs")
exec(compile(_SOURCE, str(_INPUTS), "exec"), oracles.__dict__)

_LAYERS = _INPUTS.with_name("layers.py")

# traced names that resolve to no function, each with why; their metrics read 0
UNTRACED = {
    "geometry.dist_sq": "removed from the package as a test-only export once the dust checks ran on integer cells",
    "geometry.covers_box": "covers_box is defined in covers, and no package code calls it: verify_cover asks "
                           "the integer core _covers once per cell",
}


def test_every_traced_layer_name_is_a_function_of_its_module():
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in ast.parse(_LAYERS.read_text()).body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("_SHARE", "_SECONDS")
    }
    assert tables.keys() == {"_SHARE", "_SECONDS"}
    unresolved = []
    for name in sorted({name for table in tables.values() for name in table.values()}):
        module, function = name.split(".")
        home = f"microset.{module}"
        value = getattr(importlib.import_module(home), function, None)
        if not (inspect.isfunction(value) and value.__module__ == home):
            unresolved.append(name)
    assert unresolved == sorted(UNTRACED)


# deepest level per dimension: at most 512 leaves
_MAX_DEPTH = {1: 5, 2: 4, 3: 3}


@st.composite
def _specs(draw) -> tuple[int, int, int]:
    n = draw(st.integers(min_value=1, max_value=3))
    b = draw(st.integers(min_value=3, max_value=5))
    return n, b, draw(st.integers(min_value=1, max_value=_MAX_DEPTH[n]))


def test_oracles_import_nothing_from_the_library():
    imported = set()
    for node in ast.walk(ast.parse(_SOURCE)):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert imported and "microset" not in imported


@given(_specs())
def test_tree_levels_match_the_integer_rebuild(spec):
    n, b, depth = spec
    doc = json.loads(serialize.canonical_bytes(serialize.to_json(generate(DustSpec(n=n, b=b, depth=depth)))))
    grid = b ** (depth * depth)
    for k, level in enumerate(oracles.dust_levels(n, b, depth), start=1):
        side = oracles.fmt(oracles.level_side(b, k))
        want = [
            {"word": list(word), "lo": [oracles.fmt(F(c, grid)) for c in corner], "side": side}
            for word, corner in level
        ]
        assert doc["levels"][k - 1] == want


@given(_specs())
def test_gap_table_matches_the_closed_forms(spec):
    n, b, depth = spec
    table = gap_table(DustSpec(n=n, b=b, depth=depth))
    rows = list(zip(table.volume, table.leftover, table.sibling_gap, table.level_gap))
    assert rows == oracles.gap_rows(n, b, depth)


@given(_specs(), st.integers(min_value=0, max_value=2**64 - 1), st.sampled_from(["swallow", "random"]))
def test_refuter_survivors_pass_the_disjointness_oracle(spec, seed, style):
    n, b, depth = spec
    rng = oracles.SplitMix64(seed)
    pieces = oracles.full_prefix(depth) + rng.below(4)
    doc = oracles.adversary_cover(rng, n, b, depth, pieces, style)
    cert = survivor_refute(DustSpec(n=n, b=b, depth=depth), serialize.from_json(doc))
    assert isinstance(cert, SurvivorCertificate)
    checked = min(pieces, oracles.full_prefix(depth))
    assert (cert.depth, cert.checked_prefix) == (depth, checked)
    assert oracles.survivor_disjoint(n, b, depth, cert.survivor_word, doc, checked) is None


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
)
def test_hausdorff_bracket_contains_the_centre_distance(m, seed, count_a, count_b):
    rng = oracles.SplitMix64(seed)
    top = 3**m
    a_cells = oracles.sample_cells(rng, 2, top, min(count_a, top * top))
    b_cells = oracles.sample_cells(rng, 2, top, min(count_b, top * top))
    a, b = (serialize.from_json(oracles.digitalset_doc(2, 3, m, cells)) for cells in (a_cells, b_cells))
    bracket = hausdorff_bracket(a, b, m)
    d2 = F(max(oracles.centre_dist_sq(a_cells, b_cells), oracles.centre_dist_sq(b_cells, a_cells)), top * top)
    assert bracket.lo * bracket.lo <= d2 <= bracket.hi * bracket.hi
