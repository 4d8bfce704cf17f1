"""A digital set from draw to bytes: the ordered cell scan, refinement in order, the block writer and their memory.

The block writer's memory is gated for a dust tree too: saving it, loading
it and drawing it.

``old_dumps`` and ``old_cells`` are the writer and the cell normaliser as
they stood before either kept the caller's tuples: one ``json.dumps`` call
per document, and a set, a fresh tuple per cell and a sort for every input.
They stay here as oracles.
"""

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from microset import serialize, svg
from microset.baire import SampleSpec, sample_compact
from microset.cells import DigitalSet, _refined
from microset.dust import DustSpec, generate
from tracing import traced


def old_dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def old_cells(cells) -> tuple:
    return tuple(sorted({tuple(map(int, c)) for c in cells}))


_BLOCK, _ENTRIES = serialize._BLOCK, serialize._ENTRIES
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@given(data=st.data())
def test_block_writer_writes_what_one_dumps_call_writes(data):
    payload = {}
    for key in data.draw(st.lists(st.text(max_size=4), min_size=1, max_size=4, unique=True)):
        length = data.draw(st.sampled_from([None, 0, 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7]))
        if length is None:
            payload[key] = data.draw(_JSON)
            continue
        pool = data.draw(st.lists(_JSON | st.tuples(st.integers(), st.integers()), min_size=1, max_size=5))
        items = [pool[i % len(pool)] for i in range(length)]
        payload[key] = tuple(items) if data.draw(st.booleans()) else items
    assert serialize.canonical_bytes(payload).decode() == old_dumps(payload)


def test_block_writer_splits_only_long_top_level_lists(monkeypatch):
    calls = []
    encode = serialize._encode
    monkeypatch.setattr(serialize, "_encode", lambda value: calls.append(value) or encode(value))
    # a top-level list of _BLOCK items is one block, and a long list inside it is never split
    small = {"schema": "x", "rows": [[i] for i in range(_BLOCK)], "deep": [[0] * (5 * _BLOCK)]}
    assert serialize.canonical_bytes(small).decode() == old_dumps(small)
    assert [c for c in calls if isinstance(c, list)] == [small["deep"], small["rows"]]
    calls.clear()
    rows = tuple((i, -i) for i in range(3 * _BLOCK + 7))
    payload = {"n": 2, "rows": rows}
    assert serialize.canonical_bytes(payload).decode() == old_dumps(payload)
    assert [len(c) for c in calls if isinstance(c, list)] == [_BLOCK] * 3 + [7]
    # a tree's levels of 4, 16, 64 and 256 entries, each written _ENTRIES entries at a time
    calls.clear()
    tree = generate(DustSpec(n=2, b=3, depth=4))
    written = serialize.canonical_bytes(serialize.to_json(tree)).decode()
    assert written == old_dumps(json.loads(written))
    blocks = [len(c) for c in calls if isinstance(c, list) and isinstance(c[0], dict)]
    assert blocks == [min(_ENTRIES, 4**k - start) for k in range(1, 5) for start in range(0, 4**k, _ENTRIES)]


@st.composite
def cell_lists(draw):
    n, b, m = draw(st.integers(1, 3)), draw(st.integers(2, 4)), draw(st.integers(0, 3))
    cell = st.tuples(*[st.integers(0, b**m - 1)] * n)
    cells = draw(st.lists(cell, min_size=1, max_size=40))
    return n, b, m, cells


@given(cell_lists(), st.sampled_from(["sorted", "shuffled", "duplicated", "lists"]), st.randoms())
def test_cells_are_those_of_the_old_normaliser(drawn, order, rng):
    n, b, m, cells = drawn
    distinct = sorted(set(cells))
    given_cells = {
        "sorted": tuple(distinct),
        "shuffled": rng.sample(distinct, len(distinct)),
        "duplicated": rng.sample(cells + cells, 2 * len(cells)),
        "lists": [list(c) for c in cells],
    }[order]
    e = DigitalSet(n, b, m, given_cells)
    assert e.cells == old_cells(given_cells)
    if order == "sorted":
        # the ordered scan keeps the caller's sequence and its tuples
        assert e.cells is given_cells


def test_sample_then_save_peaks_under_twice_the_set(tmp_path):
    path = tmp_path / "sample.json"
    # every module, codec and encoder the measured calls reach is loaded first
    serialize.save(sample_compact(SampleSpec(seed=1, n=2, b=3, depth=1, density=Fraction(1, 2))), path)
    spec = SampleSpec(seed=5505636, n=2, b=3, depth=5, density=Fraction(1, 10))
    e, held, sampled = traced(lambda: sample_compact(spec))
    blob, _, saved = traced(lambda: serialize.save(e, path))
    assert len(e.cells) == 5985 and blob == old_dumps(json.loads(blob)).encode()
    # the draw's own peak, and the set held while it is saved
    assert max(sampled, held + saved) <= 2 * held, (sampled, saved, held)


def test_save_holds_a_long_document_about_once(tmp_path):
    # 53,145 cells of the depth-6 grid in the plane, a 515 KB file; the text
    # was once held as a str and as bytes together, about twice the file
    path = tmp_path / "set.json"
    e = DigitalSet(2, 3, 6, [(i, j) for i in range(729) for j in range(729) if (7 * i + 3 * j) % 10 == 0])
    serialize.save(DigitalSet(2, 3, 1, ((0, 0),)), path)
    blob, _, peak = traced(lambda: serialize.save(e, path))
    assert blob == path.read_bytes() == old_dumps(serialize.to_json(e)).encode()
    # the buffer's growth margin and one block's encoder tokens above one file
    assert len(blob) > 500_000 and peak < 1.5 * len(blob), (peak, len(blob))


@pytest.fixture(scope="module")
def depth_six(tmp_path_factory):
    """The n=2, depth-6 tree, 5,460 entries, saved where the gates below read it.

    A depth-1 tree is saved, loaded and drawn first, so every module, codec
    and encoder the measured calls reach is loaded before they run.
    """
    path = tmp_path_factory.mktemp("tree") / "tree.json"
    small = generate(DustSpec(n=2, b=3, depth=1))
    serialize.save(small, path)
    serialize.load(path)
    svg.write_svg(svg.render_dust(small), path.with_suffix(".svg"))
    tree = generate(DustSpec(n=2, b=3, depth=6))
    serialize.save(tree, path)
    return tree, path


def test_tree_save_holds_its_file_about_once(depth_six):
    # the whole document and the encoder's tokens for it once peaked at ten times the 0.61 MB file
    tree, path = depth_six
    blob, _, peak = traced(lambda: serialize.save(tree, path))
    assert blob == path.read_bytes() == old_dumps(json.loads(blob)).encode()
    assert len(blob) > 600_000 and peak < 1.5 * len(blob), (peak, len(blob))


def test_tree_load_holds_the_parsed_file_beside_the_tree_and_no_more(depth_six):
    # a second whole document, built to compare with the parsed one, once sat beside both
    tree, path = depth_six
    _, _, parsed = traced(lambda: json.loads(path.read_text()))
    _, _, built = traced(lambda: generate(tree.spec))
    loaded, _, peak = traced(lambda: serialize.load(path))
    assert loaded == tree
    assert peak < parsed + built, (peak, parsed, built)


def test_tree_drawing_is_written_as_it_is_drawn(depth_six):
    # the rectangles, their joined text and its ASCII copy were once held together
    tree, path = depth_six
    drawing = path.with_suffix(".svg")
    _, _, peak = traced(lambda: svg.write_svg(svg.render_dust(tree), drawing))
    size = drawing.stat().st_size
    assert size > 500_000 and peak < size / 8, (peak, size)


def product_refined(cells, n, f):
    """The refined cells as they were made before: cell by cell, in offset order."""
    offsets = list(itertools.product(range(f), repeat=n))
    return [tuple(j * f + o for j, o in zip(cell, off)) for cell in cells for off in offsets]


@given(cell_lists(), st.integers(0, 2))
def test_refined_cells_come_sorted(drawn, more):
    n, b, m, cells = drawn
    e = DigitalSet(n, b, m, cells)
    made = _refined(e.cells, b**more)
    assert made == sorted(set(product_refined(e.cells, n, b**more)))
    assert e.refine(m + more).cells == tuple(made)
