"""Canonical JSON for every document the CLI exchanges, described by one schema table.

One canonical form (sorted keys, no whitespace, one trailing newline,
rationals "num/den") makes loading then saving a document reproduce it
byte for byte, so certificates can be diffed and golden-filed.

``_SCHEMAS`` names each schema's class, by import path, and each field
with its codec; ``to_json``, ``from_json`` and the field-set check read
that table alone.  No codec coerces one JSON type into another: an
integer must be a JSON integer, a flag a boolean, a list a list, and a
rational the "num/den" string ``format_scalar`` writes, in lowest terms.
A record refuses what no loader would accept: each class checks its own
invariants in ``__init__``, and a table field the class does not store is
a claim the loader compares with the built object, as a cover report's
flags are.  ``dusttree/1`` alone has its own pair: its loader rebuilds the
tree from its spec with ``generate`` and refuses any other document.
Every failure is a ``ValueError`` and none a ``Negative``: the verdict
``generate`` gives on an inadmissible spec makes a tree file malformed.
A set's cells must come in the strictly increasing order it stores, so
every document that loads saves back to its own canonical bytes.  A
class module runs only when a document of its schema is decoded.

``_parts`` writes a document with one ``json.dumps`` call unless a
top-level list holds more than ``_BLOCK`` items, as a large set's cells or
a long cover's pieces do; such a list is encoded one block of items at a
time, with the same bytes.  The C encoder of Python 3.10 and 3.11 keeps
every token of a call as its own string until the call ends: encoding the
54 KB cells array of a 5,985-cell set peaks at 961 KB there, against 64 KB
on 3.12 and 3.13, so blocks bound that to one block's tokens.  A set's
rows are written from its own cell tuples, with no list per row.
``canonical_bytes``, which ``save`` writes, encodes each block to ASCII as
it is made, into one growing buffer, so the text is never held as a
``str`` and as bytes at once.

A document repeats few rational spellings: a cover's bounds share a grid.
``_spelled`` checks and decodes each distinct spelling once per document,
through a bounded memo that only strings reach and that ``from_json``
empties when it is done.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import lru_cache
from importlib import import_module
from itertools import chain
from math import gcd
from pathlib import Path
from typing import Iterator

from . import cells, dust
from .rational import Negative, format_scalar


_BLOCK = 1024  # items of a long top-level list that one encoder call writes
_SPELLINGS = 4096  # distinct rational spellings whose values the decoder keeps


def _encode(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _is_long(value) -> bool:
    return isinstance(value, (list, tuple)) and len(value) > _BLOCK


def _parts(payload: dict) -> Iterator[str]:
    """The canonical text of a document whose keys are strings, as consecutive parts.

    A top-level list of more than ``_BLOCK`` items is encoded one block of
    items at a time, and the parts join to the text of one ``json.dumps``
    call.
    """
    if not any(map(_is_long, payload.values())):
        yield _encode(payload) + "\n"
        return
    opening = "{"
    for key, value in sorted(payload.items()):
        yield f"{opening}{_encode(key)}:"
        opening = ","
        if _is_long(value):
            for start in range(0, len(value), _BLOCK):
                yield ("," if start else "[") + _encode(value[start : start + _BLOCK])[1:-1]
            yield "]"
        else:
            yield _encode(value)
    yield "}\n"


def canonical_bytes(payload: dict) -> bytearray:
    """The canonical text as ASCII bytes, each part encoded as it is made
    into one growing buffer, so that a long document is held once."""
    blob = bytearray()
    for part in _parts(payload):
        blob += part.encode("ascii")
    return blob


def _int(value) -> int:
    """A JSON integer as written: a float, string or boolean is refused, never coerced."""
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _bool(value) -> bool:
    if type(value) is not bool:
        raise ValueError(f"expected true or false, got {value!r}")
    return value


# what format_scalar writes: no sign on zero, no leading zeros, a positive denominator
_NUM_DEN = re.compile(r"(0|-?[1-9][0-9]*)/([1-9][0-9]*)")


def _rational(value) -> Fraction:
    """A rational as ``format_scalar`` writes it, "num/den" in lowest terms; any other spelling is refused.

    A value that is not a ``str`` is refused before the memo, which would hash it.
    """
    rational = _spelled(value) if type(value) is str else None
    if rational is None:
        raise ValueError(f"expected a rational written as num/den in lowest terms, got {value!r}")
    return rational


@lru_cache(maxsize=_SPELLINGS)
def _spelled(value: str) -> Fraction | None:
    """The rational a canonical "num/den" spelling names, or None for any other spelling.

    The spelling is checked before any arithmetic, so an exponent such as
    "1e-1000000000" is never expanded.  A document repeats few spellings,
    so each distinct one is decoded once while it stays in the memo.
    """
    match = _NUM_DEN.fullmatch(value)
    if match is None or gcd(int(match[1]), int(match[2])) != 1:
        return None
    return Fraction(int(match[1]), int(match[2]))


# A codec is a (dump, load) pair: dump writes a stored value as JSON, and
# load reads it back, refusing any other JSON type with ValueError.
def _list(codec):
    """Codec of a JSON list whose items use ``codec``, held as a tuple."""
    dump, load = codec

    def load_list(data) -> tuple:
        # a tuple is what to_json writes for a list it takes from a record as is
        if type(data) is not list and type(data) is not tuple:
            raise ValueError(f"expected a list, got {type(data).__name__}")
        return tuple(map(load, data))

    return (lambda values: [dump(v) for v in values]), load_list


def _optional(codec):
    """Codec of a value that may be JSON null, held as None."""
    dump, load = codec
    return (lambda v: None if v is None else dump(v)), (lambda data: None if data is None else load(data))


def _load_box(data) -> cells.Box:
    return cells.Box(_load_intervals(data))


def _load_violation(data) -> tuple:
    if type(data) is not list or len(data) != 2:
        raise ValueError("expected a violation [position, kind]")
    return _int(data[0]), data[1]


_INT, _BOOL, _RATIONAL = (int, _int), (bool, _bool), (format_scalar, _rational)
_INTS, _RATIONALS = _list(_INT), _list(_RATIONAL)
def _load_cells(data) -> tuple:
    """Cells as a file lists them, in the strictly increasing order a set stores and writes."""
    cells = _list(_INTS)[1](data)
    if not all(map(tuple.__lt__, cells, cells[1:])):
        raise ValueError("digitalset/1 cells must be listed in strictly increasing order")
    return cells


# a digital set's cells are int tuples by construction, so its rows are written as stored
_CELLS = (lambda cells: cells), _load_cells
_dump_intervals, _load_intervals = _list(_RATIONALS)
_BOXES = _list(((lambda box: _dump_intervals(box.intervals)), _load_box))

# schema -> (class import path, {field: codec}); a field the class does not
# store is a claim checked against the built object
_SCHEMAS = {
    "digitalset/1": ("microset.cells.DigitalSet", {
        "n": _INT, "b": _INT, "m": _INT, "cells": _CELLS,
    }),
    "coverseq/1": ("microset.cells.CoverSeq", {
        "n": _INT, "eps": _RATIONAL, "strong": _BOOL, "pieces": _BOXES,
    }),
    "coverreport/1": ("microset.covers.CoverReport", {
        "budget_ok": _BOOL,
        "coverage_ok": _BOOL,
        "first_violation": _optional((list, _load_violation)),
        "uncovered_witness": _optional(_INTS),
    }),
    "ballspec/1": ("microset.ball.BallSpec", {"n": _INT, "boxes": _BOXES}),
    # read and written by its own pair, dusttree_from_json and dusttree_to_json
    "dusttree/1": ("microset.dust.DustTree", dict.fromkeys(("n", "b", "depth", "corner_order", "levels"))),
    "gaptable/1": ("microset.dust.GapTable", {
        "depth": _INT, **dict.fromkeys(("volume", "leftover", "sibling_gap", "level_gap"), _RATIONALS),
    }),
    "survivor/1": ("microset.dust.SurvivorCertificate", {
        "depth": _INT, "checked_prefix": _INT, "survivor_word": _INTS, "level_counts": _INTS,
    }),
    "hbracket/1": ("microset.geometry.HBracket", {
        "lo": _RATIONAL, "hi": _RATIONAL, "sample_depth": _INT, "width_cap": _RATIONAL,
    }),
}

_SCHEMA_OF = {path: schema for schema, (path, _) in _SCHEMAS.items()}


def dusttree_to_json(tree: dust.DustTree) -> dict:
    spec = tree.spec
    levels = []
    for k, level in enumerate(tree.levels, start=1):
        # side and each lo are format_scalar(j / scale), written from the integers
        scale = spec.scale(k)
        levels.append([
            {"word": list(word), "lo": [f"{j // (g := gcd(j, scale))}/{scale // g}" for j in cell],
             "side": f"1/{scale}"}
            for word, cell in level
        ])
    return {
        "schema": "dusttree/1",
        "n": spec.n,
        "b": spec.b,
        "depth": spec.depth,
        "corner_order": list(range(2**spec.n)),
        "levels": levels,
    }


def _has_size(count: int, exponent: int) -> bool:
    """count == 2**exponent, without building 2**exponent for a forged exponent."""
    return exponent >= 0 and count.bit_length() == exponent + 1 and count == 1 << exponent


def dusttree_from_json(data: dict) -> dust.DustTree:
    """The tree a ``dusttree/1`` document holds; ``from_json`` has checked its field set."""
    n, depth, levels = _int(data["n"]), _int(data["depth"]), data["levels"]
    # a forged n or depth fails this shape check before anything is built
    if not isinstance(levels, list) or len(levels) != depth or any(
        not isinstance(level, list) or not _has_size(len(level), n * k)
        for k, level in enumerate(levels, start=1)
    ):
        raise ValueError("dusttree/1 levels do not have the spec's cube counts")
    try:
        tree = dust.generate(dust.DustSpec(n=n, b=_int(data["b"]), depth=depth))
    except Negative as exc:  # no dust-generate writes a tree on an inadmissible spec
        raise ValueError(f"dusttree/1 spec is {exc}") from None
    # == holds between 1, 1.0 and True, so the letters' type is checked apart
    letters = chain(data["corner_order"], *(entry["word"] for level in levels for entry in level))
    if dusttree_to_json(tree) != data or any(type(t) is not int for t in letters):
        raise ValueError("dusttree/1 document differs from the tree its spec defines")
    return tree


def to_json(obj) -> dict:
    schema = _SCHEMA_OF.get(f"{type(obj).__module__}.{type(obj).__qualname__}")
    if schema is None:
        raise ValueError(f"no serializer for {type(obj).__name__}")
    if schema == "dusttree/1":
        return dusttree_to_json(obj)
    fields = _SCHEMAS[schema][1]
    return {"schema": schema, **{name: dump(getattr(obj, name)) for name, (dump, _) in fields.items()}}


def from_json(data: dict):
    if not isinstance(data, dict):
        raise ValueError("document must be a JSON object")
    schema = data.get("schema")
    if not isinstance(schema, str) or schema not in _SCHEMAS:
        raise ValueError(f"unknown schema {schema!r}")
    _expect(data, schema)
    path, fields = _SCHEMAS[schema]
    try:
        if schema == "dusttree/1":
            return dusttree_from_json(data)
        # the class is imported first, so compiling its module and the decoded fields never peak together
        module, _, class_name = path.rpartition(".")
        cls = getattr(import_module(module), class_name)
        values = {name: load(data[name]) for name, (_, load) in fields.items()}
        del data  # freed here unless a caller holds it, so nothing built from here on sits beside it
        obj = cls(**{field: values.pop(field) for field in cls._fields})
    except (TypeError, KeyError, IndexError) as exc:
        raise ValueError(f"malformed {schema} document: {exc!r}") from exc
    finally:
        _spelled.cache_clear()  # the memo serves one document, and holds nothing after it
    for name, claim in values.items():
        if claim != getattr(obj, name):
            raise ValueError(f"{schema} {name} disagrees with the document's other fields")
    return obj


def save(obj, path: str | Path) -> bytearray:
    """Write the canonical bytes of ``obj`` to ``path`` and return them."""
    blob = canonical_bytes(to_json(obj))
    Path(path).write_bytes(blob)
    return blob


def load(path: str | Path, schema: str | None = None):
    """The object a document file holds; given ``schema``, any other schema is refused before decoding.

    The parsed document is handed to ``from_json`` with no other reference,
    so it is freed once its fields are decoded.
    """
    return from_json(_parsed(path, schema))


def _parsed(path: str | Path, schema: str | None) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, RecursionError) as exc:  # the decoder recurses once per nested list
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if schema is not None and (not isinstance(data, dict) or data.get("schema") != schema):
        raise ValueError(f"{path}: expected a {schema} document")
    return data


def _expect(data: dict, schema: str) -> None:
    fields = _SCHEMAS[schema][1].keys()
    missing = fields - set(data)
    if missing:
        raise ValueError(f"{schema} document missing fields {sorted(missing)}")
    unknown = set(data) - fields - {"schema"}
    if unknown:
        raise ValueError(f"{schema} document has unknown fields {sorted(unknown)}")
