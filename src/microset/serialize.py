"""Canonical JSON for every certificate and object the CLI exchanges.

One canonical form: keys sorted, no whitespace, one trailing newline,
every rational rendered "num/den" with an explicit denominator.  Loading
then dumping any document reproduces it byte for byte, which is what lets
certificates be diffed and golden-filed.

Each document carries a versioned ``schema`` field.  Parsers validate
structure and re-run the type constructors, so a tampered file fails
loudly rather than deserializing into an inconsistent object; every such
failure is a ``ValueError``.  No JSON type is coerced into another: an
integer field must hold a JSON integer, a flag a boolean, a rational a string.
A dust tree is fully determined by its spec, so its loader rebuilds the
tree with ``generate``, whose admissibility and structural checks reject
a spec no ``dust-generate`` accepts, and then rejects any document that
differs from the rebuilt tree; its ``corner_order`` is the identity list,
written for byte compatibility and never read.  A cover report's flags
must agree with its witnesses, and a gap table's level gaps must be the
running minimum of its sibling gaps.
"""

from __future__ import annotations

import json
from itertools import accumulate, chain
from math import gcd
from pathlib import Path

from .covers import BallSpec, CoverReport, CoverSeq
from .dust import DustSpec, DustTree, GapTable, SurvivorCertificate, generate
from .geometry import Box, DigitalSet, HBracket
from .rational import format_scalar, parse_scalar


def dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def canonical_bytes(payload: dict) -> bytes:
    return dumps(payload).encode("ascii")


def _box_to_json(box: Box) -> list[list[str]]:
    return [[format_scalar(lo), format_scalar(hi)] for lo, hi in box.intervals]


def _box_from_json(data) -> Box:
    return Box(tuple((parse_scalar(lo), parse_scalar(hi)) for lo, hi in data))


def digitalset_to_json(e: DigitalSet) -> dict:
    return {
        "schema": "digitalset/1",
        "n": e.n,
        "b": e.b,
        "m": e.m,
        "cells": [list(cell) for cell in e.cells],
    }


def digitalset_from_json(data: dict) -> DigitalSet:
    _expect(data, "digitalset/1", {"n", "b", "m", "cells"})
    cells = tuple(tuple(_int(j) for j in cell) for cell in data["cells"])
    return DigitalSet(_int(data["n"]), _int(data["b"]), _int(data["m"]), cells)


def coverseq_to_json(cover: CoverSeq) -> dict:
    return {
        "schema": "coverseq/1",
        "n": cover.n,
        "eps": format_scalar(cover.eps),
        "strong": cover.strong,
        "pieces": [_box_to_json(piece) for piece in cover.pieces],
    }


def coverseq_from_json(data: dict) -> CoverSeq:
    _expect(data, "coverseq/1", {"n", "eps", "strong", "pieces"})
    pieces = tuple(_box_from_json(piece) for piece in data["pieces"])
    if type(data["strong"]) is not bool:
        raise ValueError("coverseq/1 strong must be true or false")
    return CoverSeq(
        n=_int(data["n"]),
        eps=parse_scalar(data["eps"]),
        strong=data["strong"],
        pieces=pieces,
    )


def coverreport_to_json(report: CoverReport) -> dict:
    violation = None
    if report.first_violation is not None:
        violation = [report.first_violation[0], report.first_violation[1]]
    witness = None
    if report.uncovered_witness is not None:
        witness = list(report.uncovered_witness)
    return {
        "schema": "coverreport/1",
        "budget_ok": report.budget_ok,
        "coverage_ok": report.coverage_ok,
        "first_violation": violation,
        "uncovered_witness": witness,
    }


def coverreport_from_json(data: dict) -> CoverReport:
    _expect(
        data,
        "coverreport/1",
        {"budget_ok", "coverage_ok", "first_violation", "uncovered_witness"},
    )
    violation = data["first_violation"]
    witness = data["uncovered_witness"]
    if violation is not None and (len(violation) != 2 or violation[1] != "budget"):
        raise ValueError('coverreport/1 violation must be [position, "budget"]')
    report = CoverReport(
        first_violation=None if violation is None else (_int(violation[0]), "budget"),
        uncovered_witness=None if witness is None else tuple(_int(j) for j in witness),
    )
    for flag in ("budget_ok", "coverage_ok"):
        if data[flag] is not getattr(report, flag):
            raise ValueError(f"coverreport/1 {flag} disagrees with its witness")
    return report


def ballspec_to_json(ball: BallSpec) -> dict:
    return {
        "schema": "ballspec/1",
        "n": ball.n,
        "boxes": [_box_to_json(box) for box in ball.boxes],
    }


def ballspec_from_json(data: dict) -> BallSpec:
    _expect(data, "ballspec/1", {"n", "boxes"})
    return BallSpec(
        n=_int(data["n"]),
        boxes=tuple(_box_from_json(box) for box in data["boxes"]),
    )


def dusttree_to_json(tree: DustTree) -> dict:
    spec = tree.spec
    levels = []
    for k in range(1, spec.depth + 1):
        # side and each lo are format_scalar(j / scale), written from the integers
        scale = spec.scale(k)
        levels.append([
            {"word": list(word), "lo": [f"{j // (g := gcd(j, scale))}/{scale // g}" for j in cell],
             "side": f"1/{scale}"}
            for word, cell in tree.level_cells(k)
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


def dusttree_from_json(data: dict) -> DustTree:
    _expect(data, "dusttree/1", {"n", "b", "depth", "corner_order", "levels"})
    n, depth, levels = _int(data["n"]), _int(data["depth"]), data["levels"]
    # a forged n or depth fails this shape check before anything is built
    if not isinstance(levels, list) or len(levels) != depth or any(
        not isinstance(level, list) or not _has_size(len(level), n * k)
        for k, level in enumerate(levels, start=1)
    ):
        raise ValueError("dusttree/1 levels do not have the spec's cube counts")
    tree = generate(DustSpec(n=n, b=_int(data["b"]), depth=depth))
    # == holds between 1, 1.0 and True, so the letters' type is checked apart
    letters = chain(data["corner_order"], *(entry["word"] for level in levels for entry in level))
    if dusttree_to_json(tree) != data or any(type(t) is not int for t in letters):
        raise ValueError("dusttree/1 document differs from the tree its spec defines")
    return tree


_GAP_COLUMNS = ("volume", "leftover", "sibling_gap", "level_gap")


def gaptable_to_json(table: GapTable) -> dict:
    columns = {name: [format_scalar(v) for v in getattr(table, name)] for name in _GAP_COLUMNS}
    return {"schema": "gaptable/1", "depth": table.depth, **columns}


def gaptable_from_json(data: dict) -> GapTable:
    _expect(data, "gaptable/1", {"depth", *_GAP_COLUMNS})
    columns = {name: tuple(parse_scalar(v) for v in data[name]) for name in _GAP_COLUMNS}
    table = GapTable(depth=_int(data["depth"]), **columns)
    if any(len(column) != table.depth for column in columns.values()):
        raise ValueError("gaptable/1 columns must hold depth entries each")
    if table.level_gap != tuple(accumulate(table.sibling_gap, min)):
        raise ValueError("gaptable/1 level_gap is not the running minimum of sibling_gap")
    return table


def survivor_to_json(cert: SurvivorCertificate) -> dict:
    return {
        "schema": "survivor/1",
        "depth": cert.depth,
        "checked_prefix": cert.checked_prefix,
        "survivor_word": list(cert.survivor_word),
        "level_counts": list(cert.level_counts),
    }


def survivor_from_json(data: dict) -> SurvivorCertificate:
    _expect(
        data, "survivor/1", {"depth", "checked_prefix", "survivor_word", "level_counts"}
    )
    return SurvivorCertificate(
        depth=_int(data["depth"]),
        checked_prefix=_int(data["checked_prefix"]),
        survivor_word=tuple(_int(t) for t in data["survivor_word"]),
        level_counts=tuple(_int(c) for c in data["level_counts"]),
    )


def hbracket_to_json(bracket: HBracket) -> dict:
    return {
        "schema": "hbracket/1",
        "lo": format_scalar(bracket.lo),
        "hi": format_scalar(bracket.hi),
        "sample_depth": bracket.sample_depth,
        "width_cap": format_scalar(bracket.width_cap),
    }


def hbracket_from_json(data: dict) -> HBracket:
    _expect(data, "hbracket/1", {"lo", "hi", "sample_depth", "width_cap"})
    return HBracket(
        lo=parse_scalar(data["lo"]),
        hi=parse_scalar(data["hi"]),
        sample_depth=_int(data["sample_depth"]),
        width_cap=parse_scalar(data["width_cap"]),
    )


_TO_JSON = {
    DigitalSet: digitalset_to_json,
    CoverSeq: coverseq_to_json,
    CoverReport: coverreport_to_json,
    BallSpec: ballspec_to_json,
    DustTree: dusttree_to_json,
    GapTable: gaptable_to_json,
    SurvivorCertificate: survivor_to_json,
    HBracket: hbracket_to_json,
}

_FROM_JSON = {
    "digitalset/1": digitalset_from_json,
    "coverseq/1": coverseq_from_json,
    "coverreport/1": coverreport_from_json,
    "ballspec/1": ballspec_from_json,
    "dusttree/1": dusttree_from_json,
    "gaptable/1": gaptable_from_json,
    "survivor/1": survivor_from_json,
    "hbracket/1": hbracket_from_json,
}


def to_json(obj) -> dict:
    encoder = _TO_JSON.get(type(obj))
    if encoder is None:
        raise ValueError(f"no serializer for {type(obj).__name__}")
    return encoder(obj)


def from_json(data: dict):
    if not isinstance(data, dict):
        raise ValueError("document must be a JSON object")
    schema = data.get("schema")
    decoder = _FROM_JSON.get(schema) if isinstance(schema, str) else None
    if decoder is None:
        raise ValueError(f"unknown schema {schema!r}")
    try:
        return decoder(data)
    except (TypeError, KeyError, IndexError) as exc:
        raise ValueError(f"malformed {schema} document: {exc!r}") from exc


def save(obj, path: str | Path) -> bytes:
    blob = canonical_bytes(to_json(obj))
    Path(path).write_bytes(blob)
    return blob


def load(path: str | Path):
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    return from_json(data)


def _int(value) -> int:
    """A JSON integer as written: a float, string or boolean is refused, never coerced."""
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _expect(data: dict, schema: str, fields: set[str]) -> None:
    if data.get("schema") != schema:
        raise ValueError(f"expected schema {schema}, got {data.get('schema')!r}")
    missing = fields - set(data)
    if missing:
        raise ValueError(f"{schema} document missing fields {sorted(missing)}")
