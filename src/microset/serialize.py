"""Canonical JSON for every certificate and object the CLI exchanges.

One canonical form: keys sorted, no whitespace, one trailing newline,
every rational rendered "num/den" with an explicit denominator.  Loading
then dumping any document reproduces it byte for byte, which is what lets
certificates be diffed and golden-filed.

Each document carries a versioned ``schema`` field.  Parsers validate
structure and re-run the type constructors, so a tampered file fails
loudly rather than deserializing into an inconsistent object; every such
failure, a field of the wrong JSON type included, is a ``ValueError``.
A dust tree is fully determined by its spec, so its loader rebuilds the
tree and rejects any document that differs from it.  A cover report's
flags must agree with its witnesses, and a gap table's level gaps must be
the running minimum of its sibling gaps.
"""

from __future__ import annotations

import json
from itertools import accumulate
from pathlib import Path

from .covers import BallSpec, CoverReport, CoverSeq
from .dust import (
    DustSpec,
    DustTree,
    GapTable,
    SurvivorCertificate,
    _construct,
    _has_size,
)
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
    cells = tuple(tuple(int(j) for j in cell) for cell in data["cells"])
    return DigitalSet(int(data["n"]), int(data["b"]), int(data["m"]), cells)


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
    return CoverSeq(
        n=int(data["n"]),
        eps=parse_scalar(data["eps"]),
        strong=bool(data["strong"]),
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
        first_violation=None if violation is None else (int(violation[0]), "budget"),
        uncovered_witness=None if witness is None else tuple(int(j) for j in witness),
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
        n=int(data["n"]),
        boxes=tuple(_box_from_json(box) for box in data["boxes"]),
    )


def dusttree_to_json(tree: DustTree) -> dict:
    spec = tree.spec
    levels = []
    for k in range(1, spec.depth + 1):
        side = spec.level_side(k)
        text = format_scalar(side)
        level = [
            {"word": list(word), "lo": [format_scalar(j * side) for j in cell], "side": text}
            for word, cell in tree.level_cells(k)
        ]
        levels.append(level)
    return {
        "schema": "dusttree/1",
        "n": spec.n,
        "b": spec.b,
        "depth": spec.depth,
        "corner_order": list(spec.corner_order or range(2**spec.n)),
        "levels": levels,
    }


def dusttree_from_json(data: dict) -> DustTree:
    _expect(data, "dusttree/1", {"n", "b", "depth", "corner_order", "levels"})
    n, depth, levels = int(data["n"]), int(data["depth"]), data["levels"]
    # cheap shape check on the raw numbers first, so a forged n or depth
    # cannot force a huge build or a list of 2**n corners
    if not isinstance(levels, list) or len(levels) != depth or any(
        not isinstance(level, list) or not _has_size(len(level), n * k)
        for k, level in enumerate(levels, start=1)
    ):
        raise ValueError("dusttree/1 levels do not have the spec's cube counts")
    spec = DustSpec(
        n=n,
        b=int(data["b"]),
        depth=depth,
        corner_order=tuple(int(t) for t in data["corner_order"]),
    )
    tree = _construct(spec)
    if dusttree_to_json(tree) != data:
        raise ValueError("dusttree/1 document differs from the tree its spec defines")
    return tree


def gaptable_to_json(table: GapTable) -> dict:
    return {
        "schema": "gaptable/1",
        "depth": table.depth,
        "volume": [format_scalar(v) for v in table.volume],
        "leftover": [format_scalar(v) for v in table.leftover],
        "sibling_gap": [format_scalar(v) for v in table.sibling_gap],
        "level_gap": [format_scalar(v) for v in table.level_gap],
    }


def gaptable_from_json(data: dict) -> GapTable:
    _expect(
        data, "gaptable/1", {"depth", "volume", "leftover", "sibling_gap", "level_gap"}
    )
    table = GapTable(
        depth=int(data["depth"]),
        volume=tuple(parse_scalar(v) for v in data["volume"]),
        leftover=tuple(parse_scalar(v) for v in data["leftover"]),
        sibling_gap=tuple(parse_scalar(v) for v in data["sibling_gap"]),
        level_gap=tuple(parse_scalar(v) for v in data["level_gap"]),
    )
    columns = (table.volume, table.leftover, table.sibling_gap, table.level_gap)
    if any(len(column) != table.depth for column in columns):
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
        depth=int(data["depth"]),
        checked_prefix=int(data["checked_prefix"]),
        survivor_word=tuple(int(t) for t in data["survivor_word"]),
        level_counts=tuple(int(c) for c in data["level_counts"]),
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
        sample_depth=int(data["sample_depth"]),
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


def _expect(data: dict, schema: str, fields: set[str]) -> None:
    if data.get("schema") != schema:
        raise ValueError(f"expected schema {schema}, got {data.get('schema')!r}")
    missing = fields - set(data)
    if missing:
        raise ValueError(f"{schema} document missing fields {sorted(missing)}")
