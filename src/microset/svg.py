"""Static SVG rendering of planar constructions.

Every rectangle is drawn from int bounds on one integer frame: a level-k
dust cell j spans (j, j + 1) on the level's b**(k*k) grid, and a cover's
pieces span their bounds on the frame ``cells._frame`` gives them.  Each
value is floored exactly, so any frame draws the same bytes.  Output is
deterministic: coordinates are formatted by integer arithmetic (sign,
then the magnitude of the floor to a fixed number of decimal places),
elements are emitted in a sorted order, and nothing environment-dependent
(timestamps, ids, float repr) enters the file.  Re-rendering the same
object yields identical bytes.  The renderers give the document's lines
as they are drawn and ``write_svg`` writes each as it comes, so no
drawing is held whole.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator

from . import cells, dust

CANVAS = 1000
PLACES = 6

_LEVEL_FILLS = ("#1f6f8b", "#99a8b2", "#e0c45c", "#c96567", "#8a6fdf", "#5b8c5a")


def _dec(v: int, frame: int) -> str:
    """Floor of CANVAS * v / frame with PLACES decimal places, via integers: its sign, then its magnitude."""
    units = v * CANVAS * 10**PLACES // frame
    whole, frac = divmod(abs(units), 10**PLACES)
    return "-" * (units < 0) + f"{whole}.{frac:0{PLACES}d}".rstrip("0").rstrip(".")


def _rect(bounds: tuple, frame: int, fill: str, opacity: str) -> str:
    """The box of per-axis (lo, hi) int bounds on the frame, y axis pointing up."""
    (x0, x1), (y0, y1) = bounds
    x = _dec(x0, frame)
    y = _dec(frame - y1, frame)
    w = _dec(x1 - x0, frame)
    h = _dec(y1 - y0, frame)
    return (
        f'<rect x="{x}" y="{y}" width="{w}" height="{h}" '
        f'fill="{fill}" fill-opacity="{opacity}" stroke="none"/>'
    )


def _document(body: Iterable[str]) -> Iterator[str]:
    """The document's lines, each drawn as it is read."""
    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {CANVAS} {CANVAS}" '
        f'width="{CANVAS}" height="{CANVAS}">'
    )
    yield (
        f'<rect x="0" y="0" width="{CANVAS}" height="{CANVAS}" '
        f'fill="#ffffff" stroke="#222222" stroke-width="1"/>'
    )
    yield from body
    yield "</svg>"


def _dust_body(tree: dust.DustTree) -> Iterator[str]:
    for k, level in enumerate(tree.levels, start=1):
        fill = _LEVEL_FILLS[(k - 1) % len(_LEVEL_FILLS)]
        scale = tree.spec.scale(k)
        for _, (i, j) in level:
            yield _rect(((i, i + 1), (j, j + 1)), scale, fill, "0.85")


def render_dust(tree: dust.DustTree) -> Iterator[str]:
    """The lines of every level of a planar dust tree, one tint per level, coarse first.

    A tree of another dimension is refused here, before any line is drawn.
    """
    if tree.spec.n != 2:
        raise ValueError("SVG rendering is available for n = 2 only")
    return _document(_dust_body(tree))


def render_cover(cover: cells.CoverSeq) -> Iterator[str]:
    """The lines of the boxes of a planar cover in sequence order, translucent."""
    if cover.n != 2:
        raise ValueError("SVG rendering is available for n = 2 only")
    frame = cells._frame(cover.pieces)
    return _document(_rect(cells._on_frame(piece, frame), frame, "#1f6f8b", "0.45") for piece in cover.pieces)


def write_svg(lines: Iterable[str], path: str | Path) -> None:
    """Write each line, and its newline, as it comes."""
    with open(path, "w", encoding="ascii", newline="\n") as out:
        out.writelines(line + "\n" for line in lines)
