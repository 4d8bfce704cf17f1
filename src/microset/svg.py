"""Static SVG rendering of planar constructions.

Every rectangle is drawn from int bounds on one integer frame: a level-k
dust cell j spans (j, j + 1) on the level's b**(k*k) grid, and a cover
piece spans its bounds on the cover's frame D, the one its budget and
coverage checks use.  Output is deterministic: coordinates are formatted
by integer arithmetic (floor to a fixed number of decimal places),
elements are emitted in a sorted order, and nothing environment-dependent
(timestamps, ids, float repr) enters the file.  Re-rendering the same
object yields identical bytes.
"""

from __future__ import annotations

from pathlib import Path

from . import cells, dust

CANVAS = 1000
PLACES = 6

_LEVEL_FILLS = ("#1f6f8b", "#99a8b2", "#e0c45c", "#c96567", "#8a6fdf", "#5b8c5a")


def _dec(v: int, frame: int) -> str:
    """Floor of CANVAS * v / frame with PLACES decimal places, via integers."""
    whole, frac = divmod(v * CANVAS * 10**PLACES // frame, 10**PLACES)
    text = f"{whole}.{frac:0{PLACES}d}".rstrip("0").rstrip(".")
    return text if text else "0"


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


def _document(body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {CANVAS} {CANVAS}" '
        f'width="{CANVAS}" height="{CANVAS}">'
    )
    frame = (
        f'<rect x="0" y="0" width="{CANVAS}" height="{CANVAS}" '
        f'fill="#ffffff" stroke="#222222" stroke-width="1"/>'
    )
    return "\n".join([head, frame, *body, "</svg>"]) + "\n"


def render_dust(tree: dust.DustTree) -> str:
    """Every level of a planar dust tree, one tint per level, coarse first."""
    if tree.spec.n != 2:
        raise ValueError("SVG rendering is available for n = 2 only")
    body = []
    for k, level in enumerate(tree.levels, start=1):
        fill = _LEVEL_FILLS[(k - 1) % len(_LEVEL_FILLS)]
        scale = tree.spec.scale(k)
        body.extend(_rect(((i, i + 1), (j, j + 1)), scale, fill, "0.85") for _, (i, j) in level)
    return _document(body)


def render_cover(cover: cells.CoverSeq) -> str:
    """Boxes of a planar cover in sequence order, translucent."""
    if cover.n != 2:
        raise ValueError("SVG rendering is available for n = 2 only")
    frame, pieces = cover._framed
    return _document([_rect(piece, frame, "#1f6f8b", "0.45") for piece in pieces])


def write_svg(text: str, path: str | Path) -> None:
    Path(path).write_bytes(text.encode("ascii"))
