"""Static SVG rendering of planar constructions.

Output is deterministic: coordinates are formatted by integer arithmetic
(floor to a fixed number of decimal places), elements are emitted in a
sorted order, and nothing environment-dependent (timestamps, ids, float
repr) enters the file.  Re-rendering the same object yields identical
bytes.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .covers import CoverSeq
    from .dust import DustTree
    from .geometry import Box

CANVAS = 1000
PLACES = 6

_LEVEL_FILLS = ("#1f6f8b", "#99a8b2", "#e0c45c", "#c96567", "#8a6fdf", "#5b8c5a")


def _dec(x: Fraction) -> str:
    """Floor of CANVAS * x with PLACES decimal places, via integers."""
    scaled = x * CANVAS * 10**PLACES
    units = scaled.numerator // scaled.denominator
    whole, frac = divmod(units, 10**PLACES)
    text = f"{whole}.{frac:0{PLACES}d}".rstrip("0").rstrip(".")
    return text if text else "0"


def _rect(box: Box, fill: str, opacity: str) -> str:
    (x0, x1), (y0, y1) = box.intervals
    x = _dec(x0)
    y = _dec(Fraction(1) - y1)
    w = _dec(x1 - x0)
    h = _dec(y1 - y0)
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


def render_dust(tree: DustTree) -> str:
    """Every level of a planar dust tree, one tint per level, coarse first."""
    if tree.spec.n != 2:
        raise ValueError("SVG rendering is available for n = 2 only")
    body = []
    for k in range(1, tree.spec.depth + 1):
        fill = _LEVEL_FILLS[(k - 1) % len(_LEVEL_FILLS)]
        for _, cube in tree.level(k):
            body.append(_rect(cube, fill, "0.85"))
    return _document(body)


def render_cover(cover: CoverSeq) -> str:
    """Boxes of a planar cover in sequence order, translucent."""
    if cover.n != 2:
        raise ValueError("SVG rendering is available for n = 2 only")
    body = [_rect(piece, "#1f6f8b", "0.45") for piece in cover.pieces]
    return _document(body)


def write_svg(text: str, path: str | Path) -> None:
    Path(path).write_bytes(text.encode("ascii"))
