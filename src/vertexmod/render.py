"""ASCII and SVG pictures of a fundamental domain.

One period strip (vertex columns 0..m) is drawn with the configuration
solid, the red overlay of a chosen component dashed, and its two-colored
subcomponents hatched ('///' positive, '\\\\' negative in ASCII; green and
blue hatch patterns in SVG).  Objects whose canonical representative falls
outside the strip are drawn through their periodic translate, so both
boundary columns show the wraparound, figure style.
"""

from __future__ import annotations

from .configuration import Configuration
from .lattice import HORIZONTAL, VERTICAL
from .topology import Component, overlay, subcomponents


def _strip_positions(lat, x: int, y: int, vertical: bool = False) -> list[tuple[int, int]]:
    """Where the canonical item at (x, y) is drawn in the strip 0..m.

    A vertical edge sits on column x; a horizontal edge or a face spans
    columns x - 1..x, so at x = 0 it lies left of the strip and is drawn
    only through its translate (m, y + n).  A vertical edge at x = 0 is
    drawn at both.
    """
    if x:
        return [(x, y)]
    shifted = (lat.m, y + lat.n)
    return [(x, y), shifted] if vertical else [shifted]


def _strip_items(cfg: Configuration, comp: Component | None, involution: str):
    """Edges, overlay edges and colored faces placed into the strip 0..m."""
    lat = cfg.lat
    vedges, hedges = {}, {}
    for e, k in cfg.edges.items():
        vertical = e.kind == VERTICAL
        for pos in _strip_positions(lat, e.x, e.y, vertical):
            (vedges if vertical else hedges)[pos] = k
    red_v, red_h = set(), set()
    faces = {}
    if comp is not None:
        ov = overlay(cfg, comp, involution)
        for i, mid2 in ov.red_edges():
            vertical = i == 1
            e = lat.edge_of_mid2(VERTICAL if vertical else HORIZONTAL, mid2)
            (red_v if vertical else red_h).update(_strip_positions(lat, e.x, e.y, vertical))
        for piece in subcomponents(cfg, comp, ov):
            for w in piece.weights:
                for pos in _strip_positions(lat, *lat.face_of_weight(w)):
                    faces[pos] = (piece.color, w)
    return vedges, hedges, red_v, red_h, faces


def _y_range(cfg, vedges, hedges, faces):
    ys = [y for (_, y) in vedges] + [y for (_, y) in hedges] + [y for (_, y) in faces]
    ys += [y - 1 for (_, y) in vedges] + [y - 1 for (_, y) in faces]
    if not ys:
        ys = [-1, cfg.lat.n + 1]
    return min(ys) - 1, max(ys) + 1


def render_ascii(cfg: Configuration, comp: Component | None = None,
                 involution: str = "star") -> str:
    lat = cfg.lat
    m = lat.m
    vedges, hedges, red_v, red_h, faces = _strip_items(cfg, comp, involution)
    ybot, ytop = _y_range(cfg, vedges, hedges, faces)

    def hglyph(x, y):
        k = hedges.get((x, y), 0)
        if k == 1:
            return "---"
        if k > 9:
            return "-#-"
        if k:
            return f"-{k}-"
        if (x, y) in red_h:
            return "- -"
        return "   "

    def vglyph(x, y):
        k = vedges.get((x, y), 0)
        if k == 1:
            return "|"
        if k > 9:
            return "#"
        if k:
            return str(k)
        if (x, y) in red_v:
            return ":"
        return " "

    def fglyph(x, y):
        item = faces.get((x, y))
        if item is None:
            return "   "
        return "///" if item[0] > 0 else "\\\\\\"

    lines = []
    for y in range(ytop, ybot - 1, -1):
        row = [f"{y:>4} "]
        for x in range(m + 1):
            row.append("+")
            if x < m:
                row.append(hglyph(x + 1, y))
        lines.append("".join(row))
        if y > ybot:
            row = ["     "]
            for x in range(m + 1):
                row.append(vglyph(x, y))
                if x < m:
                    row.append(fglyph(x + 1, y))
            lines.append("".join(row))
    return "\n".join(lines)


# pixels per lattice unit in SVG output
UNIT = 40

_SVG_HEAD = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
    'width="{w}" height="{h}" viewBox="0 0 {w} {h}">\n'
    "<defs>\n"
    '<pattern id="hpos" width="6" height="6" patternUnits="userSpaceOnUse" '
    'patternTransform="rotate(45)"><line x1="0" y1="0" x2="0" y2="6" '
    'stroke="#2a7d2a" stroke-width="1.4"/></pattern>\n'
    '<pattern id="hneg" width="6" height="6" patternUnits="userSpaceOnUse" '
    'patternTransform="rotate(-45)"><line x1="0" y1="0" x2="0" y2="6" '
    'stroke="#2a4d8f" stroke-width="1.4"/></pattern>\n'
    "</defs>\n"
)


def render_svg(cfg: Configuration, comp: Component | None = None,
               involution: str = "star") -> str:
    lat = cfg.lat
    m = lat.m
    vedges, hedges, red_v, red_h, faces = _strip_items(cfg, comp, involution)
    ybot, ytop = _y_range(cfg, vedges, hedges, faces)
    pad = UNIT // 2 + 10
    width = 2 * pad + m * UNIT
    height = 2 * pad + (ytop - ybot) * UNIT

    def X(x):
        return pad + x * UNIT

    def Y(y):
        return pad + (ytop - y) * UNIT

    out = [_SVG_HEAD.format(w=width, h=height)]

    def line(x1, y1, x2, y2, style):
        out.append(f'<line x1="{X(x1)}" y1="{Y(y1)}" x2="{X(x2)}" y2="{Y(y2)}" {style}/>\n')

    # hatched subcomponent faces, underneath everything
    for (x, y), (color, w) in sorted(faces.items()):
        fill = "hpos" if color > 0 else "hneg"
        out.append(
            f'<rect x="{X(x - 1)}" y="{Y(y)}" width="{UNIT}" height="{UNIT}" '
            f'fill="url(#{fill})" stroke="none"/>\n'
        )
        out.append(
            f'<text x="{X(x - 1) + 4}" y="{Y(y - 1) - 4}" font-size="{UNIT // 4}" '
            f'fill="#555">{w}</text>\n'
        )
    # light grid
    grid = 'stroke="#cccccc" stroke-width="1"'
    for x in range(m + 1):
        line(x, ybot, x, ytop, grid)
    for y in range(ybot, ytop + 1):
        line(0, y, m, y, grid)
    # period boundary
    dashed = 'stroke="#000000" stroke-width="1" stroke-dasharray="6,4"'
    line(0, ybot, 0, ytop, dashed)
    line(m, ybot, m, ytop, dashed)
    # configuration, with parallel strands for multiplicity
    for (x, y), k in sorted(vedges.items()):
        for j in range(k):
            off = (j - (k - 1) / 2) * 4
            out.append(
                f'<line x1="{X(x) + off}" y1="{Y(y - 1)}" x2="{X(x) + off}" y2="{Y(y)}" '
                f'stroke="#1f4fd0" stroke-width="2.5"/>\n'
            )
    for (x, y), k in sorted(hedges.items()):
        for j in range(k):
            off = (j - (k - 1) / 2) * 4
            out.append(
                f'<line x1="{X(x - 1)}" y1="{Y(y) + off}" x2="{X(x)}" y2="{Y(y) + off}" '
                f'stroke="#1f4fd0" stroke-width="2.5"/>\n'
            )
    # red overlay, dashed
    red = 'stroke="#d02020" stroke-width="2" stroke-dasharray="5,4"'
    for x, y in sorted(red_v):
        line(x, y - 1, x, y, red)
    for x, y in sorted(red_h):
        line(x - 1, y, x, y, red)
    out.append("</svg>\n")
    return "".join(out)
