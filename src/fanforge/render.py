"""Deterministic SVG emission of the construction's figures.

Exact rational geometry becomes floats only at the float boundary
(`spaceset.piece_floats`, `xi_float`, `fan_x`): each
coordinate is the correctly rounded value of its exact rational, and arctan
is `math.atan`.
Floats are written at a fixed precision of twelve digits and elements in a
fixed order (stage, then index, then piece position), so equal inputs
produce byte identical documents.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .decomp import Earring, collapse_E
from .errors import UnknownFigure
from .exact import addresses_of_length, endpoint_one, endpoint_zero
from .spaceset import assemble, fan_x, piece_floats, stage_fan_diameters, xi_float
from .tiling import ConstructionState

PRECISION = 12
FIGURE_KINDS = ("tiling", "fan", "earring")


def _fmt(x: float) -> str:
    return f"{x:.{PRECISION}f}"


WIDTH, HEIGHT, MARGIN = 900, 600, 20  # the canvas
CANTOR_DEPTH = 6  # plateaus are drawn over, and spokes to, the depth-6 basic intervals
STROKE_RECT, STROKE_COPY = 0.8, 1.2


class _Canvas:
    """Maps model coordinates into the SVG viewport (y grows downward)."""

    def __init__(self, x_lo: float, x_hi: float, y_lo: float, y_hi: float):
        self.x_lo, self.x_hi = x_lo, x_hi
        self.y_lo, self.y_hi = y_lo, y_hi
        self.sx = (WIDTH - 2 * MARGIN) / (x_hi - x_lo)
        self.sy = (HEIGHT - 2 * MARGIN) / (y_hi - y_lo)

    def x(self, v: float) -> str:
        return _fmt(MARGIN + (v - self.x_lo) * self.sx)

    def y(self, v: float) -> str:
        return _fmt(MARGIN + (self.y_hi - v) * self.sy)

    def line(self, x1, y1, x2, y2, cls: str, width: float) -> str:
        return (
            f'<line class="{cls}" x1="{self.x(x1)}" y1="{self.y(y1)}" '
            f'x2="{self.x(x2)}" y2="{self.y(y2)}" stroke-width="{width}" />'
        )

    def rect(self, x1, y1, x2, y2, cls: str, width: float) -> str:
        return (
            f'<rect class="{cls}" x="{self.x(x1)}" y="{self.y(y2)}" '
            f'width="{_fmt((x2 - x1) * self.sx)}" height="{_fmt((y2 - y1) * self.sy)}" '
            f'stroke-width="{width}" fill="none" />'
        )

    def circle(self, x, y, r: float, cls: str) -> str:
        return f'<circle class="{cls}" cx="{self.x(x)}" cy="{self.y(y)}" r="{_fmt(r)}" />'


def _document(body: list[str]) -> str:
    # the style also names .midpoint and .qpoint, which no figure draws: SVG bytes are a contract
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" version="1.1">\n'
        "<style>line,rect,circle,path{stroke:#1a1a1a}.frame{stroke:#888}"
        ".rect{stroke:#b55}.copy{stroke:#137}.spoke{stroke:#bbb}"
        ".vertex{fill:#d22}.midpoint{fill:#d22}.qpoint{fill:#d22}.loop{fill:none}</style>\n"
    )
    return head + "\n".join(body) + "\n</svg>\n"


def render_tiling(state: ConstructionState) -> str:
    """C x R view: rectangle outlines (stages >= 1) and the copy images.

    The stage-0 rectangle is the ambient frame of the picture and is drawn
    as the background border rather than as a tiling outline.
    """
    canvas = _Canvas(-0.05, 1.05, -state.depth - 0.25, state.depth + 1.25)
    body = [canvas.rect(0.0, 0.0, 1.0, 1.0, "frame", 0.6)]
    for stage in state.stages[1:]:
        for rect in stage.rects:
            corners = (float(rect.left), float(rect.bottom), float(rect.right), float(rect.top))
            body.append(canvas.rect(*corners, "rect", STROKE_RECT))
    for copy in state.copies:
        body.append(f'<g class="copy" id="copy-{copy.stage}-{copy.index}">')
        pieces = piece_floats(copy, max(CANTOR_DEPTH - copy.stage, 0))
        hs = pieces.heights
        for v, segments in zip(hs, pieces.segments):
            for a, b in segments:
                body.append(canvas.line(a, v, b, v, "copy", STROKE_COPY))
        for c, lo, hi in zip(pieces.jumps, hs, hs[1:]):
            body.append(canvas.line(c, lo, c, hi, "copy", STROKE_COPY))
        body.append("</g>")
    return _document(body)


def render_fan(state: ConstructionState) -> str:
    """Fan view: spokes, the vertex and the copy images through the fan map."""
    canvas = _Canvas(-0.05, 1.05, -0.05, 1.05)
    body = ['<g class="spokes">']
    spoke_cs: list[Fraction] = []
    for sigma in addresses_of_length(CANTOR_DEPTH):
        spoke_cs.extend((endpoint_zero(sigma), endpoint_one(sigma)))
    for c in sorted(set(spoke_cs)):
        # nabla maps the top corner (c, 1) to (c, 1): spokes end at the top edge
        body.append(canvas.line(0.5, 0.0, float(c), 1.0, "spoke", 0.5))
    body.append("</g>")
    for copy in state.copies:
        body.append(f'<g class="copy" id="copy-{copy.stage}-{copy.index}">')
        pieces = piece_floats(copy, max(CANTOR_DEPTH - copy.stage, 0))
        ys = [xi_float(v) for v in pieces.heights]
        for y, segments in zip(ys, pieces.segments):
            for a, b in segments:
                body.append(canvas.line(fan_x(a, y), y, fan_x(b, y), y, "copy", STROKE_COPY))
        for c, lo, hi in zip(pieces.jumps, ys, ys[1:]):
            body.append(canvas.line(fan_x(c, lo), lo, fan_x(c, hi), hi, "copy", STROKE_COPY))
        body.append("</g>")
    diameters = {str(k): f"{v:.9f}" for k, v in sorted(stage_fan_diameters(state).items())}
    body.append(
        "<metadata>" + json.dumps({"stage_fan_diameters": diameters}, sort_keys=True) + "</metadata>"
    )
    body.append(canvas.circle(0.5, 0.0, 3.0, "vertex"))
    return _document(body)


def render_earring(earring: Earring) -> str:
    """Loops as tangent circles through one base point, scaled by exact height."""
    if not earring.loops:
        return _document([])
    scale = max(float(loop.height) for loop in earring.loops)
    canvas = _Canvas(-0.1, 1.1, -0.65, 0.65)
    body = [f'<g class="earring" id="earring-{earring.copy_key.replace(":", "-")}">']
    for loop in earring.loops:
        radius = float(loop.height) / scale / 2
        body.append(
            f'<circle class="loop" cx="{canvas.x(radius)}" cy="{canvas.y(0.0)}" '
            f'r="{_fmt(radius * canvas.sx)}" stroke-width="1.0" />'
        )
    body.append("</g>")
    body.append(canvas.circle(0.0, 0.0, 2.5, "vertex"))
    return _document(body)


def render_figure(state: ConstructionState, kind: str) -> str:
    """The `kind` figure of the state; the earring is the first copy's (copy 0)."""
    if kind == "tiling":
        return render_tiling(state)
    if kind == "fan":
        return render_fan(state)
    if kind == "earring":
        return render_earring(collapse_E(assemble(state), 0))
    raise UnknownFigure(f"unknown figure kind {kind!r} (known: {', '.join(FIGURE_KINDS)})")


def figure_filename(kind: str, depth: int, n_jumps: int) -> str:
    return f"figure-{kind}-K{depth}-N{n_jumps}.svg"
