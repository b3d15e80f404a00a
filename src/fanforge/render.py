"""Deterministic SVG emission of the construction's figures.

Exact rational geometry becomes floats only at the float boundary
(`spaceset.piece_floats`, `fan_midpoints`, `xi_float`, `fan_x`): each
coordinate is the correctly rounded value of its exact rational, and arctan
is `math.atan`.
Floats are written at a fixed precision of twelve digits and elements in a
fixed order (stage, then index, then piece position), so equal inputs
produce byte identical documents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .decomp import Earring, collapse_E
from .errors import UnknownFigure
from .exact import addresses_of_length, endpoint_one, endpoint_zero
from .spaceset import assemble, fan_midpoints, fan_x, piece_floats, stage_fan_diameters, xi_float
from .tiling import ConstructionState

PRECISION = 12
FIGURE_KINDS = ("tiling", "fan", "earring")


def _fmt(x: float) -> str:
    return f"{x:.{PRECISION}f}"


@dataclass(frozen=True)
class RenderOptions:
    """Rendering knobs; the Cantor drawing depth is visual only."""

    width: int = 900
    height: int = 600
    margin: int = 20
    stage_low: int = 0
    stage_high: int | None = None
    draw_rects: bool = True
    draw_copies: bool = True
    draw_midpoints: bool = False
    cantor_depth: int = 6
    stroke_rect: float = 0.8
    stroke_copy: float = 1.2


class _Canvas:
    """Maps model coordinates into the SVG viewport (y grows downward)."""

    def __init__(self, opts: RenderOptions, x_lo: float, x_hi: float, y_lo: float, y_hi: float):
        self.opts = opts
        self.x_lo, self.x_hi = x_lo, x_hi
        self.y_lo, self.y_hi = y_lo, y_hi
        self.sx = (opts.width - 2 * opts.margin) / (x_hi - x_lo)
        self.sy = (opts.height - 2 * opts.margin) / (y_hi - y_lo)

    def x(self, v: float) -> str:
        return _fmt(self.opts.margin + (v - self.x_lo) * self.sx)

    def y(self, v: float) -> str:
        return _fmt(self.opts.margin + (self.y_hi - v) * self.sy)

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


def _document(opts: RenderOptions, body: list[str]) -> str:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{opts.width}" height="{opts.height}" '
        f'viewBox="0 0 {opts.width} {opts.height}" version="1.1">\n'
        "<style>line,rect,circle,path{stroke:#1a1a1a}.frame{stroke:#888}"
        ".rect{stroke:#b55}.copy{stroke:#137}.spoke{stroke:#bbb}"
        ".vertex{fill:#d22}.midpoint{fill:#d22}.qpoint{fill:#d22}.loop{fill:none}</style>\n"
    )
    return head + "\n".join(body) + "\n</svg>\n"


def _stage_range(state: ConstructionState, opts: RenderOptions) -> range:
    hi = state.depth if opts.stage_high is None else min(opts.stage_high, state.depth)
    return range(max(opts.stage_low, 0), hi + 1)


def render_tiling(state: ConstructionState, options: RenderOptions | None = None) -> str:
    """C x R view: rectangle outlines (stages >= 1) and the copy images.

    The stage-0 rectangle is the ambient frame of the picture and is drawn
    as the background border rather than as a tiling outline.
    """
    opts = options or RenderOptions()
    stages = _stage_range(state, opts)
    y_lo = float(-max(stages.stop - 1, 0)) - 0.25 if stages else -0.25
    y_hi = float(max(stages.stop - 1, 0) + 1) + 0.25 if stages else 1.25
    canvas = _Canvas(opts, -0.05, 1.05, y_lo, y_hi)
    body = [canvas.rect(0.0, 0.0, 1.0, 1.0, "frame", 0.6)]
    if opts.draw_rects:
        for stage in state.stages:
            if stage.n not in stages or stage.n == 0:
                continue
            for rect in stage.rects:
                corners = (float(rect.left), float(rect.bottom), float(rect.right), float(rect.top))
                body.append(canvas.rect(*corners, "rect", opts.stroke_rect))
    if opts.draw_copies:
        for stage in state.stages:
            if stage.n not in stages:
                continue
            for copy in stage.copies:
                body.append(f'<g class="copy" id="copy-{copy.stage}-{copy.index}">')
                pieces = piece_floats(copy, max(opts.cantor_depth - copy.stage, 0))
                hs = pieces.heights
                for v, segments in zip(hs, pieces.segments):
                    for a, b in segments:
                        body.append(canvas.line(a, v, b, v, "copy", opts.stroke_copy))
                for c, lo, hi in zip(pieces.jumps, hs, hs[1:]):
                    body.append(canvas.line(c, lo, c, hi, "copy", opts.stroke_copy))
                body.append("</g>")
                if opts.draw_midpoints:
                    for c, mid in copy.midpoints_global():
                        body.append(canvas.circle(float(c), float(mid), 1.6, "midpoint"))
    return _document(opts, body)


def render_fan(state: ConstructionState, options: RenderOptions | None = None) -> str:
    """Fan view: spokes, the vertex, copy images and midpoints through the fan map."""
    opts = options or RenderOptions()
    canvas = _Canvas(opts, -0.05, 1.05, -0.05, 1.05)
    body = ['<g class="spokes">']
    spoke_cs: list[Fraction] = []
    for sigma in addresses_of_length(min(opts.cantor_depth, 8)):
        spoke_cs.extend((endpoint_zero(sigma), endpoint_one(sigma)))
    for c in sorted(set(spoke_cs)):
        # nabla maps the top corner (c, 1) to (c, 1): spokes end at the top edge
        body.append(canvas.line(0.5, 0.0, float(c), 1.0, "spoke", 0.5))
    body.append("</g>")
    stages = _stage_range(state, opts)
    for stage in state.stages:
        if stage.n not in stages:
            continue
        for copy in stage.copies:
            body.append(f'<g class="copy" id="copy-{copy.stage}-{copy.index}">')
            pieces = piece_floats(copy, max(opts.cantor_depth - copy.stage, 0))
            ys = [xi_float(v) for v in pieces.heights]
            for y, segments in zip(ys, pieces.segments):
                for a, b in segments:
                    body.append(canvas.line(fan_x(a, y), y, fan_x(b, y), y, "copy", opts.stroke_copy))
            for c, lo, hi in zip(pieces.jumps, ys, ys[1:]):
                body.append(canvas.line(fan_x(c, lo), lo, fan_x(c, hi), hi, "copy", opts.stroke_copy))
            body.append("</g>")
            if opts.draw_midpoints:
                for x, y in fan_midpoints(copy):
                    body.append(canvas.circle(x, y, 1.4, "qpoint"))
    diameters = {str(k): f"{v:.9f}" for k, v in sorted(stage_fan_diameters(state).items())}
    body.append(
        "<metadata>" + json.dumps({"stage_fan_diameters": diameters}, sort_keys=True) + "</metadata>"
    )
    body.append(canvas.circle(0.5, 0.0, 3.0, "vertex"))
    return _document(opts, body)


def render_earring(earring: Earring, options: RenderOptions | None = None) -> str:
    """Loops as tangent circles through one base point, scaled by exact height."""
    opts = options or RenderOptions()
    if not earring.loops:
        return _document(opts, [])
    scale = max(float(loop.height) for loop in earring.loops)
    canvas = _Canvas(opts, -0.1, 1.1, -0.65, 0.65)
    body = [f'<g class="earring" id="earring-{earring.copy_key.replace(":", "-")}">']
    for loop in earring.loops:
        radius = float(loop.height) / scale / 2
        body.append(
            f'<circle class="loop" cx="{canvas.x(radius)}" cy="{canvas.y(0.0)}" '
            f'r="{_fmt(radius * canvas.sx)}" stroke-width="1.0" />'
        )
    body.append("</g>")
    body.append(canvas.circle(0.0, 0.0, 2.5, "vertex"))
    return _document(opts, body)


def render_figure(state: ConstructionState, kind: str, options: RenderOptions | None = None) -> str:
    """The `kind` figure of the state; the earring is the first copy's (copy 0)."""
    if kind == "tiling":
        return render_tiling(state, options)
    if kind == "fan":
        return render_fan(state, options)
    if kind == "earring":
        return render_earring(collapse_E(assemble(state), 0), options)
    raise UnknownFigure(f"unknown figure kind {kind!r} (known: {', '.join(FIGURE_KINDS)})")


def figure_filename(kind: str, depth: int, n_jumps: int) -> str:
    return f"figure-{kind}-K{depth}-N{n_jumps}.svg"
