"""Deterministic SVG emission of the construction's figures.

Exact rational geometry becomes floats only at the float boundary, the
module `floats` (`piece_floats`, `xi_float`, `fan_x`): each
coordinate is the correctly rounded value of its exact rational, and arctan
is `math.atan`. The tiling and fan figures load `floats` alone; only the
earring figure loads `spaceset` (`assemble`) and `decomp`.
Floats are written at a fixed precision of twelve digits and elements in a
fixed order (stage, then index, then piece position), so equal inputs
produce byte identical documents.

A figure is a generator of newline-terminated chunks (`figure_lines`):
the head, each element outside the copies, and each copy's whole `<g>`
group as one string (`_group`). The command line writes them to its file
as they come; `render_figure` joins them. A copy's group is made from one
x text per segment end and one y text per plateau, each formatted once: a
jump's ends are those of the plateaus it joins. The tiling figure keeps
its x texts for a whole column, which its copies share.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator

from .catalog import FIGURE_KINDS
from .errors import UnknownFigure
from .exact import addresses_of_length, endpoint_one, endpoint_zero
from .floats import fan_x, piece_floats, stage_fan_diameters, xi_float
from .tiling import ConstructionState, PlacedCopy

if TYPE_CHECKING:
    from .decomp import Earring

WIDTH, HEIGHT, MARGIN = 900, 600, 20  # the canvas
CANTOR_DEPTH = 6  # plateaus are drawn over, and spokes to, the depth-6 basic intervals
STROKE_RECT, STROKE_COPY = 0.8, 1.2

# the style also names .midpoint and .qpoint, which no figure draws: SVG bytes are a contract
HEAD = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
    f'viewBox="0 0 {WIDTH} {HEIGHT}" version="1.1">\n'
    "<style>line,rect,circle,path{stroke:#1a1a1a}.frame{stroke:#888}"
    ".rect{stroke:#b55}.copy{stroke:#137}.spoke{stroke:#bbb}"
    ".vertex{fill:#d22}.midpoint{fill:#d22}.qpoint{fill:#d22}.loop{fill:none}</style>\n"
)
TAIL = "</svg>\n"


def _fmt(x: float) -> str:
    return f"{x:.12f}"


class _Axis(dict):
    """The x axis of the viewport: a model float v maps to the text of
    MARGIN + (v - origin) * scale (`text`), formatted on its first lookup
    only. 0.0 and -0.0 share a key; both map to the same text, since MARGIN
    is added last."""

    def __init__(self, origin: float, scale: float):
        super().__init__()
        self.origin, self.scale = origin, scale

    def text(self, v: float) -> str:
        return f"{MARGIN + (v - self.origin) * self.scale:.12f}"

    def __missing__(self, v: float) -> str:
        text = self[v] = self.text(v)
        return text


class _DownAxis(_Axis):
    """The y axis, which grows downward: MARGIN + (origin - v) * scale."""

    def text(self, v: float) -> str:
        return f"{MARGIN + (self.origin - v) * self.scale:.12f}"


class _Canvas:
    """Maps model coordinates into the SVG viewport."""

    def __init__(self, x_lo: float, x_hi: float, y_lo: float, y_hi: float):
        self.sx = (WIDTH - 2 * MARGIN) / (x_hi - x_lo)
        self.sy = (HEIGHT - 2 * MARGIN) / (y_hi - y_lo)
        self.x = _Axis(x_lo, self.sx)
        self.y = _DownAxis(y_hi, self.sy)

    def rect(self, x1, y1, x2, y2, cls: str, width: float) -> str:
        return (
            f'<rect class="{cls}" x="{self.x[x1]}" y="{self.y[y2]}" '
            f'width="{_fmt((x2 - x1) * self.sx)}" height="{_fmt((y2 - y1) * self.sy)}" '
            f'stroke-width="{width}" fill="none" />\n'
        )

    def circle(self, x, y, r: float, cls: str) -> str:
        return f'<circle class="{cls}" cx="{self.x[x]}" cy="{self.y[y]}" r="{_fmt(r)}" />\n'


def _line(cls: str, width: float) -> str:
    """The `%` template of a line element, filled with x1, y1, x2, y2 texts."""
    return f'<line class="{cls}" x1="%s" y1="%s" x2="%s" y2="%s" stroke-width="{width}" />\n'


def _segment_layout(segments: list[list[tuple[float, float]]]) -> tuple[list[int], list[int]]:
    """The plateau of each segment, in order, and where each plateau's ends
    start in the flat list of segment ends (with the list's length last).
    Every copy drawn at one Cantor depth has the same layout."""
    owners = [p for p, plateau in enumerate(segments) for _ in plateau]
    return owners, list(itertools.accumulate((2 * len(plateau) for plateau in segments), initial=0))


def _group(copy: PlacedCopy, line: str, layout: tuple[list[int], list[int]], xs: list[str], ys: list[str]) -> str:
    """A copy's group as one string: a line per plateau segment, then one
    per jump, from the x texts of the segment ends, laid out as
    `_segment_layout` says, and the y text of each plateau. Jump j joins
    the last end of plateau j to the first of plateau j + 1, which lie at
    its location (PieceFloats)."""
    owners, starts = layout
    ends = iter(xs)
    plateaus = "".join([line % (a, ys[p], b, ys[p]) for p, a, b in zip(owners, ends, ends)])
    jumps = "".join([line % (xs[s - 1], lo, xs[s], hi) for s, lo, hi in zip(starts[1:], ys, ys[1:])])
    return f'<g class="copy" id="copy-{copy.stage}-{copy.index}">\n{plateaus}{jumps}</g>\n'


def _tiling_lines(state: ConstructionState) -> Iterator[str]:
    """C x R view: rectangle outlines (stages >= 1) and the copy images.

    The stage-0 rectangle is the ambient frame of the picture and is drawn
    as the background border rather than as a tiling outline. Copies of
    one column share their x coordinates, so the x texts are kept while
    the copies' (stage, origin) stays the same, and each plateau's y text
    is formatted once.
    """
    canvas = _Canvas(-0.05, 1.05, -state.depth - 0.25, state.depth + 1.25)
    X, y_text, line = canvas.x, canvas.y.text, _line("copy", STROKE_COPY)
    yield HEAD
    yield canvas.rect(0.0, 0.0, 1.0, 1.0, "frame", 0.6)
    for stage in state.stages[1:]:
        unit = 3**stage.n  # int / int is correctly rounded, as float(Fraction) is
        for rect in stage.rects:
            (a, p), (b, q), origin = rect.a, rect.b, rect.address.origin
            yield canvas.rect(origin / unit, a / p, (origin + 1) / unit, b / q, "rect", STROKE_RECT)
    column, layouts = None, {}
    for copy in state.copies:
        if column != (copy.stage, copy.origin):
            column = (copy.stage, copy.origin)
            X.clear()
        depth = max(CANTOR_DEPTH - copy.stage, 0)
        pieces = piece_floats(copy, depth)
        if depth not in layouts:
            layouts[depth] = _segment_layout(pieces.segments)
        texts = [y_text(v) for v in pieces.heights]
        xs = [X[c] for segments in pieces.segments for segment in segments for c in segment]
        yield _group(copy, line, layouts[depth], xs, texts)
    yield TAIL


def _fan_lines(state: ConstructionState) -> Iterator[str]:
    """Fan view: spokes, the vertex and the copy images through the fan map.

    A copy's fan x values are not shared with other copies, so each
    segment end is formatted where the copy's x texts are made, by `%.12f`.
    """
    canvas = _Canvas(-0.05, 1.05, -0.05, 1.05)
    X, Y, spoke, line = canvas.x, canvas.y, _line("spoke", 0.5), _line("copy", STROKE_COPY)
    x0, sx = X.origin, X.scale  # the x text of v is MARGIN + (v - x0) * sx at %.12f, as X.text(v)
    yield HEAD
    yield '<g class="spokes">\n'
    spoke_cs: list[Fraction] = []
    for sigma in addresses_of_length(CANTOR_DEPTH):
        spoke_cs.extend((endpoint_zero(sigma), endpoint_one(sigma)))
    for c in sorted(set(spoke_cs)):
        # nabla maps the top corner (c, 1) to (c, 1): spokes end at the top edge
        yield spoke % (X[0.5], Y[0.0], X[float(c)], Y[1.0])
    yield "</g>\n"
    layouts: dict[int, tuple[list[int], list[int]]] = {}
    for copy in state.copies:
        depth = max(CANTOR_DEPTH - copy.stage, 0)
        pieces = piece_floats(copy, depth)
        if depth not in layouts:
            layouts[depth] = _segment_layout(pieces.segments)
        ys = [xi_float(v) for v in pieces.heights]
        xs = [
            "%.12f" % (MARGIN + (fan_x(c, y) - x0) * sx)
            for y, segments in zip(ys, pieces.segments) for segment in segments for c in segment
        ]
        yield _group(copy, line, layouts[depth], xs, [Y.text(y) for y in ys])
    diameters = {str(k): f"{v:.9f}" for k, v in sorted(stage_fan_diameters(state).items())}
    yield "<metadata>" + json.dumps({"stage_fan_diameters": diameters}, sort_keys=True) + "</metadata>\n"
    yield canvas.circle(0.5, 0.0, 3.0, "vertex")
    yield TAIL


def _earring_lines(earring: Earring) -> Iterator[str]:
    """Loops as tangent circles through one base point, scaled by exact height."""
    yield HEAD
    if not earring.loops:
        yield "\n"  # the empty body
        yield TAIL
        return
    scale = max(float(loop.height) for loop in earring.loops)
    canvas = _Canvas(-0.1, 1.1, -0.65, 0.65)
    yield f'<g class="earring" id="earring-{earring.copy_key.replace(":", "-")}">\n'
    for loop in earring.loops:
        radius = float(loop.height) / scale / 2
        yield (
            f'<circle class="loop" cx="{canvas.x[radius]}" cy="{canvas.y[0.0]}" '
            f'r="{_fmt(radius * canvas.sx)}" stroke-width="1.0" />\n'
        )
    yield "</g>\n"
    yield canvas.circle(0.0, 0.0, 2.5, "vertex")
    yield TAIL


def render_earring(earring: Earring) -> str:
    """The earring figure of one collapsed copy."""
    return "".join(_earring_lines(earring))


def figure_lines(state: ConstructionState, kind: str) -> Iterator[str]:
    """The chunks of the `kind` figure of the state, each a whole number of
    lines (a copy's group is one chunk); the earring is the first copy's
    (copy 0). An unknown kind raises here, before any chunk is made."""
    if kind == "tiling":
        return _tiling_lines(state)
    if kind == "fan":
        return _fan_lines(state)
    if kind == "earring":
        from .decomp import collapse_E
        from .spaceset import assemble

        return _earring_lines(collapse_E(assemble(state), 0))
    raise UnknownFigure(f"unknown figure kind {kind!r} (known: {', '.join(FIGURE_KINDS)})")


def render_figure(state: ConstructionState, kind: str) -> str:
    """The `kind` figure of the state as one document."""
    return "".join(figure_lines(state, kind))


def figure_filename(kind: str, depth: int, n_jumps: int) -> str:
    return f"figure-{kind}-K{depth}-N{n_jumps}.svg"
