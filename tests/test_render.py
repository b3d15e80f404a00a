import hashlib
import math
import xml.etree.ElementTree as ET
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from fanforge import build
from fanforge.cli import main
from fanforge.decomp import Earring, collapse_E
from fanforge.errors import UnknownFigure
from fanforge.render import (
    HEIGHT,
    MARGIN,
    WIDTH,
    _Axis,
    _Canvas,
    figure_filename,
    figure_lines,
    render_earring,
    render_figure,
)
from fanforge.spaceset import assemble
from fanforge.tiling import save_state

from .oracles import CanvasOracle, render_earring_oracle, render_fan_oracle, render_tiling_oracle

SVG = "{http://www.w3.org/2000/svg}"


def _classes(doc, tag, cls):
    root = ET.fromstring(doc)
    return [el for el in root.iter(f"{SVG}{tag}") if el.get("class") == cls]


class TestTiling:
    def test_counts_at_depth_one(self, st_1_4):
        doc = render_figure(st_1_4, "tiling")
        assert len(_classes(doc, "rect", "rect")) == 12
        root = ET.fromstring(doc)
        groups = [g for g in root.iter(f"{SVG}g") if g.get("class") == "copy"]
        assert len(groups) == 13

    def test_byte_determinism(self, st_1_4):
        assert render_figure(st_1_4, "tiling") == render_figure(st_1_4, "tiling")

    def test_no_nan_coordinates(self, st_1_4):
        assert "nan" not in render_figure(st_1_4, "tiling").lower()


class TestFan:
    def test_vertex_marker_present(self, st_1_4):
        doc = render_figure(st_1_4, "fan")
        vertices = _classes(doc, "circle", "vertex")
        assert len(vertices) == 1

    def test_spoke_through_column_one(self, st_1_4):
        # the spoke to c = 1 runs from the vertex to the top-right corner
        root = ET.fromstring(render_figure(st_1_4, "fan"))
        spokes = [l for l in root.iter(f"{SVG}line") if l.get("class") == "spoke"]
        assert len(spokes) == 2 * 2**6  # both endpoints of every depth-6 interval
        ends = {(float(l.get("x2")), float(l.get("y2"))) for l in spokes}
        # the canvas spans [-0.05, 1.05] both ways: c = 1 sits 1.05/1.1 across, 0.05/1.1 down
        top_right = (MARGIN + (WIDTH - 2 * MARGIN) * 1.05 / 1.1, MARGIN + (HEIGHT - 2 * MARGIN) * 0.05 / 1.1)
        assert any(end == pytest.approx(top_right) for end in ends)

    def test_diameter_metadata_embedded(self, st_1_4):
        doc = render_figure(st_1_4, "fan")
        assert "stage_fan_diameters" in doc
        assert render_figure(st_1_4, "fan") == doc


class TestEarring:
    def test_loop_count_and_monotone_radii(self, model_1_4):
        doc = render_earring(collapse_E(model_1_4, 0))
        loops = _classes(doc, "circle", "loop")
        assert len(loops) == 4
        radii = [float(c.get("r")) for c in loops]
        assert radii == sorted(radii, reverse=True)
        assert all(a > b for a, b in zip(radii, radii[1:]))

    def test_single_loop_single_circle(self):
        model = assemble(build(0, 1))
        doc = render_earring(collapse_E(model, 0))
        assert len(_classes(doc, "circle", "loop")) == 1

    def test_no_loops_no_group(self):
        empty = Earring("0:0", ())
        assert render_earring(empty) == render_earring_oracle(empty)
        assert "<g" not in render_earring(empty)

    def test_determinism(self, model_1_4):
        e = collapse_E(model_1_4, 0)
        assert render_earring(e) == render_earring(e)


class TestDispatch:
    def test_well_formed_documents(self, st_1_4, model_1_4):
        for doc in (
            render_figure(st_1_4, "tiling"),
            render_figure(st_1_4, "fan"),
            render_earring(collapse_E(model_1_4, 0)),
        ):
            ET.fromstring(doc)  # raises on malformed XML

    def test_unknown_figure(self, st_1_4):
        with pytest.raises(UnknownFigure):
            render_figure(st_1_4, "heatmap")

    def test_earring_kind_draws_copy_zero(self, st_1_4, model_1_4):
        assert render_figure(st_1_4, "earring") == render_earring(collapse_E(model_1_4, 0))

    def test_filename_convention(self):
        assert figure_filename("fan", 2, 16) == "figure-fan-K2-N16.svg"


# SHA-256 of the (2,16) figures as the Fraction renderers wrote them; the
# fast path and the oracles must both keep producing these bytes.
GOLDEN_2_16 = {
    "tiling": "0a9b6e60a0c4fd88837e6a47848b249846a9a52a49c102085ee58009ee99ba65",
    "fan": "dbc75b498198bf630b2017921f84f614c9bcbd8c424720349ed0ac4bcc289f66",
    "earring": "99ef6129a83db73eb7e7e8c8667e252eb111442c397be222bab23751b5ce47fd",
}


class TestByteContract:
    """The float-boundary renderers write the bytes of the Fraction walk."""

    @pytest.mark.parametrize("kind", sorted(GOLDEN_2_16))
    def test_golden_digests(self, st_2_16, kind):
        doc = render_figure(st_2_16, kind)
        assert hashlib.sha256(doc.encode()).hexdigest() == GOLDEN_2_16[kind]

    @pytest.mark.parametrize("kind", ["tiling", "fan"])
    def test_oracle_matches_golden(self, st_2_16, kind):
        oracle = {"tiling": render_tiling_oracle, "fan": render_fan_oracle}[kind]
        assert hashlib.sha256(oracle(st_2_16).encode()).hexdigest() == GOLDEN_2_16[kind]

    @pytest.mark.parametrize("fixture", ["st_1_4", "st_2_16", "st_3_16", "st_4_16t"])
    def test_default_options(self, request, tmp_path, fixture):
        # the file the CLI streams, the joined document and the oracle agree
        state = request.getfixturevalue(fixture)
        save_state(state, tmp_path / "state.json")
        oracles = {
            "tiling": render_tiling_oracle,
            "fan": render_fan_oracle,
            "earring": lambda st: render_earring_oracle(collapse_E(assemble(st), 0)),
        }
        for kind, oracle in oracles.items():
            out = tmp_path / f"{kind}.svg"
            argv = ["render", "--state", str(tmp_path / "state.json"), "--figure", kind, "--out", str(out)]
            assert main(argv) == 0
            doc = render_figure(state, kind)
            assert out.read_bytes() == doc.encode()
            assert doc == oracle(state), kind

    def test_every_line_ends_its_element(self, st_2_16):
        for kind in GOLDEN_2_16:
            lines = list(figure_lines(st_2_16, kind))
            assert all(line.endswith("\n") for line in lines)
            assert "".join(lines) == render_figure(st_2_16, kind)

    def test_unknown_kind_raises_before_any_line(self, st_1_4):
        with pytest.raises(UnknownFigure):
            figure_lines(st_1_4, "heatmap")


class TestAxisText:
    """Each axis formats a float once and hands back the text the direct
    format of the canvas map gives, for the first and every later lookup,
    and after the tiling figure clears its x texts at a new column. `text`
    formats afresh and gives the same text."""

    FAN, TILING_3 = (-0.05, 1.05, -0.05, 1.05), (-0.05, 1.05, -3.25, 4.25)

    @given(st.lists(st.floats(), max_size=8), st.sampled_from([FAN, TILING_3]))
    @example([0.0, -0.0, 5e-324, -5e-324, 2.0**500, -(2.0**500), math.nextafter(2.0**500, 0)], FAN)
    @example([-0.0, 0.0, 1.05, -0.05, 4.25, -3.25], TILING_3)
    def test_memo_matches_direct_format(self, values, bounds):
        canvas, direct = _Canvas(*bounds), CanvasOracle(*bounds)
        for _ in range(2):  # uncached, then cached
            for v in values:
                assert canvas.x[v] == canvas.x.text(v) == direct.x(v)
                assert canvas.y[v] == canvas.y.text(v) == direct.y(v)
        canvas.x.clear()
        assert [canvas.x[v] for v in values] == [direct.x(v) for v in values]
        # the fan figure's copies format x by the %.12f of the line template
        x0, sx = canvas.x.origin, canvas.x.scale
        assert ["%.12f" % (MARGIN + (v - x0) * sx) for v in values] == [direct.x(v) for v in values]

    def test_tiling_x_texts_last_one_column(self, st_2_16):
        # the x texts are dropped exactly when the (stage, origin) of the copies changes
        columns = [(copy.stage, copy.origin) for copy in st_2_16.copies]
        cleared = []

        def clear(axis):
            cleared.append(len(axis))
            dict.clear(axis)

        with mock.patch.object(_Axis, "clear", clear):
            render_figure(st_2_16, "tiling")
        assert len(cleared) == 1 + sum(a != b for a, b in zip(columns, columns[1:]))
