import hashlib
import xml.etree.ElementTree as ET

import pytest

from fanforge import build
from fanforge.decomp import collapse_E
from fanforge.errors import UnknownFigure
from fanforge.render import (
    HEIGHT,
    MARGIN,
    WIDTH,
    figure_filename,
    render_earring,
    render_fan,
    render_figure,
    render_tiling,
)
from fanforge.spaceset import assemble

from .oracles import render_fan_oracle, render_tiling_oracle

SVG = "{http://www.w3.org/2000/svg}"


def _classes(doc, tag, cls):
    root = ET.fromstring(doc)
    return [el for el in root.iter(f"{SVG}{tag}") if el.get("class") == cls]


class TestTiling:
    def test_counts_at_depth_one(self, st_1_4):
        doc = render_tiling(st_1_4)
        assert len(_classes(doc, "rect", "rect")) == 12
        root = ET.fromstring(doc)
        groups = [g for g in root.iter(f"{SVG}g") if g.get("class") == "copy"]
        assert len(groups) == 13

    def test_byte_determinism(self, st_1_4):
        assert render_tiling(st_1_4) == render_tiling(st_1_4)

    def test_no_nan_coordinates(self, st_1_4):
        assert "nan" not in render_tiling(st_1_4).lower()


class TestFan:
    def test_vertex_marker_present(self, st_1_4):
        doc = render_fan(st_1_4)
        vertices = _classes(doc, "circle", "vertex")
        assert len(vertices) == 1

    def test_spoke_through_column_one(self, st_1_4):
        # the spoke to c = 1 runs from the vertex to the top-right corner
        root = ET.fromstring(render_fan(st_1_4))
        spokes = [l for l in root.iter(f"{SVG}line") if l.get("class") == "spoke"]
        assert len(spokes) == 2 * 2**6  # both endpoints of every depth-6 interval
        ends = {(float(l.get("x2")), float(l.get("y2"))) for l in spokes}
        # the canvas spans [-0.05, 1.05] both ways: c = 1 sits 1.05/1.1 across, 0.05/1.1 down
        top_right = (MARGIN + (WIDTH - 2 * MARGIN) * 1.05 / 1.1, MARGIN + (HEIGHT - 2 * MARGIN) * 0.05 / 1.1)
        assert any(end == pytest.approx(top_right) for end in ends)

    def test_diameter_metadata_embedded(self, st_1_4):
        doc = render_fan(st_1_4)
        assert "stage_fan_diameters" in doc
        assert render_fan(st_1_4) == doc


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

    def test_determinism(self, model_1_4):
        e = collapse_E(model_1_4, 0)
        assert render_earring(e) == render_earring(e)


class TestDispatch:
    def test_well_formed_documents(self, st_1_4, model_1_4):
        for doc in (
            render_tiling(st_1_4),
            render_fan(st_1_4),
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
    def test_default_options(self, request, fixture):
        state = request.getfixturevalue(fixture)
        assert render_tiling(state) == render_tiling_oracle(state)
        assert render_fan(state) == render_fan_oracle(state)
