"""fanforge: exact finite models of a Cantor-fan construction.

Builds truncated stage tilings of C x R with scaled copies of a monotone
pure-jump set, verifies the construction's structural conditions with exact
rational arithmetic, derives the countable/co-countable point classes and
quotient earrings, and renders deterministic SVG figures.
"""

from .debski import jump_points, min_jumps_for_depth
from .exact import Address, cantor_member, endpoint_one, endpoint_zero, locate
from .spaceset import assemble, fan_point, region_between, sample_points, vertex_neighborhood
from .tiling import ConstructionState, build, load_state, save_state, stage_one, stage_zero, vertical_trace
from .verify import epsilon_connectivity, mst_max_edge, run_all

__version__ = "0.1.0"

__all__ = [
    "Address",
    "ConstructionState",
    "assemble",
    "build",
    "cantor_member",
    "endpoint_one",
    "endpoint_zero",
    "epsilon_connectivity",
    "fan_point",
    "jump_points",
    "load_state",
    "locate",
    "min_jumps_for_depth",
    "mst_max_edge",
    "region_between",
    "run_all",
    "sample_points",
    "save_state",
    "stage_one",
    "stage_zero",
    "vertex_neighborhood",
    "vertical_trace",
]
