"""fanforge: exact finite models of a Cantor-fan construction.

Builds truncated stage tilings of C x R with scaled copies of a monotone
pure-jump set, verifies the construction's structural conditions with exact
rational arithmetic, derives the countable/co-countable point classes and
quotient earrings, and renders deterministic SVG figures.

The names below load with their module on first use (PEP 562), so importing
the package, or one command of it, compiles no module it does not run.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "jump_points": "debski",
    "min_jumps_for_depth": "debski",
    "Address": "exact",
    "cantor_member": "exact",
    "endpoint_one": "exact",
    "endpoint_zero": "exact",
    "locate": "exact",
    "assemble": "spaceset",
    "region_between": "spaceset",
    "sample_points": "spaceset",
    "ConstructionState": "tiling",
    "build": "tiling",
    "load_state": "tiling",
    "save_state": "tiling",
    "stage_one": "tiling",
    "stage_zero": "tiling",
    "vertical_trace": "query",
    "epsilon_connectivity": "connectivity",
    "mst_max_edge": "connectivity",
    "run_all": "verify",
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
