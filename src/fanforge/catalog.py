"""The names the command line offers before it loads the code behind them:
the checks of `verify.run_all` and the figures of `render.figure_lines`."""

KNOWN_CHECKS = (
    "conditions-i-ii",
    "partial-tiling",
    "disjointness",
    "coverage",
    "condition-v",
    "max-gap",
    "null-sequence",
    "epsilon-connectivity",
)
FIGURE_KINDS = ("tiling", "fan", "earring")
