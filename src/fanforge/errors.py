"""Exception types shared across the package."""

from __future__ import annotations


class FanforgeError(Exception):
    """Base class for all package errors."""


class OutOfRange(FanforgeError):
    """A coordinate fell outside its documented domain."""


class NotInCantor(FanforgeError):
    """A first coordinate is not a member of the middle-thirds Cantor set."""


class IndexOutOfRange(FanforgeError):
    """A jump index is outside [0, truncation)."""


class JumpHit(FanforgeError):
    """A vertical trace column coincides with a scaled jump location."""


class TruncationTooCoarse(FanforgeError):
    """Strict trace interleaving failed; the truncation is too small for this depth.

    Carries the offending column and stage plus a jump count that is
    sufficient for the requested depth.
    """

    def __init__(self, column: str, stage: int, suggested_jumps: int, detail: str = ""):
        self.column = column
        self.stage = stage
        self.suggested_jumps = suggested_jumps
        try:
            count = str(suggested_jumps)
        except ValueError:  # past the int-to-str limit: m * 2^e, m odd
            e = (suggested_jumps & -suggested_jumps).bit_length() - 1
            count = f"{suggested_jumps >> e} * 2^{e}"
        msg = f"truncation too coarse at stage {stage}, column '{column}'"
        if detail:
            msg += f": {detail}"
        msg += f" (suggested jump count: >= {count})"
        super().__init__(msg)


class NotSpanning(FanforgeError):
    """A copy does not span the requested column."""


class NotOrdered(FanforgeError):
    """Two copies are not vertically ordered over the requested column."""


class DepthInsufficient(FanforgeError):
    """The construction depth is too small for the requested object."""


class InvalidParameter(FanforgeError):
    """A run parameter is outside its domain: a number that is NaN, infinite
    or negative, a check selector whose level is misplaced or malformed, a
    copy's den that its rectangle's heights do not divide, or a jump count
    whose reports could not be written."""


class InvertedWindow(FanforgeError):
    """A height window's lower bound lies above its upper bound."""


class TraceOutOfRange(FanforgeError):
    """An inherited trace band left [-n+1, n] while stage n was built."""


class UnknownCopy(FanforgeError):
    """No placed copy has the given identifier."""


class UnknownFigure(FanforgeError):
    """Unrecognized figure kind for rendering."""


class StateSchemaError(FanforgeError):
    """A serialized state or report document is malformed."""

    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(f"{message}" + (f" (at {location})" if location else ""))
