"""Exact rational arithmetic and middle-thirds Cantor set combinatorics.

Every coordinate in the construction is a ``fractions.Fraction``; nothing in
this module (or any module that builds on it) rounds. Addresses are finite
binary words naming the canonical clopen basis pieces of the Cantor set, and
the two endpoint maps realize the usual base-3 coding.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from typing import Iterator

from .errors import NotInCantor, OutOfRange

ZERO = Fraction(0)
ONE = Fraction(1)


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]*[1-9][0-9]*))?")


def rational_pair(text: str) -> tuple[int, int]:
    """Parse "p/q" or a bare integer into (p, q) in lowest terms, q > 0: an
    optional "-", digits, and an optional "/" with a positive denominator.
    Nothing else (no decimals, exponents, signs on q, underscores or spaces)
    is a rational here."""
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ValueError(f"not a rational: {text!r}")
    return reduced(int(match[1]), int(match[2] or 1))


def reduced(p: int, q: int) -> tuple[int, int]:
    """p/q, q > 0, as the pair of its lowest terms."""
    g = math.gcd(p, q)
    return (p // g, q // g)


def rational_from_str(text: str) -> Fraction:
    """The rational of `rational_pair(text)`."""
    return Fraction(*rational_pair(text))


def rational_to_str(q: Fraction) -> str:
    """Serialize in lowest terms as "p/q" ("0/1" for zero)."""
    return f"{q.numerator}/{q.denominator}"


def pair_to_str(pair: tuple[int, int]) -> str:
    """Serialize a pair in lowest terms (`rational_pair`) as "p/q"."""
    return "%d/%d" % pair


class Address:
    """A finite binary word addressing the basic clopen set B(sigma).

    The empty word addresses the whole Cantor set. Addresses are equal, and
    hash alike, when their bits are.
    """

    __slots__ = ("bits", "_text", "_origin")

    def __init__(self, bits: tuple[int, ...] = ()):
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"address bits must be 0/1: {bits!r}")
        self.bits = bits
        self._text: str | None = None  # made on first use, as is _origin
        self._origin: int | None = None

    def __eq__(self, other: object) -> bool:
        return self.bits == other.bits if isinstance(other, Address) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.bits)

    def __len__(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        if self._text is None:
            self._text = "".join(map(str, self.bits))
        return self._text

    @classmethod
    def parse(cls, text: str) -> "Address":
        if text and set(text) - {"0", "1"}:
            raise ValueError(f"address string must be bits: {text!r}")
        return cls(tuple(map(int, text)))

    @property
    def origin(self) -> int:
        """The left end of B(sigma) over 3^len(sigma), an int: 3^len * 0(sigma),
        whose base-3 digits are 2 * sigma(k); computed once per address."""
        if self._origin is None:
            self._origin = int(str(self).replace("1", "2") or "0", 3)
        return self._origin

    def is_prefix_of(self, other: "Address") -> bool:
        return self.bits == other.bits[: len(self.bits)]


def addresses_of_length(n: int) -> Iterator[Address]:
    """All addresses of length n in lexicographic order."""
    for bits in itertools.product((0, 1), repeat=n):
        yield Address(bits)


def addresses_length_lex() -> Iterator[Address]:
    """All addresses in length-then-lexicographic order (the canonical order)."""
    for n in itertools.count():
        yield from addresses_of_length(n)


def endpoint_zero(sigma: Address) -> Fraction:
    """Left endpoint of B(sigma): sum of 2*sigma(k) / 3^(k+1)."""
    return Fraction(sigma.origin, 3 ** len(sigma))


def endpoint_one(sigma: Address) -> Fraction:
    """Right endpoint of B(sigma): endpoint_zero(sigma) + 3^-|sigma|."""
    return endpoint_zero(sigma) + Fraction(1, 3 ** len(sigma))


def cantor_member(q: Fraction) -> bool:
    """Exact decision procedure for q in C.

    Walks the greedy ternary expansion; a rational's expansion is eventually
    periodic, so the walk is finite. A digit 1 is tolerated only when the
    remaining tail is exactly zero, i.e. when the alternative expansion
    ending in repeating 2s avoids the digit 1. The remainder x is kept as
    the int x * den over q's denominator.
    """
    if q < 0 or q > 1:
        raise OutOfRange(f"cantor_member expects 0 <= q <= 1, got {q}")
    x, den = q.numerator, q.denominator
    seen: set[int] = set()
    while True:
        if x == 0 or x == den:
            return True
        x3 = 3 * x
        digit = x3 // den  # x in (0, 1) so digit in {0, 1, 2}
        if digit == 1:
            return x3 == den
        x = x3 - digit * den
        if x in seen:
            return True
        seen.add(x)


def locate(q: Fraction, depth: int) -> Address:
    """The unique address of length `depth` whose basic interval contains q.

    At a shared endpoint the interval having q as its *left* endpoint wins.
    This is the point queries' one Cantor test: NotInCantor for any q
    outside C, those outside [0, 1] included.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if not (0 <= q <= 1) or not cantor_member(q):
        raise NotInCantor(f"{q} is not in the Cantor set")
    bits = []
    x, den = 3 * q.numerator, q.denominator  # (q - 0(bits)) * 3^(len(bits)+1) = x / den
    for _ in range(depth):
        if x >= 2 * den:
            bits.append(1)
            x -= 2 * den
        else:  # x <= den, as q is in C
            bits.append(0)
        x *= 3
    return Address(tuple(bits))
