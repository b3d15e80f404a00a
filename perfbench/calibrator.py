"""Calibration chunks for the benchmark harness, in a process of their own.

    python3 perfbench/calibrator.py

`harness.py` starts this script once per run, on the one CPU that it and
its children use. For each byte read from standard input it does one chunk
of fixed work and writes the chunk's start and duration: two doubles, in
seconds of the monotonic clock all processes share. It ends at the end of
its input.

The chunk is a process of its own so that its buffers stay out of the
harness: every child the harness starts counts the harness's peak memory
in its own peak (ru_maxrss), which the benchmark reports.
"""

from __future__ import annotations

import random
import struct
import sys
import time
from fractions import Fraction

ROUNDS = 3  # rounds of interpreter work in one chunk
COPY_BYTES = 24 << 20  # bytes one chunk copies: more than a last-level cache holds
RESULT = struct.Struct("dd")


def chunk(src: bytearray, dst: bytearray) -> None:
    """Fixed work of the two kinds the program does: exact fractions
    compared, subtracted and hashed, floats and lists sorted (the exact
    checks), and memory streamed (the float layers' arrays)."""
    rng = random.Random(0)
    for _ in range(ROUNDS):
        xs = sorted(Fraction(rng.randrange(1, 4096), rng.randrange(1, 4096)) for _ in range(300))
        sum(1 for a, b in zip(xs, xs[1:]) if b - a < Fraction(1, 64))
        index = {x: i for i, x in enumerate(xs)}
        sorted(float(x) * 0.5 + i for x, i in index.items())
    dst[:] = src


def main() -> int:
    src, dst = bytearray(COPY_BYTES), bytearray(COPY_BYTES)
    requests, replies = sys.stdin.buffer, sys.stdout.buffer
    while requests.read(1):
        start = time.perf_counter()
        chunk(src, dst)
        replies.write(RESULT.pack(start, time.perf_counter() - start))
        replies.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
