"""A fixed reference kernel that measures how fast this machine runs right now.

Shared machines change speed by up to 2x within minutes, as other tenants
come and go.  ``run.py`` times this kernel before and after every operation
and scales the operation's time by ``REFERENCE_S / kernel time``, so that
the reported numbers are those of a machine that runs the kernel in exactly
``REFERENCE_S``.

The kernel uses only the standard library and none of gasketlab, and it runs
with the garbage collector off, so that garbage an operation leaves behind is
not collected on the kernel's clock.  The program can still shift the kernel
time a little through the state it leaves (caches, heap layout), which is why
``run.py --detail`` records the median scale factor: a change that moves it
has moved the divisor, not just the program.  The kernel mixes the kinds of work that
gasketlab does: set and dict traffic over small graphs, bit operations on
large integers, SHA-256 over short messages, and string building.  Its sum
tracked per-operation slowdowns better than any one part did.
"""

from __future__ import annotations

import gc
import hashlib
import time

REFERENCE_S = 0.004

_ROWS = [frozenset((v * 7 + k * 13) % 64 for k in range(1, 9)) for v in range(64)]


def kernel() -> int:
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    acc = 0
    for _ in range(3):
        for v in range(64):
            row = _ROWS[v]
            for u in row:
                acc += len(row & _ROWS[u])
    counts: dict[tuple[int, int], int] = {}
    for i in range(1500):
        key = (i % 37, i % 41)
        counts[key] = counts.get(key, 0) + i
    acc += len(counts)
    big = (1 << 400_000) - 1
    for shift in (1, 3, 7, 15, 31, 63, 127, 255, 511, 1023):
        big = (big | (big << shift)) & ((1 << 800_000) - 1)
    acc += big.bit_count()
    h = b"gasketlab-calibrate"
    for i in range(600):
        h = hashlib.sha256(h + i.to_bytes(8, "big")).digest()
    acc += h[0]
    bits = "".join("1" if (i * 2654435761) & 8 else "0" for i in range(12000))
    return acc + bits.count("1")


def time_kernel() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
