"""Deterministic, version-stable randomness.

Every sampled object in this package (random graphs, revision schedules,
noise coins) is a pure function of a 64-bit seed.  Randomness comes from a
counter-mode SHA-256 word stream rather than a library RNG so that the
seed-to-output mapping survives interpreter and library upgrades: word
``i`` of the stream is byte slice ``8*(i%4) .. 8*(i%4)+8`` (big-endian) of
``SHA256(domain || seed_be8 || block_be8)`` with ``block = i // 4``.

There are two ways to draw.  ``WordStream.word_bytes(count)`` hands out
the next ``count`` words in one call, as ``8 * count`` big-endian bytes:
whole blocks hashed back to back, with the unread tail of the last block
kept for the next call.  ``words(count)`` unpacks those bytes into ints, so
the two draw the same words and mix freely.  One call draws at most
``WORDS_PER_DRAW_MAX`` words (64 MiB), checked before anything is hashed;
that admits the C(4096, 2) words of the largest G(n, p) sample.

Blocks are hashed without Python code per block: one ``struct`` packer
maps the prefix and the block numbers to messages, and ``map`` feeds them
to the SHA-256 constructor and the digest method.  The constructor is
CPython's built-in one, reached through ``hashlib``, whose per-call cost
is far below OpenSSL's on these one-block messages; where it is missing,
``hashlib.sha256`` is used.  Both give the same digests.

Changing this mapping is a breaking change; sampled graphs and simulation
traces are part of tested behaviour (``tests/golden/codec_vectors.jsonl``).
"""

from __future__ import annotations

import hashlib
import struct
from fractions import Fraction
from itertools import repeat
from math import ceil

from .errors import DomainError, ResourceLimitError, check_instance, check_int, check_real, shown

__all__ = ["WordStream", "derive_seed", "check_seed", "uniform_cut"]

WORDS_PER_DRAW_MAX = 1 << 23  # the most words one call draws: 64 MiB

try:  # _sha256 on 3.11, _sha2 from 3.12: reached by name through hashlib only
    _sha256 = hashlib.__get_builtin_constructor("sha256")
except (AttributeError, ValueError):
    _sha256 = hashlib.sha256
_digest = type(_sha256()).digest


def uniform_cut(x) -> int:
    """The bound under which a word's top 53 bits, as a uniform in [0, 1),
    are below x: ``(word >> 11) * 2^-53 < x  <=>  word < ceil(x * 2^53) << 11``,
    exact for float and ``Fraction`` x alike.  A NaN or an infinity has no
    such bound and raises DomainError."""
    check_real(x, "probability")
    try:
        x = Fraction(x)
    except (ValueError, OverflowError):  # NaN, an infinity
        raise DomainError(f"probability must be finite, got {x!r}") from None
    return ceil(x * (1 << 53)) << 11


def check_seed(seed: int) -> int:
    """The seed as an int in [0, 2^64)."""
    return check_int(seed, "seed", 0, (1 << 64) - 1)


class WordStream:
    """Endless stream of 64-bit words determined by (seed, domain)."""

    def __init__(self, seed: int, domain: bytes = b"gasketlab"):
        self._prefix = check_instance(domain, bytes, "domain") + check_seed(seed).to_bytes(8, "big")
        self._block = 0
        self._spare = b""  # unread tail of the last block hashed, 0 to 24 bytes

    def word_bytes(self, count: int) -> bytes:
        """The next ``count`` words as ``8 * count`` big-endian bytes; more
        than ``WORDS_PER_DRAW_MAX`` raises ResourceLimitError."""
        count = check_int(count, "word count", 0)
        if count > WORDS_PER_DRAW_MAX:
            raise ResourceLimitError(
                f"draw of {shown(count)} words exceeds the cap "
                f"WORDS_PER_DRAW_MAX = {WORDS_PER_DRAW_MAX}"
            )
        size = 8 * count
        data = self._spare
        if size > len(data):
            start = self._block
            self._block += (size - len(data) + 31) // 32
            prefix = self._prefix
            pack = struct.Struct(f">{len(prefix)}sQ").pack
            messages = map(pack, repeat(prefix), range(start, self._block))
            data += b"".join(map(_digest, map(_sha256, messages)))
        self._spare = data[size:]
        return data[:size]

    def words(self, count: int) -> list[int]:
        """The next ``count`` words as ints."""
        data = self.word_bytes(count)
        return list(struct.unpack(f">{len(data) // 8}Q", data))


def derive_seed(master: int, *labels: object) -> int:
    """Derive an independent 64-bit subseed from a master seed and labels.

    Labels are length-prefixed before hashing, so ("ab", "c") and ("a", "bc")
    derive different seeds.
    """
    h = hashlib.sha256()
    h.update(b"gasketlab-derive")
    h.update(check_seed(master).to_bytes(8, "big"))
    for label in labels:
        enc = str(label).encode("utf-8")
        h.update(len(enc).to_bytes(4, "big"))
        h.update(enc)
    return int.from_bytes(h.digest()[:8], "big")
