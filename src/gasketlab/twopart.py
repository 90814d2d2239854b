"""Two-part re-encoding of graphs around a regular induced subgraph.

A host graph whose canonical C(n,2)-bit encoding contains an occurrence of
a size-constructible pattern (one a fixed algorithm can rebuild from its
size, plus optionally a vertex ordering) can be re-encoded as:

    subset index   ceil(log2 C(n,k)) bits   (combinadic rank of the occurrence)
    ordering index ceil(log2 k!) bits       (Lehmer rank; only if the
                                             generator needs ordering info)
    residual       C(n,2) - C(k,2) bits     (every canonical bit whose pair
                                             is not inside the occurrence,
                                             in ascending position order)

The pattern's own C(k,2) within-subset bits are never stored - the decoder
regenerates them - so the re-encoding wins exactly when C(k,2) exceeds the
index cost.  Generator identity and (n, k) are side information, excluded
from measured length, mirroring conditional description-length accounting.

All accounting is exact integer arithmetic with whole-bit ceilings.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from math import comb, factorial

from .errors import DomainError
from .graphs import EdgeBitString, LabeledGraph, as_subset
from .ranking import (
    ceil_log2,
    rank_subset,
    unrank_permutation,
    unrank_subset,
)
from . import sierpinski

__all__ = [
    "SideInfo",
    "TwoPartEncoding",
    "LengthReport",
    "ContainmentBounds",
    "generator_graph",
    "encode_two_part",
    "decode_two_part",
    "gain",
    "length_report",
    "threshold_exact",
    "asymptotic_bounds",
    "compressor_proxy",
    "to_bytes",
    "from_bytes",
]


def generator_graph(generator_id: str) -> tuple[LabeledGraph, bool]:
    """Pattern produced by a generator id, and whether it needs ordering info.

    Supported ids: ``sierpinski:<level>`` (ordered), ``complete:<k>`` and
    ``empty:<k>`` (unordered: every relabeling is the same graph).
    """
    try:
        family, _, arg = generator_id.partition(":")
        value = int(arg)
    except ValueError as exc:
        raise DomainError(f"unparseable generator id {generator_id!r}") from exc
    if family == "sierpinski":
        return sierpinski.build(value).graph, True
    if family == "complete":
        return LabeledGraph.complete(value), False
    if family == "empty":
        return LabeledGraph.empty(value), False
    raise DomainError(f"unknown generator family {family!r} in {generator_id!r}")


@dataclass(frozen=True)
class SideInfo:
    """Conditioning information the decoder gets for free."""

    n: int
    k: int
    generator_id: str
    ordered: bool

    @staticmethod
    def for_generator(
        generator_id: str, n: int, ordered: bool | None = None
    ) -> "SideInfo":
        pattern, needs_order = generator_graph(generator_id)
        return SideInfo(
            n=n,
            k=pattern.n,
            generator_id=generator_id,
            ordered=needs_order if ordered is None else ordered,
        )

    def pattern(self) -> LabeledGraph:
        pattern, _ = generator_graph(self.generator_id)
        if pattern.n != self.k:
            raise DomainError(
                f"generator {self.generator_id!r} produces {pattern.n} vertices, "
                f"but side info declares k={self.k}"
            )
        return pattern


def subset_index_bits(n: int, k: int) -> int:
    return ceil_log2(comb(n, k))


def ordering_index_bits(k: int) -> int:
    return ceil_log2(factorial(k))


@dataclass(frozen=True)
class TwoPartEncoding:
    subset_rank: int
    perm_rank: int | None  # None iff the generator needs no ordering info
    residual: str  # '0'/'1' text, ascending position order

    def length_bits(self, side: SideInfo) -> int:
        n, k = side.n, side.k
        length = len(self.residual) + subset_index_bits(n, k)
        if side.ordered:
            length += ordering_index_bits(k)
        return length


@dataclass(frozen=True)
class LengthReport:
    canonical_bits: int
    encoded_bits: int
    gain: int  # canonical - encoded, signed


def gain(n: int, k: int, ordered: bool) -> int:
    """Signed bits saved by the two-part form: C(k,2) minus the index cost."""
    if k < 2:
        raise DomainError(f"pattern size k must be >= 2, got {k}")
    if n < k:
        raise DomainError(f"host size n={n} must be >= pattern size k={k}")
    saved = comb(k, 2) - subset_index_bits(n, k)
    if ordered:
        saved -= ordering_index_bits(k)
    return saved


def length_report(n: int, k: int, ordered: bool) -> LengthReport:
    canonical = comb(n, 2)
    return LengthReport(
        canonical_bits=canonical,
        encoded_bits=canonical - gain(n, k, ordered),
        gain=gain(n, k, ordered),
    )


def threshold_exact(k: int, ordered: bool) -> int | None:
    """Largest host size n with gain > 0, or None if no n qualifies.

    The gain is non-increasing in n (the subset index only grows), so an
    ascending scan from n = k terminates at the first non-positive value.
    """
    if gain(k, k, ordered) <= 0:
        return None
    n = k
    while gain(n + 1, k, ordered) > 0:
        n += 1
    return n


@dataclass(frozen=True)
class ContainmentBounds:
    """Real-valued break-even host sizes, leading terms only.

    ``ordered`` is 2^((k-1)/2): below this host size, storing an ordered
    occurrence index (k log n bits) cannot beat the C(k,2) bits it saves.
    ``ordered_log_slack`` is 2^(k(k-1)/(2(k+1))), the same comparison with
    an extra log n of slack.  ``unordered`` is k 2^(k/2) / (e sqrt 2), the
    Stirling form when no ordering index is needed; the o(1) correction is
    dropped, so all three are asymptotic guides, not exact thresholds -
    use :func:`threshold_exact` for whole-bit answers.
    """

    ordered: float
    ordered_log_slack: float
    unordered: float


def asymptotic_bounds(k: int) -> ContainmentBounds:
    if k < 2:
        raise DomainError(f"pattern size k must be >= 2, got {k}")
    return ContainmentBounds(
        ordered=2.0 ** ((k - 1) / 2),
        ordered_log_slack=2.0 ** (k * (k - 1) / (2 * (k + 1))),
        unordered=k * 2.0 ** (k / 2) / (math.e * math.sqrt(2)),
    )


def encode_two_part(
    bits: EdgeBitString, occurrence: tuple[int, ...], side: SideInfo
) -> TwoPartEncoding:
    """Re-encode ``bits`` around an exact occurrence of the generator's pattern.

    ``occurrence`` must induce the pattern exactly under rank relabeling;
    anything else is rejected so the codec never silently corrupts.
    """
    if side.n != bits.n:
        raise DomainError(f"side info n={side.n} != bit string n={bits.n}")
    occ = as_subset(occurrence, side.n, nonempty=True)
    if len(occ) != side.k:
        raise DomainError(
            f"occurrence size {len(occ)} must equal pattern size k={side.k}"
        )
    pattern = side.pattern()
    text = bits.bits
    n = side.n
    occ_set = set(occ)
    rank_of = {v: t + 1 for t, v in enumerate(occ)}
    residual = []
    t = 0
    for i in range(1, n + 1):
        i_in = i in occ_set
        for j in range(i + 1, n + 1):
            if i_in and j in occ_set:
                expected = "1" if pattern.has_edge(rank_of[i], rank_of[j]) else "0"
                if text[t] != expected:
                    raise DomainError(
                        f"subset {occ} is not an ordered occurrence of "
                        f"{side.generator_id!r}: pair ({i},{j}) disagrees"
                    )
            else:
                residual.append(text[t])
            t += 1
    return TwoPartEncoding(
        subset_rank=rank_subset(occ, n),
        perm_rank=0 if side.ordered else None,
        residual="".join(residual),
    )


def decode_two_part(enc: TwoPartEncoding, side: SideInfo) -> EdgeBitString:
    """Exact inverse of :func:`encode_two_part`."""
    n, k = side.n, side.k
    if not (0 <= enc.subset_rank < comb(n, k)):
        raise DomainError(
            f"subset rank {enc.subset_rank} out of range [0, C({n},{k}))"
        )
    if side.ordered:
        if enc.perm_rank is None:
            raise DomainError("ordered side info requires a permutation rank")
        if not (0 <= enc.perm_rank < factorial(k)):
            raise DomainError(
                f"permutation rank {enc.perm_rank} out of range [0, {k}!)"
            )
        perm = unrank_permutation(enc.perm_rank, k)
    else:
        if enc.perm_rank is not None:
            raise DomainError("unordered side info must not carry a permutation rank")
        perm = tuple(range(1, k + 1))
    expected_residual = comb(n, 2) - comb(k, 2)
    if len(enc.residual) != expected_residual:
        raise DomainError(
            f"residual must have C(n,2)-C(k,2)={expected_residual} bits, "
            f"got {len(enc.residual)}"
        )
    pattern = side.pattern()
    occ = unrank_subset(enc.subset_rank, n, k)
    occ_set = set(occ)
    rank_of = {v: t + 1 for t, v in enumerate(occ)}
    out = []
    r = 0
    for i in range(1, n + 1):
        i_in = i in occ_set
        for j in range(i + 1, n + 1):
            if i_in and j in occ_set:
                a = perm[rank_of[i] - 1]
                b = perm[rank_of[j] - 1]
                out.append("1" if pattern.has_edge(a, b) else "0")
            else:
                out.append(enc.residual[r])
                r += 1
    return EdgeBitString(n, "".join(out))


def compressor_proxy(bits: EdgeBitString) -> int:
    """Generic-compressor upper bound on description length, in bits.

    zlib at maximum effort over the packed bit string.  Strictly
    informational: container overhead makes this an upper bound only, and
    no correctness check compares it against the exact codec.
    """
    text = bits.bits
    packed = int(text, 2).to_bytes((len(text) + 7) // 8, "big") if text else b""
    return 8 * len(zlib.compress(packed, 9))


# --- byte-exact serialization -------------------------------------------
#
# header:  n (u32 BE) | k (u32 BE) | id length (u16 BE) | id (utf-8) |
#          ordered (u8: 0/1)
# body:    subset_rank, then perm_rank (ordered only), then residual,
#          concatenated MSB-first and zero-padded to a byte boundary.
# Field widths are recomputed from (n, k) on read, so the format is
# self-delimiting given the header.


class _BitWriter:
    def __init__(self) -> None:
        self.acc = 0
        self.nbits = 0

    def write(self, value: int, width: int) -> None:
        if width == 0:
            return
        if not (0 <= value < (1 << width)):
            raise DomainError(f"value {value} does not fit in {width} bits")
        self.acc = (self.acc << width) | value
        self.nbits += width

    def write_bits(self, text: str) -> None:
        for ch in text:
            self.acc = (self.acc << 1) | (ch == "1")
        self.nbits += len(text)

    def to_bytes(self) -> bytes:
        pad = (-self.nbits) % 8
        return ((self.acc << pad)).to_bytes((self.nbits + pad) // 8, "big")


class _BitReader:
    def __init__(self, data: bytes) -> None:
        self.value = int.from_bytes(data, "big")
        self.remaining = 8 * len(data)

    def read(self, width: int) -> int:
        if width > self.remaining:
            raise DomainError("truncated bit field in serialized encoding")
        self.remaining -= width
        out = self.value >> self.remaining
        self.value &= (1 << self.remaining) - 1
        return out

    def read_bits(self, width: int) -> str:
        raw = self.read(width)
        return format(raw, f"0{width}b") if width else ""


def to_bytes(enc: TwoPartEncoding, side: SideInfo) -> bytes:
    gid = side.generator_id.encode("utf-8")
    if len(gid) > 0xFFFF:
        raise DomainError("generator id too long to serialize")
    header = (
        side.n.to_bytes(4, "big")
        + side.k.to_bytes(4, "big")
        + len(gid).to_bytes(2, "big")
        + gid
        + bytes([1 if side.ordered else 0])
    )
    writer = _BitWriter()
    writer.write(enc.subset_rank, subset_index_bits(side.n, side.k))
    if side.ordered:
        if enc.perm_rank is None:
            raise DomainError("ordered side info requires a permutation rank")
        writer.write(enc.perm_rank, ordering_index_bits(side.k))
    writer.write_bits(enc.residual)
    return header + writer.to_bytes()


def from_bytes(blob: bytes) -> tuple[TwoPartEncoding, SideInfo]:
    """Inverse of :func:`to_bytes`.

    The header is checked before any big-integer work: the body must hold at
    least the C(n,2) - C(k,2) residual bits, plus k - 1 ordering bits when
    ordered (k! >= 2^(k-1)), so the subset and ordering index widths are only
    computed for sizes the blob can actually encode.
    """
    if len(blob) < 11:
        raise DomainError("serialized encoding shorter than its fixed header")
    n = int.from_bytes(blob[0:4], "big")
    k = int.from_bytes(blob[4:8], "big")
    gid_len = int.from_bytes(blob[8:10], "big")
    if len(blob) < 10 + gid_len + 1:
        raise DomainError("serialized encoding truncated inside the header")
    try:
        generator_id = blob[10 : 10 + gid_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DomainError(f"generator id in the header is not UTF-8: {exc}") from exc
    ordered_byte = blob[10 + gid_len]
    if ordered_byte not in (0, 1):
        raise DomainError(f"ordered flag byte must be 0 or 1, got {ordered_byte}")
    side = SideInfo(n=n, k=k, generator_id=generator_id, ordered=bool(ordered_byte))
    if k < 1 or n < k:
        raise DomainError(f"header sizes invalid: n={n}, k={k}")
    body = blob[10 + gid_len + 1 :]
    residual_bits = comb(n, 2) - comb(k, 2)
    least_bits = residual_bits + (k - 1 if side.ordered else 0)
    if 8 * len(body) < least_bits:
        raise DomainError(
            f"serialized encoding body has {8 * len(body)} bits; "
            f"n={n}, k={k} need at least {least_bits}"
        )
    reader = _BitReader(body)
    subset_rank = reader.read(subset_index_bits(n, k))
    perm_rank = reader.read(ordering_index_bits(k)) if side.ordered else None
    residual = reader.read_bits(residual_bits)
    if reader.remaining >= 8 or reader.read(reader.remaining) != 0:
        raise DomainError("serialized encoding has nonzero or oversized padding")
    enc = TwoPartEncoding(
        subset_rank=subset_rank, perm_rank=perm_rank, residual=residual
    )
    if not (0 <= subset_rank < comb(n, k)):
        raise DomainError(f"subset rank {subset_rank} out of range [0, C({n},{k}))")
    if side.ordered and not (0 <= perm_rank < factorial(k)):  # type: ignore[operator]
        raise DomainError(f"permutation rank {perm_rank} out of range [0, {k}!)")
    return enc, side
