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

All accounting is exact integer arithmetic with whole-bit ceilings.  The
codec never walks all C(n,2) pairs one by one: it cuts the residual out of
the canonical text (or splices it back) at the C(k,2) inside positions
pos(a, b) that ``graphs`` walks, checking each inside bit against the
pattern, and serializes the residual with one ``int(residual, 2)``.  The
exact break-even host size is found by doubling and bisection on n, and a
float bound past the largest float raises DomainError naming k.
``SideInfo`` checks its own fields (u32 sizes with 2 <= k <= n, a bool
``ordered``, a generator id of the form ``<sierpinski|complete|empty>:<digits>``
that makes exactly k vertices, a gasket level at most 12, an ordered k at
most ``ranking.PERMUTATION_SIZE_MAX`` = 10,000, which admits sierpinski:9)
and never builds the pattern.  The digits may have leading zeros:
``complete:0002`` names the pattern ``complete:2`` names, and the
serialized header keeps the id as given, so one pattern has several
headers and every blob written so far reads back unchanged.
"""

from __future__ import annotations

import math
import re
import zlib
from math import comb, factorial

from .errors import DomainError, Record, ResourceLimitError, check_instance, check_int, shown
from .graphs import EdgeBitString, LabeledGraph, _ascii_bits, _inside_positions, as_subset
from .ranking import (
    PERMUTATION_SIZE_MAX,
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

PATTERN_SIZE_MIN = 2  # a smaller pattern has no inside pair to save
BOUNDS_K_MAX = 2029  # the largest k whose unordered bound, the largest, is a finite float
# threshold_exact's largest k: its O(k) C(n, k) of about k^2/2 bits each take
# about half a second at the cap on a 2-core machine, and 30 s at k = 1000
THRESHOLD_K_MAX = 400
# gain's largest ordered k: the vertex count of S12, the largest gasket a sweep
# builds, whose ceil(log2 k!) takes 0.8-1.1 s on a 2-core machine
GAIN_ORDERED_K_MAX = sierpinski.vertex_count(sierpinski.MAX_LEVEL_DEFAULT)
# gain's largest subset index, as the bound j (len(n) - len(j) + 3) >= log2 C(n, k)
# on j = min(k, n - k) and bit lengths: the slowest C(n, k) inside it, about
# C(131072, 65536), takes 0.2-0.3 s on a 2-core machine, where C(10^6, 5 10^5)
# took 9.3 s; threshold_exact's bound stays below 2^17 bits
GAIN_INDEX_BITS_MAX = 1 << 18
_U32 = 0xFFFF_FFFF
_ORDERED = {"sierpinski": True, "complete": False, "empty": False}  # needs ordering info
_GENERATOR_ID = re.compile(rf"({'|'.join(_ORDERED)}):([0-9]+)")


def _read_generator(generator_id: str) -> tuple[str, int, int]:
    """(family, level or size, vertex count) of a generator id, without
    building the pattern; a gasket level is held to the cap before any power
    of 3 is formed."""
    found = _GENERATOR_ID.fullmatch(generator_id) if isinstance(generator_id, str) else None
    if found is None:
        raise DomainError(
            "generator id must be <sierpinski|complete|empty>:<decimal digits>, "
            f"got {generator_id!r:.60}"
        )
    family, digits = found[1], found[2].lstrip("0") or "0"
    high = sierpinski.MAX_LEVEL_DEFAULT if family == "sierpinski" else _U32
    if len(digits) > len(str(high)) or int(digits) > high:
        shown = digits if len(digits) <= 20 else f"of {len(digits)} digits"
        if family == "sierpinski":
            raise ResourceLimitError(f"gasket level {shown} exceeds the configured maximum {high}")
        raise DomainError(f"pattern size {shown} of {family} exceeds the u32 maximum {high}")
    value = int(digits)
    return family, value, sierpinski.vertex_count(value) if family == "sierpinski" else value


def generator_graph(generator_id: str) -> tuple[LabeledGraph, bool]:
    """Pattern produced by a generator id, and whether it needs ordering info.

    Supported ids: ``sierpinski:<level>`` (ordered), ``complete:<k>`` and
    ``empty:<k>`` (unordered: every relabeling is the same graph).
    """
    family, value, _ = _read_generator(generator_id)
    if family == "sierpinski":
        pattern = sierpinski.build(value).graph
    else:
        pattern = (LabeledGraph.complete if family == "complete" else LabeledGraph.empty)(value)
    return pattern, _ORDERED[family]


def _residual_bits(n: int, k: int) -> int:
    return comb(n, 2) - comb(k, 2)


class SideInfo(Record):
    """Conditioning information the decoder gets for free.

    The constructor checks every field and builds no pattern: n and k are
    integers that fit the header's u32 fields with 2 <= k <= n, ``ordered``
    is a bool, and the generator id is ``<family>:<ASCII decimal digits>``
    with family sierpinski, complete or empty, a gasket level of at most
    ``sierpinski.MAX_LEVEL_DEFAULT``, and exactly k vertices.  When
    ``ordered``, k is at most ``ranking.PERMUTATION_SIZE_MAX``, the largest
    size whose ordering rank the decoder unranks; a larger one raises
    ResourceLimitError, so the encoder, the serializer and the decoder
    refuse the same sizes and no k! past the cap is formed.
    """

    n: int
    k: int
    generator_id: str
    ordered: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", check_int(self.n, "host size n", 0, _U32))
        object.__setattr__(self, "k", check_int(self.k, "pattern size k", PATTERN_SIZE_MIN, _U32))
        if not isinstance(self.ordered, bool):
            raise DomainError(f"ordered must be a bool, got {self.ordered!r}")
        _, _, size = _read_generator(self.generator_id)
        if len(self.generator_id) > 0xFFFF:
            raise DomainError(
                f"generator id of {len(self.generator_id)} characters is too long to serialize"
            )
        if size != self.k:
            raise DomainError(
                f"generator {self.generator_id!r:.60} does not produce k={self.k} vertices"
            )
        if self.n < self.k:
            raise DomainError(f"host size n={self.n} must be >= pattern size k={self.k}")
        if self.ordered and self.k > PERMUTATION_SIZE_MAX:
            raise ResourceLimitError(
                f"ordered pattern size k={self.k} exceeds the cap "
                f"PERMUTATION_SIZE_MAX = {PERMUTATION_SIZE_MAX}"
            )

    @staticmethod
    def for_generator(generator_id: str, n: int, ordered: bool | None = None) -> "SideInfo":
        """Side info for ``generator_id`` in an n-vertex host; ``ordered``
        defaults to whether the generator needs ordering info."""
        family, _, k = _read_generator(generator_id)
        return SideInfo(n, k, generator_id, _ORDERED[family] if ordered is None else ordered)

    def pattern(self) -> LabeledGraph:
        return generator_graph(self.generator_id)[0]

    def widths(self) -> tuple[int, int, int]:
        """Bits of the subset index, the ordering index (0 when unordered) and
        the residual: the serialized body's fields, in order."""
        n, k = self.n, self.k
        order_bits = ordering_index_bits(k) if self.ordered else 0
        return subset_index_bits(n, k), order_bits, _residual_bits(n, k)


def subset_index_bits(n: int, k: int) -> int:
    return ceil_log2(comb(n, k))


def ordering_index_bits(k: int) -> int:
    return ceil_log2(factorial(check_int(k, "pattern size k", 0)))


class TwoPartEncoding(Record):
    subset_rank: int
    perm_rank: int | None  # None iff the generator needs no ordering info
    residual: str  # '0'/'1' text, ascending position order

    def length_bits(self, side: SideInfo) -> int:
        subset_bits, order_bits, _ = check_instance(side, SideInfo, "side").widths()
        return subset_bits + order_bits + len(self.residual)


class LengthReport(Record):
    canonical_bits: int
    encoded_bits: int
    gain: int  # canonical - encoded, signed


def gain(n: int, k: int, ordered: bool) -> int:
    """Signed bits saved by the two-part form: C(k,2) minus the index cost.

    An ordered k past ``GAIN_ORDERED_K_MAX`` = 265,722 (S12) raises
    ResourceLimitError before k! is formed; at the cap the call takes
    0.8-1.1 s (2 cores, CPython 3.11.7), and a million took 7.6 s.  So does
    an (n, k) whose subset index may pass ``GAIN_INDEX_BITS_MAX`` bits,
    before C(n, k) is formed: the test is the integer upper bound
    j (len(n) - len(j) + 3) on log2 C(n, j) = log2 C(n, k), with
    j = min(k, n - k) and len the bit length, from C(n, j) <= (e n / j)^j.
    """
    k, n = check_int(k, "pattern size k", PATTERN_SIZE_MIN), check_int(n, "host size n")
    if n < k:
        raise DomainError(f"host size n={shown(n)} must be >= pattern size k={shown(k)}")
    if ordered and k > GAIN_ORDERED_K_MAX:
        raise ResourceLimitError(
            f"ordered pattern size k={shown(k)} exceeds the cap "
            f"GAIN_ORDERED_K_MAX = {GAIN_ORDERED_K_MAX}"
        )
    j = min(k, n - k)
    if j * (n.bit_length() - j.bit_length() + 3) > GAIN_INDEX_BITS_MAX:
        raise ResourceLimitError(  # no digits of n: a huge n has too many to print
            f"subset index of C(n, k) may pass the cap GAIN_INDEX_BITS_MAX = "
            f"{GAIN_INDEX_BITS_MAX} bits"
        )
    saved = comb(k, 2) - subset_index_bits(n, k)
    if ordered:
        saved -= ordering_index_bits(k)
    return saved


def length_report(n: int, k: int, ordered: bool) -> LengthReport:
    saved = gain(n, k, ordered)  # checks k >= 2 and n >= k before comb(n, 2)
    canonical = comb(n, 2)
    return LengthReport(canonical_bits=canonical, encoded_bits=canonical - saved, gain=saved)


def threshold_exact(k: int, ordered: bool) -> int | None:
    """Largest host size n with gain > 0, or None if no n qualifies.

    The gain is non-increasing in n (the subset index only grows), so an
    upper bracket is found by doubling from n = k and the last n with a
    positive gain by bisection: O(k) gain evaluations, as the threshold is
    about 2^(k/2).  A k past ``THRESHOLD_K_MAX`` raises ResourceLimitError
    before any factorial or binomial is formed.
    """
    k = check_int(k, "pattern size k", PATTERN_SIZE_MIN)
    if k > THRESHOLD_K_MAX:
        raise ResourceLimitError(
            f"pattern size k={shown(k)} exceeds the cap THRESHOLD_K_MAX = {THRESHOLD_K_MAX}"
        )
    if gain(k, k, ordered) <= 0:
        return None
    low, high = k, 2 * k  # gain(low) > 0
    while gain(high, k, ordered) > 0:
        low, high = high, 2 * high
    while high - low > 1:  # gain(low) > 0 >= gain(high)
        mid = (low + high) // 2
        if gain(mid, k, ordered) > 0:
            low = mid
        else:
            high = mid
    return low


class ContainmentBounds(Record):
    """Real-valued break-even host sizes, leading terms only.

    ``ordered`` is 2^((k-1)/2): below this host size, storing an ordered
    occurrence index (k log n bits) cannot beat the C(k,2) bits it saves.
    ``ordered_log_slack`` is 2^(k(k-1)/(2(k+1))), the same comparison with
    an extra log n of slack.  ``unordered`` is k 2^(k/2) / (e sqrt 2), the
    Stirling form when no ordering index is needed; the o(1) correction is
    dropped, so all three are asymptotic guides, not exact thresholds -
    use :func:`threshold_exact` for whole-bit answers.  They are floats, so
    a k whose bounds pass the largest float (every k > ``BOUNDS_K_MAX``)
    raises DomainError naming k rather than returning an infinity.
    """

    ordered: float
    ordered_log_slack: float
    unordered: float


def asymptotic_bounds(k: int) -> ContainmentBounds:
    k = check_int(k, "pattern size k", PATTERN_SIZE_MIN)
    if k > BOUNDS_K_MAX:
        raise DomainError(
            f"pattern size k={shown(k)} makes its break-even bounds too large for a float"
        )
    return ContainmentBounds(
        ordered=2.0 ** ((k - 1) / 2),
        ordered_log_slack=2.0 ** (k * (k - 1) / (2 * (k + 1))),
        unordered=k / (math.e * math.sqrt(2)) * 2.0 ** (k / 2),
    )


def encode_two_part(
    bits: EdgeBitString, occurrence: tuple[int, ...], side: SideInfo
) -> TwoPartEncoding:
    """Re-encode ``bits`` around an exact occurrence of the generator's pattern.

    ``occurrence`` must induce the pattern exactly under rank relabeling;
    anything else is rejected so the codec never silently corrupts.
    """
    check_instance(bits, EdgeBitString, "bits")
    if check_instance(side, SideInfo, "side").n != bits.n:
        raise DomainError(f"side info n={side.n} != bit string n={bits.n}")
    occ = as_subset(occurrence, side.n, nonempty=True)
    if len(occ) != side.k:
        raise DomainError(
            f"occurrence size {len(occ)} must equal pattern size k={side.k}"
        )
    pattern = side.pattern()
    text = bits.bits
    # the residual is the text cut at the inside positions; each inside bit
    # is checked on the way
    pieces = []
    prev = 0
    for s, t, at in _inside_positions(occ, side.n):
        if text[at] != ("1" if t + 1 in pattern.adj[s + 1] else "0"):
            raise DomainError(
                f"subset {occ} is not an ordered occurrence of "
                f"{side.generator_id!r:.60}: pair ({occ[s]},{occ[t]}) disagrees"
            )
        pieces.append(text[prev:at])
        prev = at + 1
    pieces.append(text[prev:])
    return TwoPartEncoding(
        subset_rank=rank_subset(occ, side.n),
        perm_rank=0 if side.ordered else None,
        residual="".join(pieces),
    )


def _fields(enc: TwoPartEncoding, side: SideInfo) -> tuple[int, int, int]:
    """``side.widths()``, once ``enc`` is checked to fill them: a permutation
    rank iff ordered, and a residual of the residual width."""
    check_instance(enc, TwoPartEncoding, "encoding")
    if check_instance(side, SideInfo, "side").ordered and enc.perm_rank is None:
        raise DomainError("ordered side info requires a permutation rank")
    if not side.ordered and enc.perm_rank is not None:
        raise DomainError("unordered side info must not carry a permutation rank")
    widths = side.widths()
    if len(enc.residual) != widths[2]:
        raise DomainError(
            f"residual must have C(n,2)-C(k,2)={widths[2]} bits, got {len(enc.residual)}"
        )
    return widths


def decode_two_part(enc: TwoPartEncoding, side: SideInfo) -> EdgeBitString:
    """Exact inverse of :func:`encode_two_part`."""
    _fields(enc, side)
    n, k = side.n, side.k
    occ = unrank_subset(enc.subset_rank, n, k)
    perm = unrank_permutation(enc.perm_rank, k) if side.ordered else tuple(range(1, k + 1))
    pattern = side.pattern()
    # splice the pattern's bits into the residual at the inside positions
    residual = enc.residual
    pieces = []
    prev = r = 0
    for s, t, at in _inside_positions(occ, n):
        pieces.append(residual[r : r + at - prev])
        pieces.append("1" if perm[t] in pattern.adj[perm[s]] else "0")
        r += at - prev
        prev = at + 1
    pieces.append(residual[r:])
    return EdgeBitString(n, "".join(pieces))


def compressor_proxy(bits: EdgeBitString) -> int:
    """Generic-compressor upper bound on description length, in bits.

    zlib at maximum effort over the packed bit string.  Strictly
    informational: container overhead makes this an upper bound only, and
    no correctness check compares it against the exact codec.
    """
    text = check_instance(bits, EdgeBitString, "bits").bits
    packed = int(text, 2).to_bytes((len(text) + 7) // 8, "big") if text else b""
    return 8 * len(zlib.compress(packed, 9))


# --- byte-exact serialization -------------------------------------------
#
# header:  n (u32 BE) | k (u32 BE) | id length (u16 BE) | id (utf-8) |
#          ordered (u8: 0/1)
# body:    subset_rank, then perm_rank (ordered only), then residual,
#          concatenated MSB-first and zero-padded to a byte boundary.
# Field widths are ``SideInfo.widths()`` of the header, so the format is
# self-delimiting given the header.


def to_bytes(enc: TwoPartEncoding, side: SideInfo) -> bytes:
    subset_bits, order_bits, _ = _fields(enc, side)
    gid = side.generator_id.encode("utf-8")
    header = (
        side.n.to_bytes(4, "big")
        + side.k.to_bytes(4, "big")
        + len(gid).to_bytes(2, "big")
        + gid
        + bytes([1 if side.ordered else 0])
    )
    fields = [(enc.subset_rank, subset_bits)]
    if side.ordered:
        fields.append((enc.perm_rank, order_bits))
    acc = nbits = 0
    for value, width in fields:
        if width:  # a zero-width field is not written
            if not (0 <= value < (1 << width)):
                raise DomainError(f"value {shown(value)} does not fit in {width} bits")
            acc, nbits = (acc << width) | value, nbits + width
    residual = enc.residual
    _ascii_bits(residual, "residual")
    if residual:  # one int() of the whole residual keeps this linear
        acc, nbits = (acc << len(residual)) | int(residual, 2), nbits + len(residual)
    pad = (-nbits) % 8
    return header + (acc << pad).to_bytes((nbits + pad) // 8, "big")


def from_bytes(blob: bytes) -> tuple[TwoPartEncoding, SideInfo]:
    """Inverse of :func:`to_bytes`.

    The body length is checked before any big-integer work: it must hold at
    least the C(n,2) - C(k,2) residual bits, plus k - 1 ordering bits when
    ordered (k! >= 2^(k-1)).  Only then does the header become a
    :class:`SideInfo`, which checks the sizes and the generator id, and
    whose field widths are then computed for sizes the blob can encode.
    """
    if not isinstance(blob, (bytes, bytearray)):
        raise DomainError(f"serialized encoding must be bytes, got {type(blob).__name__}")
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
    body = blob[10 + gid_len + 1 :]
    least_bits = _residual_bits(n, k) + (k - 1 if ordered_byte else 0)
    if 8 * len(body) < least_bits:
        raise DomainError(
            f"serialized encoding body has {8 * len(body)} bits; "
            f"n={n}, k={k} need at least {least_bits}"
        )
    side = SideInfo(n=n, k=k, generator_id=generator_id, ordered=bool(ordered_byte))
    # the body is one integer: subset rank, ordering rank, residual, padding
    subset_bits, order_bits, residual_bits = side.widths()
    pad = 8 * len(body) - (subset_bits + order_bits + residual_bits)
    if pad < 0:
        raise DomainError("truncated bit field in serialized encoding")
    value = int.from_bytes(body, "big")
    if pad >= 8 or value & ((1 << pad) - 1):
        raise DomainError("serialized encoding has nonzero or oversized padding")
    value >>= pad
    mask = (1 << residual_bits) - 1
    residual = format(value & mask, f"0{residual_bits}b") if residual_bits else ""
    value >>= residual_bits
    subset_rank = value >> order_bits
    perm_rank = value & ((1 << order_bits) - 1) if side.ordered else None
    enc = TwoPartEncoding(
        subset_rank=subset_rank, perm_rank=perm_rank, residual=residual
    )
    if not (0 <= subset_rank < comb(n, k)):
        raise DomainError(f"subset rank {subset_rank} out of range [0, C({n},{k}))")
    if side.ordered and not (0 <= perm_rank < factorial(k)):  # type: ignore[operator]
        raise DomainError(f"permutation rank {perm_rank} out of range [0, {k}!)")
    return enc, side
