import math
import os
import random
import subprocess
import sys
import time
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasketlab import DomainError, LabeledGraph, ResourceLimitError, encode, gnp_sample, twopart
from gasketlab.experiments import plant_occurrence
from gasketlab.ranking import PERMUTATION_SIZE_MAX, unrank_permutation
from gasketlab.rng import derive_seed
from gasketlab.sierpinski import build, vertex_count
from gasketlab.twopart import (
    BOUNDS_K_MAX,
    SideInfo,
    TwoPartEncoding,
    asymptotic_bounds,
    compressor_proxy,
    decode_two_part,
    encode_two_part,
    from_bytes,
    gain,
    length_report,
    ordering_index_bits,
    subset_index_bits,
    threshold_exact,
    to_bytes,
)


def make_planted(n: int, level: int, seed: int):
    pattern = build(level).graph
    k = pattern.n
    rng = random.Random(seed)
    subset = tuple(sorted(rng.sample(range(1, n + 1), k)))
    g = plant_occurrence(gnp_sample(n, 0.5, seed), pattern, subset)
    side = SideInfo.for_generator(f"sierpinski:{level}", n)
    return encode(g), subset, side


def test_self_encoding_of_gasket():
    s2 = build(2).graph
    side = SideInfo.for_generator("sierpinski:2", 6)
    enc = encode_two_part(encode(s2), tuple(range(1, 7)), side)
    assert enc.residual == ""
    assert enc.length_bits(side) == 10  # 0 residual + 0 subset + ceil(log2 720)
    assert length_report(6, 6, True).gain == 5


def test_triangle_host_breaks_even():
    side = SideInfo.for_generator("sierpinski:1", 3)
    enc = encode_two_part(encode(LabeledGraph.complete(3)), (1, 2, 3), side)
    assert enc.length_bits(side) == 3 == comb(3, 2)
    assert length_report(3, 3, True).gain == 0


def test_index_costs_refuse_negative_sizes_by_name():
    with pytest.raises(DomainError, match="host size n=-3"):
        length_report(-3, 2, False)
    with pytest.raises(DomainError, match="pattern size k must be >= 0"):
        ordering_index_bits(-2)
    assert ordering_index_bits(0) == 0


def test_gain_values():
    assert gain(7, 6, True) == 2
    assert gain(16, 6, True) == -8
    # C(20,6) = 38760 needs 16 whole bits, so the planted-in-20 case loses 11
    assert gain(20, 6, True) == -11
    assert gain(6, 6, True) == 5


def test_the_ordered_gain_cap_admits_the_largest_gasket():
    k = vertex_count(12)  # S12, the largest gasket a sweep builds
    assert twopart.GAIN_ORDERED_K_MAX == k
    assert gain(k, k, True) < gain(k, k, False)
    with pytest.raises(ResourceLimitError, match=f"^ordered pattern size k={k + 1} exceeds"):
        length_report(k + 1, k + 1, True)
    assert gain(k + 1, k + 1, False) == comb(k + 1, 2)  # unordered needs no k!


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 3000), st.data())
def test_the_gain_index_bound_is_at_least_the_index_width(n, data):
    """The cap's test, j (len(n) - len(j) + 3) with j = min(k, n - k), bounds
    ceil(log2 C(n, k)) from above, so no index within the cap is refused."""
    k = data.draw(st.integers(2, n))
    j = min(k, n - k)
    assert subset_index_bits(n, k) <= j * (n.bit_length() - j.bit_length() + 3)


def test_the_gain_index_cap_edge():
    """C(131072, 65536), about 0.2 s, is at the cap, and C(131074, 65537)
    is refused at once."""
    assert 65536 * (18 - 17 + 3) == twopart.GAIN_INDEX_BITS_MAX < 65537 * (18 - 17 + 3)
    assert gain(131072, 65536, False) == comb(65536, 2) - subset_index_bits(131072, 65536)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=r"^subset index of C\(n, k\) may pass"):
        gain(131074, 65537, False)
    assert time.perf_counter() - start < 0.01
    assert threshold_exact(400, False) is not None  # its binomials stay far below the cap


def test_threshold_exact_values():
    assert threshold_exact(6, True) == 7
    assert threshold_exact(6, False) == 17
    assert threshold_exact(3, True) is None  # ordering cost eats all savings


def _threshold_by_scan(k, ordered):
    """The last n with a positive gain, by an ascending scan from n = k."""
    if gain(k, k, ordered) <= 0:
        return None
    n = k
    while gain(n + 1, k, ordered) > 0:
        n += 1
    return n


def test_threshold_exact_equals_the_scan():
    for k in range(2, 31):
        for ordered in (True, False):
            assert threshold_exact(k, ordered) == _threshold_by_scan(k, ordered), (k, ordered)


def test_threshold_exact_of_s5_returns_within_a_time_bound():
    # a subprocess, so that a scan of about 2^61 host sizes fails at the timeout
    script = (
        "from gasketlab.twopart import gain, threshold_exact\n"
        "n = threshold_exact(123, True)\n"
        "print(n, gain(n, 123, True) > 0 >= gain(n + 1, 123, True))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=10
    )
    assert result.stdout == "2283546579399248946 True\n", result.stderr


def test_asymptotic_bounds_are_finite_up_to_the_largest_float():
    assert asymptotic_bounds(BOUNDS_K_MAX).unordered < float("inf")
    k = BOUNDS_K_MAX + 1
    assert k / (math.e * math.sqrt(2)) * 2.0 ** (k / 2) == float("inf")
    with pytest.raises(DomainError, match="^pattern size k=10{400} makes"):
        asymptotic_bounds(10**400)


def test_gain_monotone_in_n_and_unordered_dominates():
    for k in (3, 6):
        values = [gain(n, k, True) for n in range(k, 40)]
        assert values == sorted(values, reverse=True)
        for n in range(k, 40):
            assert gain(n, k, False) >= gain(n, k, True)


def test_asymptotic_bounds_values():
    assert asymptotic_bounds(15).ordered == 128.0
    assert asymptotic_bounds(3).ordered == 2.0
    assert abs(asymptotic_bounds(6).ordered_log_slack - 2 ** (30 / 14)) < 1e-12
    assert asymptotic_bounds(6).unordered == pytest.approx(6 * 2**3 / (2.718281828459045 * 2**0.5), rel=1e-9)


def test_encode_rejects_non_occurrence():
    side = SideInfo.for_generator("sierpinski:2", 8)
    bits = encode(LabeledGraph.empty(8))  # an edgeless subset never induces a gasket
    with pytest.raises(DomainError, match="occurrence"):
        encode_two_part(bits, (1, 2, 3, 4, 5, 6), side)


def test_decode_rejects_malformed_ranks():
    side = SideInfo.for_generator("sierpinski:1", 4)
    residual = "0" * (comb(4, 2) - comb(3, 2))
    with pytest.raises(DomainError, match="subset rank"):
        decode_two_part(TwoPartEncoding(comb(4, 3), 0, residual), side)
    with pytest.raises(DomainError, match="permutation rank"):
        decode_two_part(TwoPartEncoding(0, 6, residual), side)
    with pytest.raises(DomainError, match="residual"):
        decode_two_part(TwoPartEncoding(0, 0, "0"), side)


@pytest.mark.parametrize("case", range(40))
def test_planted_roundtrips_bit_exact(case):
    rng = random.Random(case)
    level = rng.choice([1, 2])
    n = rng.randint(vertex_count(level), 64)
    bits, subset, side = make_planted(n, level, derive_seed(17, "roundtrip", case))
    enc = encode_two_part(bits, subset, side)
    assert decode_two_part(enc, side) == bits
    assert enc.length_bits(side) == length_report(n, side.k, True).encoded_bits


def test_unordered_variant_roundtrips():
    side = SideInfo.for_generator("complete:4", 10)
    assert not side.ordered
    g = plant_occurrence(gnp_sample(10, 0.5, 9), LabeledGraph.complete(4), (2, 3, 7, 9))
    enc = encode_two_part(encode(g), (2, 3, 7, 9), side)
    assert enc.perm_rank is None
    assert decode_two_part(enc, side) == encode(g)
    assert enc.length_bits(side) == comb(10, 2) - gain(10, 4, False)


@pytest.mark.parametrize(
    "generator_id", ["complete:1000", "empty:21", "sierpinski:4", "sierpinski:12"]
)
def test_for_generator_rejects_a_pattern_larger_than_n_before_building_it(
    generator_id, monkeypatch
):
    def refuse(_):
        raise AssertionError("the pattern was built")

    monkeypatch.setattr(twopart, "generator_graph", refuse)
    with pytest.raises(DomainError, match="n=20"):
        SideInfo.for_generator(generator_id, 20)


def test_for_generator_accepts_a_pattern_of_exactly_n_vertices():
    assert SideInfo.for_generator("complete:20", 20).k == 20
    assert SideInfo.for_generator("empty:20", 20).k == 20


def test_generator_ids_past_the_caps_are_refused_without_repeating_them():
    with pytest.raises(ResourceLimitError, match="^gasket level of 5000 digits exceeds"):
        SideInfo.for_generator("sierpinski:" + "9" * 5000, 20)
    with pytest.raises(DomainError, match="^pattern size of 5000 digits of complete exceeds"):
        SideInfo.for_generator("complete:" + "9" * 5000, 20)
    with pytest.raises(DomainError, match="^generator id must be") as info:
        SideInfo.for_generator("complete:" + "9" * 5000 + "x", 20)
    assert len(str(info.value)) < 200


def test_to_bytes_refuses_fields_the_side_info_does_not_hold():
    side = SideInfo.for_generator("complete:2", 3)  # 2 subset bits, 2 residual bits
    with pytest.raises(DomainError, match="residual must have C\\(n,2\\)-C\\(k,2\\)=2 bits"):
        to_bytes(TwoPartEncoding(0, None, "0"), side)
    with pytest.raises(DomainError, match="must not carry a permutation rank"):
        to_bytes(TwoPartEncoding(0, 5, "00"), side)
    blob = to_bytes(TwoPartEncoding(2, None, "10"), side)
    assert from_bytes(blob) == (TwoPartEncoding(2, None, "10"), side)


def test_a_generator_id_with_leading_zeros_is_kept_as_given():
    # "complete:0002" names K2, as "complete:2" does; the header keeps the
    # id as written, so blobs written with it read back unchanged
    side = SideInfo.for_generator("complete:0002", 3)
    assert side.pattern() == SideInfo.for_generator("complete:2", 3).pattern()
    bits = encode(LabeledGraph.from_edges(3, [(1, 2), (2, 3)]))
    enc = encode_two_part(bits, (1, 2), side)
    blob = to_bytes(enc, side)
    assert blob[8:23] == (13).to_bytes(2, "big") + b"complete:0002"
    assert from_bytes(blob) == (enc, side)
    assert decode_two_part(enc, side) == bits


def test_serialization_byte_exact_golden():
    bits, subset, side = make_planted(12, 1, 31)
    enc = encode_two_part(bits, subset, side)
    blob = to_bytes(enc, side)
    # header: n=12 | k=3 | len("sierpinski:1")=12 | id | ordered=1
    assert blob[:4] == (12).to_bytes(4, "big")
    assert blob[4:8] == (3).to_bytes(4, "big")
    assert blob[8:10] == (12).to_bytes(2, "big")
    assert blob[10:22] == b"sierpinski:1"
    assert blob[22] == 1
    back_enc, back_side = from_bytes(blob)
    assert back_enc == enc and back_side == side
    assert decode_two_part(back_enc, back_side) == bits


def test_serialization_rejects_bad_padding():
    bits, subset, side = make_planted(10, 1, 7)
    blob = bytearray(to_bytes(encode_two_part(bits, subset, side), side))
    blob[-1] |= 1  # pollute the zero padding
    with pytest.raises(DomainError, match="padding"):
        from_bytes(bytes(blob))


def test_serialization_rejects_a_whole_byte_of_padding():
    bits, subset, side = make_planted(10, 1, 7)
    blob = to_bytes(encode_two_part(bits, subset, side), side) + b"\x00"
    with pytest.raises(DomainError, match="oversized padding"):
        from_bytes(blob)


@given(st.integers(0, 2**32), st.integers(6, 30))
@settings(max_examples=40, deadline=None)
def test_roundtrip_property(seed, n):
    bits, subset, side = make_planted(n, 2 if n >= 6 else 1, seed)
    enc = encode_two_part(bits, subset, side)
    assert decode_two_part(enc, side) == bits
    again, side_again = from_bytes(to_bytes(enc, side))
    assert (again, side_again) == (enc, side)


def test_compressor_proxy_is_informational_only():
    flat = encode(LabeledGraph.empty(64))
    noisy = encode(gnp_sample(64, 0.5, 1))
    assert compressor_proxy(flat) < comb(64, 2) / 4  # maximally regular input
    assert compressor_proxy(noisy) > compressor_proxy(flat)
    gasket_bits = encode(build(6).graph)
    assert compressor_proxy(gasket_bits) < len(gasket_bits.bits)


def _header(n: int, k: int, gid: bytes, ordered: int) -> bytes:
    sizes = n.to_bytes(4, "big") + k.to_bytes(4, "big") + len(gid).to_bytes(2, "big")
    return sizes + gid + bytes([ordered])


HOSTILE_BLOBS = {
    # n = 2^32 - 1, k = 2^31: C(n, k) is far too large to compute
    "huge_sizes": _header(2**32 - 1, 2**31, b"", 1) + bytes(11),
    # residual 0, but k! would be astronomically large
    "huge_ordering": _header(2**31, 2**31, b"", 1) + bytes(8),
    "non_utf8_id": _header(12, 3, b"\xff\xfe", 1) + bytes(8),
    # 30 bytes whose header declares k=15 for the 265,722-vertex level-12 gasket
    "sierpinski_level_mismatch": _header(15, 15, b"sierpinski:12", 1) + bytes(6),
    # a level whose vertex count would be a 4000-digit number
    "huge_sierpinski_level": _header(15, 15, b"sierpinski:9" + b"9" * 4000, 1) + bytes(6),
    # unordered, so no body: k is the level-20 count, the id says level 25
    "level_past_the_clamp": _header(vertex_count(20), vertex_count(20), b"sierpinski:25", 0),
    # k - 1 ordering bits are there, but an ordered k past the cap is not unranked
    "ordered_past_the_permutation_cap": _header(10_001, 10_001, b"complete:10001", 1)
    + bytes(1250),
}
HOSTILE_MESSAGES = {
    "non_utf8_id": "UTF-8",
    "sierpinski_level_mismatch": "does not produce k=15",
    "huge_sierpinski_level": "gasket level of 4001 digits exceeds the configured maximum 12",
    "level_past_the_clamp": "gasket level 25 exceeds the configured maximum 12",
    "ordered_past_the_permutation_cap": "k=10001 exceeds the cap PERMUTATION_SIZE_MAX = 10000",
}


@pytest.mark.parametrize("name", sorted(HOSTILE_BLOBS))
def test_from_bytes_rejects_hostile_header_quickly(name):
    # a subprocess, so that a hang fails the test at the timeout
    script = (
        "import sys\n"
        "from gasketlab import DomainError\n"
        "from gasketlab.twopart import from_bytes\n"
        "try:\n"
        f"    from_bytes({HOSTILE_BLOBS[name]!r})\n"
        "except DomainError as exc:\n"
        "    print(exc)\n"
        "    sys.exit(0)\n"
        "sys.exit(3)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=10
    )
    assert result.returncode == 0, result.stderr
    assert HOSTILE_MESSAGES.get(name, "need at least") in result.stdout


def test_the_codec_refuses_the_ordered_sizes_the_decoder_cannot_unrank():
    cap = PERMUTATION_SIZE_MAX
    assert vertex_count(9) <= cap  # every blob of a sierpinski:9 occurrence decodes
    # at the cap, the side info, both serializers and the unranking work
    side = SideInfo.for_generator(f"complete:{cap}", cap, ordered=True)
    last = TwoPartEncoding(subset_rank=0, perm_rank=factorial(cap) - 1, residual="")
    assert from_bytes(to_bytes(last, side)) == (last, side)
    assert unrank_permutation(last.perm_rank, cap) == tuple(range(cap, 0, -1))
    # one past it, the encoder's side info, the decoder's and the blob reader
    # all refuse, and so does the unranking
    refusal = f"k={cap + 1} exceeds the cap PERMUTATION_SIZE_MAX = {cap}$"
    with pytest.raises(ResourceLimitError, match=refusal):
        SideInfo.for_generator(f"complete:{cap + 1}", cap + 1, ordered=True)
    with pytest.raises(ResourceLimitError, match=refusal):
        SideInfo(n=cap + 1, k=cap + 1, generator_id=f"complete:{cap + 1}", ordered=True)
    body = bytes(-(-ordering_index_bits(cap + 1) // 8))  # a full-width ordering rank
    with pytest.raises(ResourceLimitError, match=refusal):
        from_bytes(_header(cap + 1, cap + 1, f"complete:{cap + 1}".encode(), 1) + body)
    with pytest.raises(ResourceLimitError, match=refusal):
        unrank_permutation(0, cap + 1)
    # a gasket past the cap is refused as ordered side info; unordered, it
    # has no ordering rank to unrank and is taken
    n10 = vertex_count(10)
    with pytest.raises(ResourceLimitError, match=f"k={n10} exceeds the cap"):
        SideInfo.for_generator("sierpinski:10", n10)
    assert SideInfo.for_generator("sierpinski:10", n10, ordered=False).widths() == (0, 0, 0)
