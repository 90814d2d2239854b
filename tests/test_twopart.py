import os
import random
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasketlab import DomainError, LabeledGraph, encode, gnp_sample
from gasketlab.experiments import plant_occurrence
from gasketlab.rng import derive_seed
from gasketlab.sierpinski import build, vertex_count
from gasketlab.twopart import (
    SideInfo,
    TwoPartEncoding,
    asymptotic_bounds,
    compressor_proxy,
    decode_two_part,
    encode_two_part,
    from_bytes,
    gain,
    length_report,
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


def test_gain_values():
    assert gain(7, 6, True) == 2
    assert gain(16, 6, True) == -8
    # C(20,6) = 38760 needs 16 whole bits, so the planted-in-20 case loses 11
    assert gain(20, 6, True) == -11
    assert gain(6, 6, True) == 5


def test_threshold_exact_values():
    assert threshold_exact(6, True) == 7
    assert threshold_exact(6, False) == 17
    assert threshold_exact(3, True) is None  # ordering cost eats all savings


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
    expected = "UTF-8" if name == "non_utf8_id" else "need at least"
    assert expected in result.stdout
