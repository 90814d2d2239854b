"""Bulk codec kernels: frozen vectors and differential tests.

``golden/codec_vectors.jsonl`` freezes the seed-to-sample mapping: SHA-256
stream words, graph6 text of G(n,p) samples across sizes and probabilities
(float and ``Fraction``), and the canonical bits and ``to_bytes`` blob of a
planted S3 host.  It was recorded from the per-bit implementation; run this
file as a script to print the records the current code produces.

The hypothesis tests compare each whole-row kernel with the per-bit loop it
replaced, kept in ``tests/conftest.py``.
"""

import copy
import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import ceil, comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasketlab import DomainError, LabeledGraph, catalog, encode, gnp_sample, graphs, rng
from gasketlab.experiments import plant_occurrence
from gasketlab.graphs import EdgeBitString, decode, pos
from gasketlab.io import from_graph6, from_json_edges, to_graph6
from gasketlab.rng import WordStream
from gasketlab.twopart import (
    SideInfo,
    TwoPartEncoding,
    decode_two_part,
    encode_two_part,
    from_bytes,
    to_bytes,
)

from conftest import (
    oracle_canonical_flags,
    oracle_decode,
    oracle_decode_two_part,
    oracle_encode,
    oracle_encode_two_part,
    oracle_from_graph6,
    oracle_gnp_sample,
    oracle_plant_occurrence,
    oracle_to_bytes,
    oracle_to_graph6,
    oracle_words,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "codec_vectors.jsonl"

P_VALUES = {
    "0": 0,
    "0.25": 0.25,
    "0.5": 0.5,
    "1": 1,
    "1e-300": 1e-300,
    "1/3": Fraction(1, 3),
}
GNP_SIZES = (0, 1, 2, 17, 62, 63, 64, 130)
DOMAINS = (b"gasketlab", b"gasketlab-gnp", b"gasketlab-diffusion")


def _records():
    for seed in (0, 1, 2**64 - 1):
        for domain in DOMAINS:
            words = WordStream(seed, domain=domain).words(9)
            yield {"kind": "words", "seed": seed, "domain": domain.decode(), "words": words}
    for seed in (0, 12345):
        for n in GNP_SIZES:
            for label, p in P_VALUES.items():
                g6 = to_graph6(gnp_sample(n, p, seed))
                yield {"kind": "gnp", "n": n, "p": label, "seed": seed, "graph6": g6}
    s3 = catalog.named_graph("S3")
    for n, seed in ((15, 3), (40, 4), (130, 5)):
        subset = tuple(sorted(random.Random(seed).sample(range(1, n + 1), s3.n)))
        planted = plant_occurrence(gnp_sample(n, 0.5, seed), s3, subset)
        bits = encode(planted)
        side = SideInfo.for_generator("sierpinski:3", n)
        blob = to_bytes(encode_two_part(bits, subset, side), side)
        yield {
            "kind": "planted",
            "n": n,
            "seed": seed,
            "subset": list(subset),
            "bits": bits.bits,
            "blob": blob.hex(),
        }


def _take(words, count):
    return [next(words) for _ in range(count)]


def test_codec_vectors_match_frozen_golden():
    expected = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    assert list(_records()) == expected


def test_oracle_words_match_the_frozen_stream_words():
    records = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    frozen = [r for r in records if r["kind"] == "words"]
    assert len(frozen) == 9
    for r in frozen:
        assert _take(oracle_words(r["seed"], r["domain"].encode()), 9) == r["words"]


def test_the_fallback_sha256_reproduces_the_frozen_golden():
    """With CPython's built-in SHA-256 module unimportable (``_sha256`` on
    3.11, ``_sha2`` from 3.12), the stream hashes through hashlib.sha256
    and every record stays the same."""
    here = Path(__file__).resolve().parent
    script = (
        "import sys\n"
        "sys.modules['_sha256'] = sys.modules['_sha2'] = None\n"
        "import hashlib, json, test_codec_kernels\n"
        "from gasketlab import rng\n"
        "assert rng._sha256 is hashlib.sha256, rng._sha256\n"
        "for record in test_codec_kernels._records():\n"
        "    sys.stdout.write(json.dumps(record, sort_keys=True) + '\\n')\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == GOLDEN.read_text()


# the message lengths of the three stream domains (prefix + 8-byte block),
# and those around SHA-256's 55/56-byte padding boundary
MESSAGE_LENGTHS = (25, 29, 35, 54, 55, 56, 57, 63, 64, 65)


@given(st.one_of(
    st.sampled_from(MESSAGE_LENGTHS).flatmap(lambda k: st.binary(min_size=k, max_size=k)),
    st.binary(max_size=200),
))
@settings(max_examples=200, deadline=None)
def test_the_stream_sha256_gives_hashlib_digests(message):
    assert rng._digest(rng._sha256(message)) == hashlib.sha256(message).digest()


# --- differential tests against the per-bit oracles ------------------------

seeds = st.integers(0, 2**64 - 1)
probabilities = st.one_of(
    st.floats(0.0, 1.0),
    st.fractions(0, 1, max_denominator=10**6),
    st.sampled_from(list(P_VALUES.values())),
)


@given(seeds, st.lists(st.integers(0, 11), max_size=12), st.binary(max_size=12))
@settings(max_examples=100, deadline=None)
def test_words_interleaved_with_single_words_match_the_oracle_stream(seed, counts, domain):
    """Calls of words, with a one-word draw before every other call, against
    the words the rng docstring's SHA-256 mapping gives."""
    stream = WordStream(seed, domain=domain)
    expected = oracle_words(seed, domain)
    for t, count in enumerate(counts):
        if t % 2:
            assert stream.words(1) == _take(expected, 1)
        assert stream.words(count) == _take(expected, count)
    assert stream.words(1) == _take(expected, 1)
    with pytest.raises(DomainError, match="count"):
        stream.words(-1)


@given(seeds, st.lists(st.tuples(st.integers(0, 2), st.integers(0, 11)), max_size=12), st.binary(max_size=12))
@settings(max_examples=100, deadline=None)
def test_word_bytes_interleaved_with_words_match_the_word_stream(seed, calls, domain):
    """Calls of word_bytes (kind 0), words (1) and one-word draws (2), in any
    mix, against the oracle's words."""
    stream = WordStream(seed, domain=domain)
    oracle = oracle_words(seed, domain)
    for kind, count in calls:
        expected = _take(oracle, count)
        if kind == 0:
            assert stream.word_bytes(count) == b"".join(w.to_bytes(8, "big") for w in expected)
        elif kind == 1:
            assert stream.words(count) == expected
        else:
            assert [stream.words(1)[0] for _ in range(count)] == expected
    assert stream.words(1) == _take(oracle, 1)
    with pytest.raises(DomainError, match="count"):
        stream.word_bytes(-1)


def _cut(p):
    return ceil(Fraction(p) * 2**53) << 11


CUT_EXAMPLES = (0, 1, 2**63 - 1, 2**63, 2**64 - 1, 2**64)
cuts = st.one_of(
    st.sampled_from(CUT_EXAMPLES),
    probabilities.map(_cut),
    st.integers(0, 2**64),
)


def _tie_words(cut):
    """Words sharing cut's first byte, so only the exact comparison decides."""
    head = min(cut, 2**64 - 1) >> 56 << 56
    return st.one_of(
        st.integers(0, 2**56 - 1).map(lambda low: head | low),
        st.integers(-2, 2).map(lambda d: min(max(cut + d, 0), 2**64 - 1)),
    )


@given(cuts, st.data())
@settings(max_examples=300, deadline=None)
def test_below_matches_the_word_comparison(cut, data):
    words = data.draw(st.lists(st.one_of(st.integers(0, 2**64 - 1), _tie_words(cut)), max_size=40))
    raw = b"".join(w.to_bytes(8, "big") for w in words)
    assert graphs._below(raw, cut) == bytes(w < cut for w in words)


def test_below_at_the_edge_probabilities():
    # p = 0, 1/2 and 1, float and Fraction, give cuts 0, 2^63 and 2^64
    for p, cut in ((0.0, 0), (0.5, 2**63), (1.0, 2**64)):
        assert _cut(p) == _cut(Fraction(p)) == cut
        words = [0, 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1, 2**56, 255 << 56]
        raw = b"".join(w.to_bytes(8, "big") for w in words)
        assert graphs._below(raw, cut) == bytes(w < cut for w in words)
    assert graphs._below(b"", 2**63) == graphs._below(b"", 2**64) == b""


@given(st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 60)), st.data())
@settings(max_examples=100, deadline=None)
def test_square_builder_matches_the_oracles(n, data):
    m = comb(n, 2)
    bits = format(data.draw(st.integers(0, 2**m - 1)), f"0{m}b") if m else ""
    g = graphs._from_square(n, graphs._upper_square(n, bits.encode().translate(graphs._FLAGS)))
    assert g == oracle_decode(bits, n)
    assert type(g.adj) is tuple and len(g.adj) == n + 1 and not g.adj[0]
    assert all(type(s) is frozenset for s in g.adj)
    g6 = oracle_to_graph6(g)  # the same graph as graph6 columns: the lower square
    assert from_graph6(g6) == oracle_from_graph6(g6) == g


@given(st.integers(0, 40), probabilities, seeds)
@settings(max_examples=150, deadline=None)
def test_gnp_sample_matches_per_pair_oracle(n, p, seed):
    assert gnp_sample(n, p, seed) == oracle_gnp_sample(n, p, seed)


def test_gnp_threshold_is_exact_at_the_boundary():
    # p one ulp either side of a word's uniform value decides the edge exactly
    u = (next(oracle_words(9, b"gasketlab-gnp")) >> 11) * 2.0**-53
    for p in (u, u + 2.0**-53, Fraction(u), Fraction(u) + Fraction(1, 2**80)):
        assert gnp_sample(2, p, 9) == oracle_gnp_sample(2, p, 9)
    assert gnp_sample(2, u, 9).edge_count == 0
    assert gnp_sample(2, Fraction(u) + Fraction(1, 2**80), 9).edge_count == 1


def test_gnp_threshold_is_strict_on_crafted_words(monkeypatch):
    # word 2^63 is the uniform 0.5 exactly, which is not < 0.5
    half = 1 << 63
    words = [half - 1, half, half + 2047, half - 2048, 0, (1 << 64) - 1]

    class CraftedStream:
        def __init__(self, seed, domain):
            self.left = list(words)

        def word_bytes(self, count):
            out, self.left = self.left[:count], self.left[count:]
            return b"".join(w.to_bytes(8, "big") for w in out)

    monkeypatch.setattr(graphs, "WordStream", CraftedStream)
    g = gnp_sample(4, 0.5, 0)
    assert sorted(g.edges()) == [(1, 2), (2, 3), (2, 4)]
    assert gnp_sample(4, 0, 0).edge_count == 0
    assert gnp_sample(4, 1, 0).edge_count == 6


@given(st.integers(0, 40), seeds)
@settings(max_examples=100, deadline=None)
def test_canonical_and_graph6_codecs_match_oracles(n, seed):
    g = gnp_sample(n, 0.5, seed)
    bits = encode(g)
    assert bits == oracle_encode(g)
    assert decode(bits, n) == oracle_decode(bits.bits, n) == g
    g6 = to_graph6(g)
    assert g6 == oracle_to_graph6(g)
    assert from_graph6(g6) == oracle_from_graph6(g6) == g


@given(st.integers(15, 45), seeds, st.data())
@settings(max_examples=60, deadline=None)
def test_plant_and_two_part_codec_match_oracles(n, seed, data):
    s3 = catalog.named_graph("S3")
    subset = tuple(sorted(data.draw(st.permutations(range(1, n + 1)))[: s3.n]))
    g = gnp_sample(n, 0.5, seed)
    planted = plant_occurrence(g, s3, subset)
    assert planted == oracle_plant_occurrence(g, s3, subset)
    side = SideInfo.for_generator("sierpinski:3", n)
    bits = encode(planted)
    enc = encode_two_part(bits, subset, side)
    assert enc == oracle_encode_two_part(bits, subset, side)
    assert to_bytes(enc, side) == oracle_to_bytes(enc, side)
    assert decode_two_part(enc, side) == oracle_decode_two_part(enc, side) == bits
    assert from_bytes(to_bytes(enc, side)) == (enc, side)


@given(st.integers(4, 20), seeds, st.data())
@settings(max_examples=60, deadline=None)
def test_unordered_two_part_codec_matches_oracles(n, seed, data):
    k = data.draw(st.integers(2, 4))
    subset = tuple(sorted(data.draw(st.permutations(range(1, n + 1)))[:k]))
    side = SideInfo.for_generator(f"complete:{k}", n)
    planted = plant_occurrence(gnp_sample(n, 0.5, seed), LabeledGraph.complete(k), subset)
    bits = encode(planted)
    enc = encode_two_part(bits, subset, side)
    assert enc == oracle_encode_two_part(bits, subset, side)
    assert decode_two_part(enc, side) == oracle_decode_two_part(enc, side) == bits


@given(st.integers(0, 40), probabilities, seeds, st.data())
@settings(max_examples=150, deadline=None)
def test_kept_flags_agree_with_adj_and_the_encoders_with_the_oracles(n, p, seed, data):
    """gnp_sample, decode, from_graph6 and plant_occurrence keep flags equal
    to those of their adjacency, planting into a graph read from graph6
    too; encode and to_graph6 read the same bits off a graph with flags and
    off the same graph without them, and planting a graph without flags
    gives, without flags, the graph its flagged twin gives."""
    sampled = gnp_sample(n, p, seed)
    read = from_graph6(oracle_to_graph6(sampled))
    built = [sampled, decode(oracle_encode(sampled).bits, n), read]
    if n:
        k = data.draw(st.integers(1, min(n, 6)))
        pairs = st.tuples(st.integers(1, k), st.integers(1, k)).filter(lambda e: e[0] != e[1])
        pattern = LabeledGraph.from_edges(k, data.draw(st.lists(pairs, max_size=15)))
        subset = data.draw(st.permutations(range(1, n + 1)))[:k]
        built.append(plant_occurrence(sampled, pattern, subset))
        built.append(plant_occurrence(read, pattern, subset))
        assert built[-1] == built[-2]
        bare_host = LabeledGraph(n, sampled.adj)
        bare_plant = plant_occurrence(bare_host, pattern, subset)
        assert bare_plant._flags is None
        assert bare_plant == built[-1] == oracle_plant_occurrence(bare_host, pattern, subset)
    for g in built:
        assert g._flags == oracle_encode(g).bits.encode().translate(graphs._FLAGS)
        assert graphs._canonical_flags(g) is g._flags  # kept flags are returned first
        bare = LabeledGraph(g.n, g.adj)
        assert bare._flags is None
        assert graphs._canonical_flags(bare) == oracle_canonical_flags(bare)
        for h in (g, bare):
            assert encode(h) == oracle_encode(h)
            assert to_graph6(h) == oracle_to_graph6(h)


FLAGLESS_NAMES = (
    "S1", "S2", "S3", "S5", "S6", "K0", "K1", "K2", "K30",
    "P1", "P2", "P50", "C3", "C40", "E0", "E1", "E2", "E10",
)


def _assert_flags_match_the_per_pair_rule(g):
    assert graphs._canonical_flags(g) == oracle_canonical_flags(g)
    assert encode(g) == oracle_encode(g)
    assert to_graph6(g) == oracle_to_graph6(g)


@pytest.mark.parametrize("name", FLAGLESS_NAMES)
def test_flags_of_named_graphs_match_the_per_pair_rule(name):
    g = catalog.named_graph(name)
    assert g._flags is None
    _assert_flags_match_the_per_pair_rule(g)
    read = from_json_edges(json.dumps({"n": g.n, "edges": [list(e) for e in g.edges()]}))
    assert read._flags is None
    _assert_flags_match_the_per_pair_rule(read)


@given(st.integers(0, 40), st.data())
@settings(max_examples=150, deadline=None)
def test_flags_of_edge_list_graphs_match_the_per_pair_rule(n, data):
    pairs = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] != e[1])
    g = LabeledGraph.from_edges(n, data.draw(st.lists(pairs, max_size=3 * n)) if n else [])
    assert g._flags is None
    _assert_flags_match_the_per_pair_rule(g)


@given(st.integers(0, 40), st.data())
@settings(max_examples=150, deadline=None)
def test_inside_positions_are_pos_minus_one_over_every_pair(n, data):
    k = data.draw(st.integers(0, min(n, 8)))
    occ = tuple(sorted(data.draw(st.permutations(range(1, n + 1)))[:k]))
    expected = [(s, t, pos(occ[s], occ[t], n) - 1) for s in range(k) for t in range(s + 1, k)]
    assert list(graphs._inside_positions(occ, n)) == expected


def test_kept_flags_are_not_seen_by_the_dataclass():
    g = gnp_sample(12, 0.5, 3)
    bare = LabeledGraph(12, g.adj)
    assert g._flags is not None and bare._flags is None
    assert [f.name for f in dataclasses.fields(g)] == ["n", "adj"]
    assert g == bare and hash(g) == hash(bare) and repr(g) == repr(bare)
    assert dataclasses.replace(g) == g and dataclasses.replace(g)._flags is None
    emptied = dataclasses.replace(g, adj=LabeledGraph.empty(12).adj)
    assert emptied._flags is None and encode(emptied).bits == "0" * 66
    assert copy.copy(g)._flags == g._flags
    with pytest.raises(dataclasses.FrozenInstanceError):
        g._flags = bytes(66)


def test_encode_two_part_still_checks_every_inside_bit():
    s3 = catalog.named_graph("S3")
    n = 30
    subset = tuple(range(2, 32, 2))[: s3.n]
    side = SideInfo.for_generator("sierpinski:3", n)
    bits = encode(plant_occurrence(gnp_sample(n, 0.5, 1), s3, subset)).bits
    inside = [(a, b) for t, a in enumerate(subset) for b in subset[t + 1 :]]
    assert len(inside) == comb(s3.n, 2)
    for a, b in inside:
        at = pos(a, b, n) - 1
        flipped = bits[:at] + ("0" if bits[at] == "1" else "1") + bits[at + 1 :]
        with pytest.raises(DomainError, match=f"pair \\({a},{b}\\)"):
            encode_two_part(EdgeBitString(n, flipped), subset, side)


def test_two_part_codec_rejects_residual_characters():
    side = SideInfo.for_generator("complete:2", 3)
    for residual in ("0x", "1_0", " 10"):  # int(text, 2) alone accepts the last two
        enc = TwoPartEncoding(0, None, residual)
        with pytest.raises(DomainError):
            decode_two_part(enc, side)
        with pytest.raises(DomainError, match="residual"):
            to_bytes(enc, side)


# --- hostile input: return or raise DomainError, nothing else -------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 30) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "edges", "x"]), inner, max_size=3),
    max_leaves=12,
)


@given(st.one_of(st.text(max_size=40), st.binary(max_size=40).map(lambda b: b.decode("latin-1"))))
@settings(max_examples=300, deadline=None)
def test_from_graph6_returns_or_raises_domain_error(text):
    try:
        g = from_graph6(text)
    except DomainError:
        return
    assert from_graph6(to_graph6(g)) == g


@given(json_values)
@settings(max_examples=300, deadline=None)
def test_from_json_edges_returns_or_raises_domain_error(value):
    try:
        from_json_edges(json.dumps(value))
    except DomainError:
        pass


@given(
    st.integers(0, 40),
    st.integers(0, 40),
    st.sampled_from(
        ["sierpinski:1", "sierpinski:2", "complete:3", "empty:2", "sierpinski:0", "complete:-1", "x", ""]
    ),
    st.integers(0, 2),
    st.binary(max_size=120),
)
@settings(max_examples=300, deadline=None)
def test_from_bytes_returns_or_raises_domain_error(n, k, gid, ordered, body):
    gid_bytes = gid.encode()
    blob = (
        n.to_bytes(4, "big") + k.to_bytes(4, "big") + len(gid_bytes).to_bytes(2, "big")
        + gid_bytes + bytes([ordered]) + body
    )
    try:
        enc, side = from_bytes(blob)
    except DomainError:
        return
    assert to_bytes(enc, side) == blob


if __name__ == "__main__":
    for record in _records():
        sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
