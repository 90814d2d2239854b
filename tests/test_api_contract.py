"""Every public entry point returns or raises DomainError: one row per
argument that once escaped as a TypeError, ValueError, AttributeError or
RecursionError, or was silently taken as some other value (a bool as 0/1, a
float truncated or carried through the arithmetic).

Integer arguments all go through ``errors.check_int``, real ones through
``errors.check_real``, the graphs of the graph-operation, search,
isomorphism, close-knit and codec entry points through
``graphs.check_graph``, the text or bytes of the codecs
through one ``isinstance`` check each, and the graph, game and config of the
diffusion entry points, the bit strings, encodings and side infos of the
two-part codec, a graph name, a gasket and a word stream's domain through
``errors.check_instance``, and the subset, group and permutation arguments
through ``errors.check_iterable``.  ``rng.uniform_cut`` refuses a NaN or an
infinity, ``gnp_sample`` an n over ``GNP_VERTEX_MAX``, the graph
constructors an n (and ``complete`` a pair count) over ``GRAPH_SIZE_MAX``
before any neighbour set is made, a word stream a
draw over ``WORDS_PER_DRAW_MAX`` words before they hash, and the gasket
counts a level over ``COUNT_LEVEL_MAX`` before any power of 3, the
two-part gain an ordered k over ``GAIN_ORDERED_K_MAX`` before any factorial
and an (n, k) whose subset index may pass ``GAIN_INDEX_BITS_MAX`` bits
before any binomial, and ``diffusion.run`` a horizon over
``TRACE_REVISIONS_MAX`` before any word is drawn.
``table_to_csv`` names the row or key of a missing column, a key that is
not a str or a metadata value JSON cannot write.
A message shows a caller's value through ``errors.shown``, so an integer
of more digits than CPython prints (the rows "of 5000 digits") is named by
its bit length, and a Fraction that holds one by its type.
A float bound that would pass the largest float raises DomainError naming
the pattern size.  The boundary rows check that the shared checks still
take what they should (seeds 0 and 2^64 - 1, objects with ``__index__``,
the largest group size, ``limit=1``).
"""

import faulthandler
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasketlab import DomainError, LabeledGraph, ResourceLimitError
from gasketlab.catalog import named_graph
from gasketlab.closeknit import GROUP_SIZE_MAX, family_scan, is_rk_closeknit, min_ratio
from gasketlab.diffusion import (
    CoordinationGame,
    DiffusionConfig,
    hitting_time_stats,
    risk_threshold,
    run,
)
from gasketlab.errors import check_int, check_real
from gasketlab.graphs import (
    GNP_VERTEX_MAX,
    GRAPH_SIZE_MAX,
    EdgeBitString,
    as_subset,
    connected_components,
    decode,
    disjoint_union,
    encode,
    gnp_sample,
    induced_subgraph,
    is_ordered_occurrence,
    pair_at,
    pos,
)
from gasketlab.io import (
    JSON_VERTEX_MAX, from_graph6, from_json_edges, to_dot, to_graph6, to_json_edges,
)
from gasketlab.isomorphism import automorphism_count, find_isomorphism, is_isomorphic
from gasketlab.ramsey import (
    bounds_report,
    construct_union,
    find_induced_occurrences,
    has_mono_induced,
    induced_ramsey_oracle,
    is_host,
    poly_exp_crossover_level,
    split_union,
)
from gasketlab.experiments import (
    closeknit_diffusion_link, expected_occurrences, plant_occurrence, table_to_csv,
    threshold_sweep,
)
from gasketlab.ranking import (
    ceil_log2,
    rank_permutation,
    rank_subset,
    unrank_permutation,
    unrank_subset,
)
from gasketlab.rng import WORDS_PER_DRAW_MAX, WordStream, derive_seed, uniform_cut
from gasketlab.sierpinski import (
    MAX_LEVEL_DEFAULT,
    build,
    corners,
    edge_count,
    elementary_triangles,
    subgaskets,
    vertex_count,
)
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

K3 = LabeledGraph.complete(3)
S2 = build(2)
GAME = CoordinationGame(2, 1, 0, 0)
HALF = Fraction(1, 2)
SIDE = SideInfo.for_generator("complete:2", 3)
ENC = TwoPartEncoding(0, None, "11")
BITS = EdgeBitString(3, "111")
HUGE = 10**5000  # 5001 digits, past the 4300 CPython turns into text by default
TOO_BIG = Fraction(HUGE, 3)


class Index:
    """An integer by ``__index__`` only, as numpy integers are."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


ESCAPES = {
    "config epsilon text": (lambda: DiffusionConfig(epsilon="x"), "epsilon"),
    "config epsilon bool": (lambda: DiffusionConfig(epsilon=False), "epsilon"),
    "run horizon float": (lambda: run(K3, GAME, DiffusionConfig(horizon=1.5)), "horizon"),
    "config seed bool": (lambda: DiffusionConfig(seed=False), "seed"),
    "config init_adopters int": (lambda: DiffusionConfig(init_adopters=3), "init_adopters"),
    "config init_adopters bool": (
        lambda: DiffusionConfig(init_adopters=(True, 2)), "init_adopters"),
    "stats trials float": (
        lambda: hitting_time_stats(K3, GAME, DiffusionConfig(), trials=2.5), "trials"),
    "stats adoption_fraction text": (
        lambda: hitting_time_stats(K3, GAME, DiffusionConfig(), 1, adoption_fraction="x"),
        "adoption_fraction"),
    "game payoff text": (lambda: CoordinationGame("x", 1, 0, 0), "payoff a"),
    "occurrences limit float": (lambda: find_induced_occurrences(K3, K3, limit=2.5), "limit"),
    "word stream seed bool": (lambda: WordStream(True), "seed"),
    "word_bytes count float": (lambda: WordStream(0).word_bytes(1.5), "word count"),
    "word_bytes count past the cap": (
        lambda: WordStream(0).word_bytes(10**10),
        "^draw of 10000000000 words exceeds the cap WORDS_PER_DRAW_MAX = 8388608$"),
    "word stream domain text": (
        lambda: WordStream(1, domain="abc"), "^domain must be a bytes, got str"),
    "uniform_cut text": (lambda: uniform_cut("x"), "^probability must be a real number"),
    "uniform_cut nan": (lambda: uniform_cut(float("nan")), "^probability must be finite"),
    "uniform_cut inf": (lambda: uniform_cut(float("inf")), "^probability must be finite"),
    "derive_seed master bool": (lambda: derive_seed(True, "x"), "seed"),
    "cert k bool": (lambda: is_rk_closeknit(K3, HALF, True), "k must be an integer"),
    "cert groups_cap float": (lambda: is_rk_closeknit(K3, HALF, 3, groups_cap=2.5), "groups_cap"),
    "cert r bool": (lambda: is_rk_closeknit(S2.graph, True, 3), "^ratio bound r must be a real"),
    "cert r text": (lambda: is_rk_closeknit(S2.graph, "1/2", 3), "^ratio bound r must be a real"),
    "scan r bool": (lambda: family_scan({1: S2.graph}, True), "^ratio bound r must be a real"),
    "scan r text": (lambda: family_scan({}, "1/2"), "^ratio bound r must be a real"),
    "cert graph text": (lambda: is_rk_closeknit("x", HALF, 3), "^graph must be a LabeledGraph"),
    "ratio graph text": (lambda: min_ratio("x", (1,)), "^graph must be a LabeledGraph, got str"),
    "ratio group none": (lambda: min_ratio(K3, None), "^group must be iterable, got NoneType"),
    "ratio group int": (lambda: min_ratio(K3, 5), "^group must be iterable, got int"),
    "scan graphs text": (lambda: family_scan("x", HALF), "^graphs must be a dict"),
    "scan graphs list": (lambda: family_scan([S2.graph], HALF), "^graphs must be a dict"),
    "scan graph value text": (
        lambda: family_scan({1: S2.graph, 2: "x"}, HALF), r"^graphs\[2\] must be a LabeledGraph"),
    "run graph text": (lambda: run("x", GAME, DiffusionConfig()), "^graph must be a LabeledGraph"),
    "run game text": (lambda: run(K3, "x", DiffusionConfig()), "^game must be a CoordinationGame"),
    "run config dict": (lambda: run(K3, GAME, {}), "^config must be a DiffusionConfig, got dict"),
    "stats graph text": (
        lambda: hitting_time_stats("x", GAME, DiffusionConfig(), 1), "^graph must be a"),
    "stats game none": (
        lambda: hitting_time_stats(K3, None, DiffusionConfig(), 1), "^game must be a"),
    "stats config none": (lambda: hitting_time_stats(K3, GAME, None, 1), "^config must be a"),
    "host max_edges float": (lambda: is_host(K3, K3, max_edges=2.5), "max_edges"),
    "split max_edges text": (lambda: split_union(K3, K3, max_edges="x"), "max_edges"),
    "bounds c text": (lambda: bounds_report(K3, "x", 3), "c must"),
    "bounds c_d bool": (lambda: bounds_report(K3, 1, True), "c_d"),
    "subset bool label": (lambda: as_subset((True, 2), 3), "subset label True"),
    "subset none": (lambda: as_subset(None, 3), "^subset must be iterable, got NoneType"),
    "from_edges bool label": (lambda: LabeledGraph.from_edges(3, [(True, 2)]), "integer labels"),
    "from_edges n float": (lambda: LabeledGraph.from_edges(2.5, []), "vertex count"),
    "complete n float": (lambda: LabeledGraph.complete(2.5), "vertex count"),
    "from_edges n past the cap": (
        lambda: LabeledGraph.from_edges(10**9, []),
        "^graph of n=1000000000 vertices exceeds the cap GRAPH_SIZE_MAX = 1048576$"),
    "empty n past the cap": (
        lambda: LabeledGraph.empty(GRAPH_SIZE_MAX + 1),
        f"^graph of n={GRAPH_SIZE_MAX + 1} vertices exceeds the cap GRAPH_SIZE_MAX"),
    "complete pairs past the cap": (
        lambda: LabeledGraph.complete(10**5),
        "^complete graph on n=100000 vertices has more than GRAPH_SIZE_MAX = 1048576 pairs$"),
    "gnp p bool": (lambda: gnp_sample(3, True, 0), "edge probability"),
    "gnp n past the cap": (
        lambda: gnp_sample(GNP_VERTEX_MAX + 1, 0.5, 0),
        f"^G\\(n, p\\) sample of n={GNP_VERTEX_MAX + 1} vertices exceeds the cap GNP_VERTEX_MAX"),
    "pos i float": (lambda: pos(1.5, 2, 3), "i must"),
    "pair_at position float": (lambda: pair_at(1.5, 3), "position"),
    "unrank_subset rank float": (lambda: unrank_subset(1.5, 5, 2), "subset rank"),
    "unrank_subset k negative": (lambda: unrank_subset(0, 5, -1), "subset size k"),
    "unrank_permutation k negative": (lambda: unrank_permutation(0, -1), "permutation size k"),
    "ceil_log2 float": (lambda: ceil_log2(1.5), "ceil_log2"),
    "rank_subset bool member": (lambda: rank_subset((True, 2), 3), "subset member"),
    "rank_subset float member": (lambda: rank_subset((1.5,), 3), "subset member"),
    "rank_subset text members": (lambda: rank_subset("ab", 3), "subset member"),
    "rank_permutation float members": (
        lambda: rank_permutation((1.0, 2.0)), "permutation member"),
    "rank_subset members none": (
        lambda: rank_subset(None, 3), "^subset must be iterable, got NoneType"),
    "rank_permutation none": (
        lambda: rank_permutation(None), "^permutation must be iterable, got NoneType"),
    "sweep host size float": (lambda: threshold_sweep([1], [2.5], 1, 0), "host size n"),
    "sweep trials text": (lambda: threshold_sweep([1], [2], "x", 0), "trials"),
    "sweep seed text": (lambda: threshold_sweep([1], [2], 1, "s"), "seed"),
    "sweep trials zero": (lambda: threshold_sweep([1], [2], 0, -5), "trials must be >= 1"),
    "sweep seed negative": (lambda: threshold_sweep([1], [2], 1, -5), "seed must be in"),
    "link level past the cap after a valid one": (
        lambda: closeknit_diffusion_link([12, 13], GAME, DiffusionConfig(), 1),
        "^gasket level 13 exceeds the configured maximum 12"),
    "coloring key text label": (
        lambda: has_mono_induced(K3, {("1", 2): "red", (1, 3): "red", (2, 3): "red"}, K3),
        r"coloring key \('1', 2\) must be a pair of vertex labels"),
    "coloring key triple": (
        lambda: has_mono_induced(K3, {(1, 2, 3): "red"}, K3),
        r"coloring key \(1, 2, 3\) must be a pair of vertex labels"),
    "bit string n negative": (lambda: EdgeBitString(-1, ""), "vertex count must be >= 0"),
    "bit string n float": (lambda: EdgeBitString(2.5, "0"), "vertex count must be an integer"),
    "bit string n bool": (lambda: EdgeBitString(True, ""), "vertex count must be an integer"),
    "degree vertex float": (lambda: K3.degree(1.5), "vertex"),
    "degree vertex bool": (lambda: K3.degree(True), "vertex"),
    "has_edge vertex float": (lambda: K3.has_edge(1.5, 2), "vertex"),
    "neighbors vertex text": (lambda: K3.neighbors("1"), "vertex"),
    "build level float": (lambda: build(2.5), "gasket level"),
    "subgaskets level float": (lambda: subgaskets(S2, 1.5), "sub-gasket level"),
    "vertex_count text": (lambda: vertex_count("3"), "gasket level"),
    "vertex_count level past the cap": (
        lambda: vertex_count(2**70), f"^gasket level {2**70} exceeds the cap COUNT_LEVEL_MAX"),
    "edge_count level past the cap": (
        lambda: edge_count(2**70), f"^gasket level {2**70} exceeds the cap COUNT_LEVEL_MAX"),
    "risk_threshold game text": (
        lambda: risk_threshold("x"), "^game must be a CoordinationGame, got str"),
    "side info n float": (lambda: SideInfo.for_generator("complete:2", 2.5), "host size n"),
    "side info n bool": (lambda: SideInfo.for_generator("complete:2", True), "host size n"),
    "side info n text": (lambda: SideInfo.for_generator("complete:2", "5"), "host size n"),
    "side info n past u32": (lambda: SideInfo(2**32, 2, "complete:2", False), "host size n"),
    "side info k zero": (lambda: SideInfo.for_generator("empty:0", 5), "pattern size k"),
    "generator id space": (lambda: SideInfo.for_generator("complete: 2", 5), "generator id"),
    "generator id sign": (lambda: SideInfo.for_generator("complete:+2", 5), "generator id"),
    "generator id underscore": (
        lambda: SideInfo.for_generator("complete:2_0", 25), "generator id"),
    "side info ordered text": (lambda: SideInfo(5, 2, "complete:2", "yes"), "ordered"),
    "side info id past u16": (
        lambda: SideInfo(20, 4, "complete:" + "0" * 70000 + "3", False),
        "^generator id of 70010 characters is too long to serialize$"),
    "side info id k mismatch": (
        lambda: SideInfo(20, 4, "complete:" + "0" * 60000 + "3", False),
        r"^generator 'complete:0{50} does not produce k=4 vertices$"),
    "occurrences host text": (lambda: find_induced_occurrences("x", K3), "host graph must be a"),
    "occurrences pattern list": (
        lambda: find_induced_occurrences(K3, [[1, 2]]), "pattern must be a LabeledGraph, got list"),
    "mono host text": (lambda: has_mono_induced("x", {}, K3), "host graph"),
    "mono pattern none": (lambda: has_mono_induced(K3, {}, None), "pattern"),
    "host host text": (lambda: is_host("x", K3), "host graph"),
    "host pattern dict": (lambda: is_host(K3, {}), "pattern must be a LabeledGraph, got dict"),
    "oracle pattern text": (lambda: induced_ramsey_oracle("K3", [K3]), "pattern"),
    "oracle host text": (lambda: induced_ramsey_oracle(K3, ["K6"]), "host graph"),
    "union g1 text": (lambda: construct_union("x", K3), "g1 must be a LabeledGraph"),
    "union g2 none": (lambda: construct_union(K3, None), "g2 must be a LabeledGraph"),
    "split host text": (lambda: split_union("x", K3), "host graph"),
    "split pattern text": (lambda: split_union(K3, "K3"), "pattern"),
    "bounds pattern text": (lambda: bounds_report("S2", 1, 3), "pattern must be a LabeledGraph"),
    "encode graph text": (lambda: encode("x"), "^graph must be a LabeledGraph, got str"),
    "decode bits int": (lambda: decode(0, 1), "^bits must be an EdgeBitString or a str, got int"),
    "to_graph6 graph text": (lambda: to_graph6("x"), "^graph must be a LabeledGraph, got str"),
    "from_graph6 text int": (lambda: from_graph6(0), "^graph6 text must be a str, got int"),
    "to_json_edges graph text": (lambda: to_json_edges("x"), "^graph must be a LabeledGraph"),
    "from_json_edges text int": (
        lambda: from_json_edges(0), "^JSON edge list text must be a str or bytes, got int"),
    "to_dot graph text": (lambda: to_dot("x"), "^graph must be a LabeledGraph, got str"),
    "plant graph text": (lambda: plant_occurrence("x", K3, (1, 2, 3)), "^graph must be a"),
    "plant pattern text": (
        lambda: plant_occurrence(K3, "K3", (1, 2, 3)), "^pattern must be a LabeledGraph"),
    "from_bytes blob int": (lambda: from_bytes(0), "^serialized encoding must be bytes, got int"),
    "induced_subgraph graph text": (
        lambda: induced_subgraph("x", (1,)), "^graph must be a LabeledGraph, got str"),
    "components graph text": (
        lambda: connected_components("x"), "^graph must be a LabeledGraph, got str"),
    "disjoint_union g1 text": (lambda: disjoint_union("x", K3), "^g1 must be a LabeledGraph"),
    "disjoint_union g2 text": (lambda: disjoint_union(K3, "x"), "^g2 must be a LabeledGraph"),
    "ordered occurrence graph text": (
        lambda: is_ordered_occurrence("x", (1, 2, 3), K3), "^graph must be a LabeledGraph"),
    "ordered occurrence pattern text": (
        lambda: is_ordered_occurrence(K3, (1, 2, 3), "x"), "^pattern must be a LabeledGraph"),
    "expected_occurrences pattern text": (
        lambda: expected_occurrences(5, "x"), "^pattern must be a LabeledGraph, got str"),
    "find_isomorphism a text": (lambda: find_isomorphism("x", K3), "^graph a must be a"),
    "find_isomorphism b text": (lambda: find_isomorphism(K3, "x"), "^graph b must be a"),
    "is_isomorphic a text": (lambda: is_isomorphic("x", K3), "^graph a must be a LabeledGraph"),
    "automorphism_count graph text": (
        lambda: automorphism_count("x"), "^graph must be a LabeledGraph, got str"),
    "encode_two_part bits text": (
        lambda: encode_two_part("x", (1, 2), SIDE), "^bits must be an EdgeBitString, got str"),
    "encode_two_part side text": (
        lambda: encode_two_part(BITS, (1, 2), "x"), "^side must be a SideInfo, got str"),
    "decode_two_part encoding text": (
        lambda: decode_two_part("x", SIDE), "^encoding must be a TwoPartEncoding, got str"),
    "decode_two_part side text": (
        lambda: decode_two_part(ENC, "x"), "^side must be a SideInfo, got str"),
    "to_bytes encoding text": (
        lambda: to_bytes("x", SIDE), "^encoding must be a TwoPartEncoding, got str"),
    "to_bytes side text": (lambda: to_bytes(ENC, "x"), "^side must be a SideInfo, got str"),
    "length_bits side text": (lambda: ENC.length_bits("x"), "^side must be a SideInfo, got str"),
    "compressor_proxy bits text": (
        lambda: compressor_proxy("x"), "^bits must be an EdgeBitString, got str"),
    "bit string bits bytes": (lambda: EdgeBitString(3, b"010"), "^bits must be a str, got bytes"),
    "bit string bits none": (lambda: EdgeBitString(3, None), "^bits must be a str, got NoneType"),
    "named_graph name int": (lambda: named_graph(0), "^graph name must be a str, got int"),
    "elementary_triangles gasket text": (
        lambda: elementary_triangles("x"), "^gasket must be a SierpinskiGraph, got str"),
    "subgaskets gasket text": (
        lambda: subgaskets("x", 1), "^gasket must be a SierpinskiGraph, got str"),
    "corners gasket text": (lambda: corners("x"), "^gasket must be a SierpinskiGraph, got str"),
    "asymptotic_bounds k past the float range": (
        lambda: asymptotic_bounds(2030), r"^pattern size k=2030 makes its break-even bounds"),
    "bounds k past the float range": (
        lambda: bounds_report(LabeledGraph.empty(2049), 1, 3),
        r"^pattern size k=2049 makes 2\^\(\(k-1\)/2\) too large for a float$"),
    "table_to_csv rows text": (lambda: table_to_csv("x", "x"), "^rows must be a list, got str"),
    "table_to_csv row int": (
        lambda: table_to_csv([1], {}), "^each row must be a dict, got int"),
    "table_to_csv none": (lambda: table_to_csv(None, None), "^rows must be a list, got NoneType"),
    "table_to_csv metadata list": (
        lambda: table_to_csv([], []), "^metadata must be a dict, got list"),
    "table_to_csv row without a column": (
        lambda: table_to_csv([{"a": 1}, {"b": 2}], {}), "^row 1 has no value for column 'a'$"),
    "table_to_csv column key int": (
        lambda: table_to_csv([{1: 2}], {}), "^column key 1 must be a str, got int$"),
    "table_to_csv metadata keys mixed": (
        lambda: table_to_csv([], {1: 2, "a": 3}), "^metadata key 1 must be a str, got int$"),
    "table_to_csv metadata value not json": (
        lambda: table_to_csv([], {"a": object()}), "^metadata value of 'a' is not JSON"),
    "crossover c_d none": (
        lambda: poly_exp_crossover_level(None), "^c_d must be a real number, got None"),
    "unrank_permutation k past u64": (
        lambda: unrank_permutation(0, 2**70),
        f"^permutation size k={2**70} exceeds the cap PERMUTATION_SIZE_MAX = 10000"),
    "unrank_permutation k a million": (
        lambda: unrank_permutation(0, 10**6), "^permutation size k=1000000 exceeds the cap"),
    "ordered side info k past the permutation cap": (
        lambda: SideInfo.for_generator("complete:3000000", 3000000, ordered=True),
        "^ordered pattern size k=3000000 exceeds the cap PERMUTATION_SIZE_MAX = 10000$"),
    "threshold_exact k past u64": (
        lambda: threshold_exact(2**70, True),
        f"^pattern size k={2**70} exceeds the cap THRESHOLD_K_MAX = 400"),
    "threshold_exact k of 10^5": (
        lambda: threshold_exact(10**5, True), "^pattern size k=100000 exceeds the cap"),
    "gain ordered k of a million": (
        lambda: gain(10**6, 10**6, True),
        "^ordered pattern size k=1000000 exceeds the cap GAIN_ORDERED_K_MAX = 265722$"),
    "length_report ordered k past u32": (
        lambda: length_report(2**32 - 1, 2**32 - 1, True),
        "^ordered pattern size k=4294967295 exceeds the cap GAIN_ORDERED_K_MAX"),
    "gain unordered index of a million choose half": (
        lambda: gain(10**6, 5 * 10**5, False),
        r"^subset index of C\(n, k\) may pass the cap GAIN_INDEX_BITS_MAX = 262144 bits$"),
    "length_report index past u32": (
        lambda: length_report(2**40, 2**39, False), r"^subset index of C\(n, k\) may pass"),
    "gain index of a 5000-digit n": (
        lambda: gain(10**5000, 10**4999, False), r"^subset index of C\(n, k\) may pass"),
    "run horizon of a billion": (
        lambda: run(K3, GAME, DiffusionConfig(horizon=10**9)),
        "^horizon 1000000000 exceeds the trace cap TRACE_REVISIONS_MAX = 2097152$"),
    "run horizon of 5000 digits": (
        lambda: run(K3, GAME, DiffusionConfig(horizon=10**5000)),
        "^horizon of 16610 bits exceeds the trace cap"),
    "pair_at position past C(n, 2) of a huge n": (
        lambda: pair_at(comb(10**12, 2) + 1, 10**12), "^position must be"),
    "check_int of 5000 digits": (
        lambda: check_int(HUGE, "x", 0, 10),
        r"^x must be in 0\.\.10, got an integer of 16610 bits$"),
    "check_int below of minus 5000 digits": (
        lambda: check_int(-HUGE, "x", 0),
        r"^x must be >= 0, got a negative integer of 16610 bits$"),
    "check_int non-integer of 5000 digits": (
        lambda: check_int(TOO_BIG, "x"),
        r"^x must be an integer, got a Fraction too large to print$"),
    "vertex_count level of 5000 digits": (
        lambda: vertex_count(HUGE),
        r"^gasket level an integer of 16610 bits exceeds the cap COUNT_LEVEL_MAX = 10000$"),
    "build level of 5000 digits": (
        lambda: build(HUGE),
        r"^gasket level an integer of 16610 bits"),
    "subgaskets level of 5000 digits": (
        lambda: subgaskets(S2, HUGE),
        r"^sub-gasket level must be in 1\.\.2, got an integer of 16610 bits$"),
    "is_rk_closeknit k of 5000 digits": (
        lambda: is_rk_closeknit(K3, HALF, HUGE),
        r"^group-size bound k must be in 1\.\.20, got an integer of 16610 bits$"),
    "is_rk_closeknit cap of minus 5000 digits": (
        lambda: is_rk_closeknit(K3, HALF, 2, -HUGE),
        r"^connected-group search around vertex 1 exceeded cap a negative integer of 16610 bits$"),
    "family_scan k_cap of 5000 digits": (
        lambda: family_scan({}, HALF, HUGE),
        r"^k_cap must be in 1\.\.20, got an integer of 16610 bits$"),
    "min_ratio label of 5000 digits": (
        lambda: min_ratio(K3, [HUGE]),
        r"^subset a tuple too large to print has vertices outside 1\.\.3$"),
    "gain k of 5000 digits": (
        lambda: gain(2, HUGE, False),
        r"^host size n=2 must be >= pattern size k=an integer of 16610 bits$"),
    "gain ordered k of 5000 digits": (
        lambda: gain(HUGE, HUGE, True),
        r"^ordered pattern size k=an integer of 16610 bits"),
    "threshold_exact k of 5000 digits": (
        lambda: threshold_exact(HUGE, True),
        r"^pattern size k=an integer of 16610 bits exceeds the cap THRESHOLD_K_MAX = 400$"),
    "asymptotic_bounds k of 5000 digits": (
        lambda: asymptotic_bounds(HUGE),
        r"^pattern size k=an integer of 16610 bits"),
    "to_bytes subset rank of 5000 digits": (
        lambda: to_bytes(TwoPartEncoding(HUGE, None, "00"), SIDE),
        r"^value an integer of 16610 bits does not fit in 2 bits$"),
    "unrank_permutation k of 5000 digits": (
        lambda: unrank_permutation(0, HUGE),
        r"^permutation size k=an integer of 16610 bits"),
    "rank_permutation member of 5000 digits": (
        lambda: rank_permutation([HUGE]),
        r"^a tuple too large to print is not a permutation of 1\.\.1$"),
    "unrank_subset rank of 5000 digits": (
        lambda: unrank_subset(HUGE, 3, 2),
        r"^subset rank must be in 0\.\.2, got an integer of 16610 bits$"),
    "ceil_log2 of minus 5000 digits": (
        lambda: ceil_log2(-HUGE),
        r"^ceil_log2 argument x must be >= 1, got a negative integer of 16610 bits$"),
    "pos i of 5000 digits": (
        lambda: pos(HUGE, HUGE + 1, 3),
        r"^pos requires 1 <= i < j <= n, got i=an integer of 16610 bits"),
    "pair_at n of minus 5000 digits": (
        lambda: pair_at(1, -HUGE),
        r"^pair_at needs n >= 0 vertices, got a negative integer of 16610 bits$"),
    "from_edges self-loop of 5000 digits": (
        lambda: LabeledGraph.from_edges(3, [(HUGE, HUGE)]),
        r"^self-loop \{an integer of 16610 bits,an integer of 16610 bits\} not allowed$"),
    "from_edges label of 5000 digits": (
        lambda: LabeledGraph.from_edges(3, [(1, HUGE)]),
        r"^edge \{1,an integer of 16610 bits\} out of range for vertex labels 1\.\.3$"),
    "from_edges non-integer label of 5000 digits": (
        lambda: LabeledGraph.from_edges(3, [(1, TOO_BIG)]),
        r"^edge a tuple too large to print must be a pair of integer labels$"),
    "degree vertex of 5000 digits": (
        lambda: K3.degree(HUGE),
        r"^vertex must be in 1\.\.3, got an integer of 16610 bits$"),
    "as_subset duplicate of 5000 digits": (
        lambda: as_subset([HUGE, HUGE], 3),
        r"^subset has duplicate vertex an integer of 16610 bits$"),
    "as_subset label of 5000 digits": (
        lambda: as_subset([HUGE], 3),
        r"^subset a tuple too large to print has vertices outside 1\.\.3$"),
    "as_subset non-integer label of 5000 digits": (
        lambda: as_subset([TOO_BIG], 3),
        r"^subset label a Fraction too large to print is not an integer$"),
    "decode n of 5000 digits": (
        lambda: decode("", HUGE),
        r"^decode\(n=an integer of 16610 bits"),
    "decode n of minus 5000 digits": (
        lambda: decode("", -HUGE),
        r"^decode needs n >= 0 vertices, got a negative integer of 16610 bits$"),
    "bit string n of 5000 digits": (
        lambda: EdgeBitString(HUGE, ""),
        r"^bit string for n=an integer of 16610 bits"),
    "gnp_sample n of 5000 digits": (
        lambda: gnp_sample(HUGE, HALF, 0),
        r"^G\(n, p\) sample of n=an integer of 16610 bits"),
    "gnp_sample p of 5000 digits": (
        lambda: gnp_sample(3, TOO_BIG, 0),
        r"^edge probability must be in \[0, 1\], got a Fraction too large to print$"),
    "word draw of 5000 digits": (
        lambda: WordStream(0).words(HUGE),
        r"^draw of an integer of 16610 bits words exceeds the cap WORDS_PER_DRAW_MAX = 8388608$"),
    "word stream seed of 5000 digits": (
        lambda: WordStream(HUGE),
        r"^seed must be in 0\.\.18446744073709551615, got an integer of 16610 bits$"),
    "coloring pair of 5000 digits": (
        lambda: has_mono_induced(K3, {(HUGE, 1): "red"}, K3),
        r"^vertex must be in 1\.\.3, got an integer of 16610 bits$"),
    "is_host max_edges of minus 5000 digits": (
        lambda: is_host(K3, K3, max_edges=-HUGE),
        r"^host has 3 edges; .* limited to a negative integer of 16610 bits"),
    "split_union budget of minus 5000 digits": (
        lambda: split_union(K3, K3, mode="proof-faithful", max_edges=-HUGE),
        r"^component .* over the proof-faithful budget a negative integer of 16610 bits"),
    "find_induced_occurrences limit of minus 5000 digits": (
        lambda: find_induced_occurrences(K3, K3, limit=-HUGE),
        r"^limit must be >= 1, got a negative integer of 16610 bits$"),
    "bounds_report c of 5000 digits": (
        lambda: bounds_report(S2.graph, HUGE, 1),
        r"^c=an integer of 16610 bits makes 2\^\(c\*D\*log2 D\) too large for a float$"),
    "bounds_report c_d of 5000 digits": (
        lambda: bounds_report(S2.graph, 1, HUGE),
        r"^c_d=an integer of 16610 bits"),
    "crossover c_d of minus 5000 digits": (
        lambda: poly_exp_crossover_level(-HUGE),
        r"^c_d must be positive, got a negative integer of 16610 bits$"),
    "plant_occurrence member of 5000 digits": (
        lambda: plant_occurrence(K3, K3, [HUGE, 1, 2]),
        r"^subset a tuple too large to print has vertices outside 1\.\.3$"),
    "expected_occurrences n of minus 5000 digits": (
        lambda: expected_occurrences(-HUGE, K3),
        r"^host size n must be >= 0, got a negative integer of 16610 bits$"),
    "game payoff of 5000 digits": (
        lambda: CoordinationGame(1, 1, HUGE, 0),
        r"^coordination game requires .*; got a=1, b=1, c=a Fraction too large to print"),
    "config epsilon of 5000 digits": (
        lambda: DiffusionConfig(epsilon=TOO_BIG),
        r"^epsilon must be in \[0, 1\), got a Fraction too large to print$"),
    "config init_adopters of 5000 digits": (
        lambda: DiffusionConfig(init_adopters=HUGE),
        r"^init_adopters must be a list or tuple of labels, got an integer of 16610 bits$"),
    "config horizon of minus 5000 digits": (
        lambda: DiffusionConfig(horizon=-HUGE),
        r"^horizon must be >= 1, got a negative integer of 16610 bits$"),
    "hitting_time_stats fraction of 5000 digits": (
        lambda: hitting_time_stats(K3, GAME, DiffusionConfig(), 1, TOO_BIG),
        r"^adoption_fraction must be in \(0, 1\], got a Fraction too large to print$"),
}


CALL_SECONDS = 2


@pytest.mark.parametrize("call, name", ESCAPES.values(), ids=ESCAPES.keys())
def test_escape_raises_domain_error_naming_the_argument(call, name):
    """Each row raises within CALL_SECONDS; one that hangs inside a C-level
    computation, where no signal handler runs, ends the run after ten times
    that, with a traceback."""
    faulthandler.dump_traceback_later(10 * CALL_SECONDS, exit=True)
    start = time.perf_counter()
    try:
        with pytest.raises(DomainError, match=name):
            call()
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert time.perf_counter() - start < CALL_SECONDS


def test_gnp_past_the_vertex_cap_is_a_resource_limit():
    with pytest.raises(ResourceLimitError, match="GNP_VERTEX_MAX = 4096"):
        gnp_sample(10**5, 0.5, 0)


def test_word_draws_past_the_cap_are_refused_at_once():
    stream = WordStream(0)
    start = time.perf_counter()
    for draw in (stream.word_bytes, stream.words):
        with pytest.raises(ResourceLimitError, match=f"^draw of {WORDS_PER_DRAW_MAX + 1} words"):
            draw(WORDS_PER_DRAW_MAX + 1)
    assert time.perf_counter() - start < 0.1  # nothing was hashed
    assert stream.words(2) == WordStream(0).words(2)  # nor drawn


def test_the_graph_cap_admits_the_largest_in_tree_graphs():
    # a disjoint union of two default-cap gaskets, and a P<n> or E<n> name
    assert 2 * vertex_count(MAX_LEVEL_DEFAULT) <= GRAPH_SIZE_MAX
    assert JSON_VERTEX_MAX <= GRAPH_SIZE_MAX
    assert comb(1448, 2) <= GRAPH_SIZE_MAX < comb(1449, 2)
    with pytest.raises(ResourceLimitError, match="^complete graph on n=1449 vertices"):
        LabeledGraph.complete(1449)


def test_the_word_cap_admits_the_largest_gnp_sample():
    # gnp_sample draws its C(n, 2) words in one call
    assert comb(GNP_VERTEX_MAX, 2) <= WORDS_PER_DRAW_MAX


def test_boundary_seeds_are_taken():
    for seed in (0, 2**64 - 1):
        assert WordStream(seed).words(1) == WordStream(Index(seed)).words(1)
        assert DiffusionConfig(seed=seed).seed == seed
        assert gnp_sample(4, HALF, seed) == gnp_sample(4, HALF, Index(seed))
    with pytest.raises(DomainError, match="seed"):
        WordStream(2**64)


def test_index_objects_are_taken_as_their_integers():
    assert gnp_sample(Index(5), HALF, 7) == gnp_sample(5, HALF, 7)
    assert WordStream(0).words(Index(2)) == WordStream(0).words(2)
    assert LabeledGraph.complete(Index(3)) == K3
    assert LabeledGraph.from_edges(3, [(Index(1), 2)]) == LabeledGraph.from_edges(3, [(1, 2)])
    assert as_subset((Index(2), 1), 3) == (1, 2)
    assert build(Index(2)).graph == S2.graph
    assert vertex_count(Index(3)) == vertex_count(3)
    assert pos(Index(1), Index(3), Index(3)) == 2 and pair_at(Index(2), Index(3)) == (1, 3)
    assert unrank_subset(Index(3), Index(5), Index(2)) == unrank_subset(3, 5, 2)
    assert ceil_log2(Index(5)) == 3
    assert rank_subset((Index(1), Index(3)), Index(3)) == rank_subset((1, 3), 3)
    assert rank_permutation((Index(2), 1)) == 1
    assert K3.degree(Index(1)) == 2 and K3.has_edge(Index(1), Index(3))
    assert is_rk_closeknit(K3, HALF, Index(3)) == is_rk_closeknit(K3, HALF, 3)
    config = DiffusionConfig(init_adopters=[Index(1)], horizon=Index(5), seed=Index(2))
    assert config == DiffusionConfig(init_adopters=(1,), horizon=5, seed=2)


def test_largest_group_size_and_smallest_limit_are_taken():
    assert is_rk_closeknit(K3, HALF, GROUP_SIZE_MAX).success
    with pytest.raises(DomainError, match="k must be in 1..20"):
        is_rk_closeknit(K3, HALF, GROUP_SIZE_MAX + 1)
    assert find_induced_occurrences(LabeledGraph.complete(4), K3, limit=1) == [(1, 2, 3)]


def test_vertex_accessors_take_exactly_1_to_n():
    assert [K3.degree(v) for v in (1, 3)] == [2, 2] and K3.has_edge(3, 1)
    for v in (0, 4, -1):
        for call in (K3.degree, K3.neighbors, lambda u: K3.has_edge(u, 1),
                     lambda u: K3.has_edge(1, u)):
            with pytest.raises(DomainError, match="vertex must be in 1..3"):
                call(v)


def test_config_keeps_init_adopters_as_a_tuple():
    assert DiffusionConfig(init_adopters=[3, 1]).init_adopters == (3, 1)


def test_closeknit_takes_every_r_at_most_zero_with_singleton_witnesses():
    """Every ratio is >= 0, so r <= 0 is accepted, not refused, and each
    vertex's own singleton qualifies."""
    s3 = build(3).graph
    for r in (0, -1, Fraction(-1, 3)):
        result = is_rk_closeknit(s3, r, 3)
        assert result.success and result.groups_examined == s3.n
        assert result.witness == {v: (v,) for v in s3.vertices()}


def test_adoption_fraction_is_read_at_its_exact_binary_value():
    """The float 0.9 is slightly above 9/10, so on 10 vertices it targets
    all 10 adopters, as 1.0 does; the Fraction 9/10 targets 9."""
    k10 = LabeledGraph.complete(10)
    config = DiffusionConfig(init_adopters=(1, 2, 3, 4))

    def hits(fraction):
        return hitting_time_stats(k10, GAME, config, 5, adoption_fraction=fraction).hit_times

    assert hits(0.9) == hits(1.0)
    assert all(a < b for a, b in zip(hits(Fraction(9, 10)), hits(0.9)))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)


@given(value=JSON_VALUES)
@settings(max_examples=200)
def test_checks_return_their_kind_or_raise_domain_error(value):
    try:
        got = check_int(value, "x", 0, 10)
    except DomainError:
        assert not (type(value) is int and 0 <= value <= 10)
    else:
        assert type(got) is int and got == value
    try:
        check_real(value, "x")
    except DomainError:
        assert type(value) not in (int, float)
