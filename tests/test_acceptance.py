"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `criterion NN PASS/FAIL` line (visible under
``pytest -s``) and enforces its runtime budget.  Numeric targets are either
exact arithmetic identities or values frozen from the independent oracles
exercised in the unit suites.
"""

from contextlib import contextmanager
from fractions import Fraction
from math import comb
from time import perf_counter

from gasketlab import (
    LabeledGraph,
    connected_components,
    decode,
    encode,
    gnp_sample,
)
from gasketlab.closeknit import is_rk_closeknit, min_ratio
from gasketlab.diffusion import CoordinationGame, DiffusionConfig, hitting_time_stats, run
from gasketlab.experiments import (
    containment_experiment,
    expected_occurrences,
    plant_occurrence,
    sample_pattern_free,
)
from gasketlab.ramsey import (
    construct_union,
    has_mono_induced,
    induced_ramsey_oracle,
    is_host,
    poly_exp_crossover_level,
    split_union,
)
from gasketlab.rng import WordStream, derive_seed
from gasketlab.sierpinski import build, edge_count, elementary_triangles, vertex_count
from gasketlab.twopart import (
    SideInfo,
    decode_two_part,
    encode_two_part,
    gain,
    length_report,
    threshold_exact,
)

from test_cli import run_cli

K3 = LabeledGraph.complete(3)
K6 = LabeledGraph.complete(6)


@contextmanager
def criterion(num: int, description: str, budget_seconds: float):
    start = perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} FAIL: {description}")
        raise
    elapsed = perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {num} overran its budget: {elapsed:.1f}s >= {budget_seconds}s"
    )
    print(f"criterion {num:02d} PASS ({elapsed:.2f}s): {description}")


def test_criterion_01_sierpinski_structure():
    with criterion(1, "gasket counts and degrees, levels 1..7", 1.0):
        for level in range(1, 8):
            s = build(level)
            n = 3 * (3 ** (level - 1) + 1) // 2
            assert s.graph.n == n == vertex_count(level)
            assert s.graph.edge_count == 3**level == edge_count(level)
            if level >= 2:
                assert s.graph.degree_multiset() == {2: 3, 4: n - 3}
        assert (vertex_count(7), edge_count(7)) == (1095, 2187)


def test_criterion_02_codec_roundtrips():
    with criterion(2, "canonical codec x1000 and planted two-part codec x200", 10.0):
        stream = WordStream(derive_seed(2, "sizes"))
        for i in range(1000):
            n = 1 + stream.words(1)[0] % 64
            g = gnp_sample(n, 0.5, derive_seed(2, "graph", i))
            bits = encode(g)
            assert decode(bits, n) == g
            assert encode(decode(bits, n)).bits == bits.bits
        for i in range(200):
            level = 1 + stream.words(1)[0] % 2
            k = vertex_count(level)
            n = k + stream.words(1)[0] % (64 - k + 1)
            pattern = build(level).graph
            members = sorted(range(1, n + 1), key=lambda v: derive_seed(2, "pick", i, v))
            subset = tuple(sorted(members[:k]))
            planted = plant_occurrence(
                gnp_sample(n, 0.5, derive_seed(2, "host", i)), pattern, subset
            )
            side = SideInfo.for_generator(f"sierpinski:{level}", n)
            enc = encode_two_part(encode(planted), subset, side)
            assert decode_two_part(enc, side) == encode(planted)
            assert enc.length_bits(side) == length_report(n, k, True).encoded_bits


def test_criterion_03_threshold_rendering():
    with criterion(3, "exact break-even threshold for the level-2 gasket", 1.0):
        assert threshold_exact(6, True) == 7
        assert gain(7, 6, True) == 2
        assert gain(16, 6, True) == -8
        pattern = build(2).graph
        for n in (6, 7):
            for i in range(10):
                subset = tuple(range(1, 7)) if n == 6 else tuple(sorted(
                    sorted(range(1, 8), key=lambda v: derive_seed(3, i, v))[:6]
                ))
                planted = plant_occurrence(
                    gnp_sample(n, 0.5, derive_seed(3, "host", n, i)), pattern, subset
                )
                side = SideInfo.for_generator("sierpinski:2", n)
                enc = encode_two_part(encode(planted), subset, side)
                assert comb(n, 2) - enc.length_bits(side) > 0  # certified compressible


def test_criterion_04_closeknit_suite():
    with criterion(4, "exact close-knit ratios and certificates", 30.0):
        assert min_ratio(K3, (1, 2, 3)).min_ratio == Fraction(1, 2)
        s3 = build(3).graph
        assert min_ratio(s3, (2, 4, 5)).min_ratio == Fraction(1, 4)
        for level in (1, 2, 3, 4):
            assert is_rk_closeknit(build(level).graph, Fraction(1, 4), 3).success
        produced = 0
        attempt = 0
        while produced < 100:
            n = 2 + derive_seed(4, "n", attempt) % 13  # 2..14
            g = gnp_sample(n, 0.5, derive_seed(4, "g", attempt))
            attempt += 1
            if len(connected_components(g)) != 1 or g.edge_count == 0:
                continue
            report = min_ratio(g, tuple(range(1, n + 1)))
            assert report.min_ratio == Fraction(1, 2)
            assert report.argmin == tuple(range(1, n + 1))
            produced += 1


def test_criterion_05_ramsey_suite():
    with criterion(5, "exhaustive host checks and the complete-host oracle", 60.0):
        cert6 = is_host(K6, K3)
        assert cert6.verified and cert6.colorings_checked == 32768
        cert5 = is_host(LabeledGraph.complete(5), K3)
        assert not cert5.verified
        witness = cert5.witness
        reds = [e for e, c in witness.items() if c == "red"]
        blues = [e for e, c in witness.items() if c == "blue"]
        assert len(reds) == len(blues) == 5
        for half_edges in (reds, blues):  # each half is a single 5-cycle
            half = LabeledGraph.from_edges(5, half_edges)
            assert all(half.degree(v) == 2 for v in half.vertices())
            assert len(connected_components(half)) == 1
        assert not has_mono_induced(LabeledGraph.complete(5), witness, K3)
        oracle = induced_ramsey_oracle(
            K3, [LabeledGraph.complete(i) for i in range(2, 8)]
        )
        assert oracle.host.n == 6  # matches the classical two-color value


def test_criterion_06_union_split_algorithm():
    with criterion(6, "exact partition recovery on 50 random unions", 300.0):
        for i in range(50):
            n1 = 3 + derive_seed(6, "n1", i) % 10  # 3..12
            g1 = sample_pattern_free(n1, 0.25, K3, derive_seed(6, "g1", i))
            union = construct_union(g1, K6)
            fast = split_union(union.graph, K3, mode="fast")
            slow = split_union(union.graph, K3, mode="proof-faithful")
            assert fast.g1_vertices == slow.g1_vertices == union.g1_vertices
            assert fast.g2_vertices == slow.g2_vertices == union.g2_vertices


def test_criterion_07_crossover_calculator():
    with criterion(7, "polynomial/exponential crossover level", 5.0):
        assert poly_exp_crossover_level(3) == 3
        for c_d in range(1, 11):
            assert isinstance(poly_exp_crossover_level(c_d), int)


def test_criterion_08_first_moment_checks():
    with criterion(8, "empirical means against exact first moments", 300.0):
        r1 = containment_experiment(10, K3, trials=2000, seed=2026)
        assert abs(r1.mean_count - 15) / 15 < 0.05
        s2 = build(2).graph
        r2 = containment_experiment(12, s2, trials=500, seed=2026)
        target = expected_occurrences(12, s2).expected_isomorphic  # 3465/1024
        assert abs(r2.mean_count - float(target)) / float(target) < 0.10


def test_criterion_09_diffusion():
    with criterion(9, "deterministic sweep and stochastic adoption trend", 300.0):
        game = CoordinationGame(a=2, b=1, c=0, d=0)
        s2 = build(2).graph
        sweep = run(
            s2,
            game,
            DiffusionConfig(
                epsilon=0.0,
                init_adopters=(1, 2, 3),
                horizon=12,
                seed=0,
                schedule="round-robin",
            ),
        )
        assert sweep.hitting_time is not None and sweep.hitting_time <= 6
        assert sweep.adoption_counts == (3, 3, 3, 3, 4, 5, 6)
        for level in (2, 3, 4):
            gasket = build(level)
            config = DiffusionConfig(
                epsilon=0.02,
                init_adopters=elementary_triangles(gasket)[0],
                horizon=200 * gasket.graph.n,
                seed=derive_seed(9, "level", level),
                schedule="uniform-random",
            )
            stats = hitting_time_stats(gasket.graph, game, config, trials=100)
            assert stats.success_rate >= 0.90, (level, stats.success_rate)


def test_criterion_10_cli_byte_determinism(tmp_path):
    with criterion(10, "byte-identical CLI reruns, independent of --jobs", 120.0):
        args = (
            "experiment", "containment", "--n", "8", "--pattern", "K3",
            "--trials", "40", "--seed", "11",
        )
        first = run_cli(*args)
        assert first.returncode == 0
        assert first.stdout == run_cli(*args).stdout
        assert first.stdout == run_cli(*args, "--jobs", "2").stdout
        out = tmp_path / "stats.json"
        stat_args = (
            "diffuse", "stats", "--graph", "S3", "--payoffs", "2,1,0,0",
            "--epsilon", "0.02", "--init", "1,2,3", "--horizon", "400",
            "--seed", "7", "--trials", "20", "--out", str(out),
        )
        assert run_cli(*stat_args, "--jobs", "1").returncode == 0
        serial = out.read_bytes()
        assert run_cli(*stat_args, "--jobs", "3").returncode == 0
        assert out.read_bytes() == serial
