import math
import tracemalloc
from dataclasses import replace
from itertools import accumulate
from fractions import Fraction
from statistics import median

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import oracle_run_to_horizon, oracle_words
from gasketlab import DomainError, LabeledGraph, ResourceLimitError, diffusion
from gasketlab.diffusion import (
    TRACE_REVISIONS_MAX,
    CoordinationGame,
    DiffusionConfig,
    Trace,
    _needs,
    hitting_time_stats,
    risk_threshold,
    run,
)
from gasketlab.rng import WordStream, derive_seed
from gasketlab.rng import uniform_cut as _noise_cut
from gasketlab.sierpinski import build, elementary_triangles, subgaskets, vertex_count

GAME_THIRD = CoordinationGame(a=2, b=1, c=0, d=0)
GAME_QUARTER = CoordinationGame(a=3, b=1, c=0, d=0)
# r* = 1/3, 1/2, 1/4, 2/5: knife edges on small degrees
CASE_GAMES = [GAME_THIRD, CoordinationGame(a=1, b=1, c=0, d=0), GAME_QUARTER,
              CoordinationGame(a=3, b=2, c=0, d=0)]


def test_risk_threshold_values():
    assert risk_threshold(GAME_THIRD) == Fraction(1, 3)
    assert risk_threshold(CoordinationGame(a=1, b=1, c=0, d=0)) == Fraction(1, 2)
    assert risk_threshold(CoordinationGame(a=3, b=1, c=0, d=0)) == Fraction(1, 4)


def test_degenerate_payoffs_rejected():
    with pytest.raises(DomainError, match="a > d"):
        CoordinationGame(a=0, b=1, c=0, d=0)
    with pytest.raises(DomainError):
        CoordinationGame(a=2, b=0, c=1, d=0)


def _revise_once(g, game, adopters):
    """The adopters after one noise-free revision of vertex 1: a round-robin
    run with horizon 1."""
    config = DiffusionConfig(init_adopters=tuple(adopters), horizon=1, schedule="round-robin")
    return set(run(g, game, config).final_adopters)


def test_revise_best_response_cases(k3):
    assert 1 in _revise_once(k3, GAME_THIRD, {2, 3})
    assert 1 not in _revise_once(k3, GAME_THIRD, set())
    # exactly at threshold: 1 of 2 neighbors = 1/2 >= 1/3, tie rule adopts
    assert 1 in _revise_once(k3, GAME_THIRD, {2})
    tie_game = CoordinationGame(a=1, b=1, c=0, d=0)  # r* = 1/2 exactly
    assert 1 in _revise_once(k3, tie_game, {2})
    below = CoordinationGame(a=3, b=2, c=0, d=0)  # r* = 2/5 > 1/3: B
    assert _revise_once(LabeledGraph.complete(4), below, {2}) == {2}


def test_revise_rejects_isolated_vertex():
    # refused up front, whichever vertex the schedule draws and whatever the coins say
    lonely = LabeledGraph.from_edges(3, [(2, 3)])
    for epsilon in (0.0, 0.5, 0.9):
        for seed in range(40):
            config = DiffusionConfig(epsilon=epsilon, horizon=1, seed=seed)
            with pytest.raises(DomainError, match="vertex 1 is isolated"):
                run(lonely, GAME_THIRD, config)
            with pytest.raises(DomainError, match="vertex 1 is isolated"):
                hitting_time_stats(lonely, GAME_THIRD, config, trials=2)


def test_config_validation():
    with pytest.raises(DomainError, match="epsilon"):
        DiffusionConfig(epsilon=1.0, horizon=5, seed=0)
    with pytest.raises(DomainError, match="horizon"):
        DiffusionConfig(horizon=0, seed=0)
    with pytest.raises(DomainError, match="schedule"):
        DiffusionConfig(horizon=5, seed=0, schedule="chaotic")


def test_deterministic_sweep_on_s2():
    s2 = build(2).graph
    config = DiffusionConfig(
        epsilon=0.0, init_adopters=(1, 2, 3), horizon=12, seed=0, schedule="round-robin"
    )
    trace = run(s2, GAME_THIRD, config)
    # hand simulation: vertices 1-3 hold, then 4 sees 1/2, 5 sees 3/4, 6 sees 1
    assert trace.adoption_counts == (3, 3, 3, 3, 4, 5, 6)
    assert trace.hitting_time == 6  # all-A within one sweep of 6 revisions


def test_absorbing_states():
    s2 = build(2).graph
    empty = run(
        s2,
        GAME_THIRD,
        DiffusionConfig(init_adopters=(), horizon=30, seed=3, schedule="round-robin"),
    )
    assert empty.hitting_time is None and set(empty.adoption_counts) == {0}
    full = run(
        s2,
        GAME_THIRD,
        DiffusionConfig(init_adopters=tuple(range(1, 7)), horizon=30, seed=3),
    )
    assert full.hitting_time == 0


def test_run_is_deterministic():
    s3 = build(3).graph
    config = DiffusionConfig(
        epsilon=0.05, init_adopters=(1, 2, 3), horizon=400, seed=12345
    )
    assert run(s3, GAME_THIRD, config) == run(s3, GAME_THIRD, config)


def test_payoff_scaling_leaves_trajectories_unchanged():
    s3 = build(3).graph
    config = DiffusionConfig(epsilon=0.05, init_adopters=(1, 2, 3), horizon=300, seed=9)
    scaled = CoordinationGame(a=6, b=3, c=0, d=0)  # 3x GAME_THIRD
    assert risk_threshold(scaled) == risk_threshold(GAME_THIRD)
    assert run(s3, GAME_THIRD, config) == run(s3, scaled, config)


def _sweep_to_fixpoint(g, game, initial):
    """Round-robin, noise-free sweeps until the adopter set stabilizes;
    asserts the set never shrinks between sweeps."""
    adopters = frozenset(initial)
    for _ in range(g.n + 1):
        config = DiffusionConfig(init_adopters=tuple(adopters), horizon=g.n,
                                 schedule="round-robin")
        before, adopters = adopters, frozenset(run(g, game, config).final_adopters)
        assert before <= adopters
        if adopters == before:
            return adopters
    raise AssertionError("no fixpoint reached")


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_contagion_fixpoints_from_every_elementary_triangle(level):
    """At threshold 1/3 a triangle floods exactly its enclosing level-2
    sub-gasket: crossing that sub-gasket's corner would need 2 of 4
    neighbors adopted but only the corner itself is.  At threshold 1/4 a
    single adopted neighbor suffices, so contagion covers the whole graph.
    Checked exhaustively over all 3^(l-1) starting triangles."""
    gasket = build(level)
    g = gasket.graph
    everything = frozenset(g.vertices())
    enclosing_level = min(level, 2)
    blocks = [frozenset(s) for s in subgaskets(gasket, enclosing_level)]
    quarter = CoordinationGame(a=3, b=1, c=0, d=0)  # r* = 1/4
    for triangle in elementary_triangles(gasket):
        third_fixpoint = _sweep_to_fixpoint(g, GAME_THIRD, triangle)
        assert third_fixpoint in blocks
        assert set(triangle) <= third_fixpoint
        assert _sweep_to_fixpoint(g, quarter, triangle) == everything


def test_majority_seeded_clique_converges_within_one_sweep():
    k8 = LabeledGraph.complete(8)
    config = DiffusionConfig(
        epsilon=0.0,
        init_adopters=(1, 2, 3, 4, 5),  # 5 of 8: every vertex sees >= 4/7 > 1/3
        horizon=8,
        seed=0,
        schedule="round-robin",
    )
    stats = hitting_time_stats(k8, GAME_THIRD, config, trials=5, adoption_fraction=1.0)
    assert stats.success_rate == 1.0
    assert all(h is not None and h <= 8 for h in stats.hit_times)


def test_full_initialization_hits_at_zero():
    s2 = build(2).graph
    config = DiffusionConfig(init_adopters=tuple(range(1, 7)), horizon=10, seed=1)
    stats = hitting_time_stats(s2, GAME_THIRD, config, trials=4)
    assert stats.hit_times == (0, 0, 0, 0) and stats.median_hit == 0.0


def test_hitting_time_stats_success_and_failure():
    s2 = build(2).graph
    config = DiffusionConfig(epsilon=0.0, init_adopters=(), horizon=50, seed=5)
    stats = hitting_time_stats(s2, GAME_THIRD, config, trials=10)
    assert stats.success_rate == 0.0 and stats.median_hit is None
    config = DiffusionConfig(epsilon=0.0, init_adopters=(1, 2, 3), horizon=50, seed=5)
    stats = hitting_time_stats(s2, GAME_THIRD, config, trials=10)
    assert stats.success_rate == 1.0


def test_hitting_time_stats_follows_the_per_trial_seed_contract():
    """Trial i runs with seed derive_seed(seed, "trial", i), and its hit time
    is the first revision at which the adoption count reaches the target in
    the trajectory run on to the horizon."""
    s3 = build(3).graph
    config = DiffusionConfig(epsilon=0.02, init_adopters=(1, 2, 3), horizon=600, seed=77)
    stats = hitting_time_stats(s3, GAME_THIRD, config, trials=20)
    target = math.ceil(0.99 * s3.n)
    expected = []
    for i in range(20):
        trial = DiffusionConfig(
            epsilon=0.02, init_adopters=(1, 2, 3), horizon=600,
            seed=derive_seed(77, "trial", i),
        )
        counts, _ = oracle_run_to_horizon(s3, GAME_THIRD, trial)
        expected.append(next((t for t, c in enumerate(counts) if c >= target), None))
    assert None in expected and any(h is not None for h in expected)
    assert stats.hit_times == tuple(expected)
    successes = [h for h in expected if h is not None]
    assert stats.success_rate == len(successes) / 20
    assert stats.median_hit == median(successes)


@pytest.mark.parametrize("fraction", [math.nan, math.inf, 0.0, -0.5, 1.5])
def test_hitting_time_stats_rejects_adoption_fraction_outside_unit_interval(fraction):
    config = DiffusionConfig(init_adopters=(1, 2, 3), horizon=10, seed=0)
    with pytest.raises(DomainError, match="adoption_fraction"):
        hitting_time_stats(build(2).graph, GAME_THIRD, config, trials=2, adoption_fraction=fraction)


@pytest.mark.parametrize("schedule", ["round-robin", "uniform-random"])
def test_chained_revise_replays_run(schedule):
    """The oracle's chain of single revisions, with noise on, moves the
    trajectory around, and run()'s trace is its prefix up to the first
    all-A revision."""
    s3 = build(3).graph
    config = DiffusionConfig(
        epsilon=0.1, init_adopters=(1, 2, 3), horizon=500, seed=41, schedule=schedule
    )
    counts, final = oracle_run_to_horizon(s3, GAME_THIRD, config)
    assert len(counts) == config.horizon + 1
    assert len(set(counts)) > 2  # the noise moves the trajectory around
    assert run(s3, GAME_THIRD, config) == trace_prefix(s3, counts, final)


def trace_prefix(g, counts, final) -> Trace:
    """The Trace of a trajectory cut at its first all-A revision."""
    hit = next((t for t, c in enumerate(counts) if c == g.n), None)
    if hit is None:
        return Trace(counts, None, final)
    return Trace(counts[: hit + 1], hit, tuple(g.vertices()))


@st.composite
def diffusion_cases(draw):
    """A graph on 2-7 vertices with no isolated vertex, a game at a
    knife-edge-prone threshold, and a config over both schedules."""
    n = draw(st.integers(2, 7))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = {pair for pair in pairs if draw(st.booleans())}
    covered = {v for pair in edges for v in pair}
    edges |= {(v, v % n + 1) if v < n else (1, n) for v in range(1, n + 1) if v not in covered}
    g = LabeledGraph.from_edges(n, sorted(edges))
    game = draw(st.sampled_from(CASE_GAMES))
    everyone = tuple(range(1, n + 1))
    init = draw(st.one_of(st.just(()), st.just(everyone),
                          st.lists(st.sampled_from(everyone), unique=True).map(tuple)))
    config = DiffusionConfig(
        epsilon=draw(st.sampled_from([0.0, 0.02, 0.3])),
        init_adopters=init,
        horizon=draw(st.one_of(st.none(), st.integers(1, 60))),
        seed=draw(st.integers(0, 2**64 - 1)),
        schedule=draw(st.sampled_from(["uniform-random", "round-robin"])),
    )
    return g, game, config


@settings(max_examples=150, deadline=None)
@given(
    diffusion_cases(),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    st.integers(1, 3),
)
def test_stopping_at_all_a_matches_the_run_to_horizon(case, fraction, trials):
    """run() is the full-horizon trajectory cut at its first all-A revision,
    and hitting_time_stats reads the same first count >= target from it."""
    g, game, config = case
    target = math.ceil(Fraction(fraction) * g.n)
    expected = []
    for i in range(trials):
        trial = replace(config, seed=derive_seed(config.seed, "trial", i))
        counts, final = oracle_run_to_horizon(g, game, trial)
        assert run(g, game, trial) == trace_prefix(g, counts, final)
        expected.append(next((t for t, c in enumerate(counts) if c >= target), None))
    stats = hitting_time_stats(g, game, config, trials, adoption_fraction=fraction)
    assert stats.hit_times == tuple(expected)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    st.integers(0, 2**64 - 1),
)
@example(5e-324, 0)
@example(0.5, 2**63)
@example(1 - 2**-53, 2**64 - 1)
def test_noise_cut_decides_like_uniform(epsilon, word):
    """``word < _noise_cut(epsilon)`` iff the word's 53-bit uniform is below
    epsilon, at the cut, on either side of it and at a random word."""
    cut = _noise_cut(epsilon)
    for w in (cut - 1, cut, cut + 1, word):
        if 0 <= w < 2**64:
            assert (w < cut) == ((w >> 11) * 2.0**-53 < epsilon), (epsilon, w)


@pytest.mark.parametrize("game", CASE_GAMES, ids=lambda game: str(risk_threshold(game)))
def test_need_is_the_exact_best_response_count(game):
    r_star = risk_threshold(game)
    need = _needs([range(deg) for deg in range(13)], r_star)
    for deg in range(1, 13):
        for a_count in range(deg + 1):
            assert (a_count >= need[deg]) == (Fraction(a_count, deg) >= r_star)


@pytest.mark.parametrize("epsilon", [0.0, 0.02, 0.3])
@pytest.mark.parametrize("schedule", ["uniform-random", "round-robin"])
@pytest.mark.parametrize("game", [GAME_THIRD, GAME_QUARTER], ids=["third", "quarter"])
@pytest.mark.parametrize("level", [2, 3, 4])
def test_kernel_matches_the_oracle_on_gaskets(level, game, schedule, epsilon):
    """On S2-S4 from the first elementary triangle, every trial's run() is the
    oracle trajectory cut at all-A, and hitting_time_stats reads the oracle's
    first count >= target for adoption fractions 1/2, 0.99 and 1."""
    gasket = build(level)
    g = gasket.graph
    config = DiffusionConfig(epsilon=epsilon, init_adopters=elementary_triangles(gasket)[0],
                             seed=1000 + level, schedule=schedule)
    trials = 6
    oracle = []
    for i in range(trials):
        trial = replace(config, seed=derive_seed(config.seed, "trial", i))
        counts, final = oracle_run_to_horizon(g, game, trial)
        assert run(g, game, trial) == trace_prefix(g, counts, final)
        oracle.append(counts)
    for fraction in (0.5, 0.99, 1.0):
        target = math.ceil(Fraction(fraction) * g.n)
        expected = tuple(next((t for t, c in enumerate(counts) if c >= target), None)
                         for counts in oracle)
        stats = hitting_time_stats(g, game, config, trials, adoption_fraction=fraction)
        assert stats.hit_times == expected, fraction


GAME_NINE_TENTHS = CoordinationGame(a=1, b=9, c=0, d=0)  # all-A needs every neighbour


def revision_words(config, horizon):
    """Per revision, in the oracle's draw order (schedule word for
    uniform-random, then the noise coin when epsilon > 0, then the strategy
    word when the coin fired): the stream index of its first and last word,
    and whether its coin fired."""
    words = oracle_words(config.seed, b"gasketlab-diffusion")
    out, i = [], 0
    for _ in range(horizon):
        first, fired = i, False
        if config.schedule == "uniform-random":
            next(words)
            i += 1
        if config.epsilon > 0:
            fired = (next(words) >> 11) * 2.0**-53 < config.epsilon
            i += 1
            if fired:
                next(words)
                i += 1
        out.append((first, i - 1, fired))
    return out


class CountingStream(WordStream):
    """A word stream that records the size of every draw."""

    draws: list[int] = []

    def word_bytes(self, count):
        CountingStream.draws.append(count)
        return super().word_bytes(count)


@pytest.mark.parametrize("schedule", ["uniform-random", "round-robin"])
def test_a_fired_revision_across_a_draw_boundary_matches_the_oracle(monkeypatch, schedule):
    """Runs in which a fired revision's words straddle two draws: its coin
    is the last word of one and its strategy word the first of the next, or
    its schedule word ends one draw and its coin starts the next.  Every
    trace, horizons 1 to 586 included, is the oracle's."""
    monkeypatch.setattr(diffusion, "WordStream", CountingStream)
    s3 = build(3).graph
    straddles = set()
    for seed in range(40):
        horizon = 1 + seed * 15
        config = DiffusionConfig(epsilon=0.3, horizon=horizon, seed=seed, schedule=schedule)
        counts, final = oracle_run_to_horizon(s3, GAME_NINE_TENTHS, config)
        CountingStream.draws = []
        assert run(s3, GAME_NINE_TENTHS, config) == trace_prefix(s3, counts, final), seed
        starts = set(accumulate(CountingStream.draws))
        for first, last, fired in revision_words(config, horizon):
            crossing = [b for b in starts if first < b <= last]
            if fired and crossing:
                straddles.add(last - crossing[0])  # 0: only the strategy word is past it
    assert 0 in straddles and (schedule == "round-robin" or 1 in straddles)


@pytest.mark.parametrize("schedule", ["uniform-random", "round-robin"])
def test_a_stop_reached_on_a_fired_revision_matches_the_oracle(schedule):
    """hitting_time_stats reads the oracle's first count >= target, whether
    the revision that reaches it is a noise-fired one or a best response."""
    s3 = build(3).graph
    config = DiffusionConfig(epsilon=0.3, init_adopters=(1, 2, 3), horizon=400, seed=8,
                             schedule=schedule)
    target = math.ceil(Fraction(2, 3) * s3.n)
    expected, fired = [], set()
    for i in range(12):
        trial = replace(config, seed=derive_seed(config.seed, "trial", i))
        counts, _ = oracle_run_to_horizon(s3, GAME_THIRD, trial)
        hit = next((t for t, c in enumerate(counts) if c >= target), None)
        expected.append(hit)
        fired.add(revision_words(trial, hit)[hit - 1][2])
    stats = hitting_time_stats(s3, GAME_THIRD, config, 12, adoption_fraction=Fraction(2, 3))
    assert stats.hit_times == tuple(expected)
    assert fired == {True, False}


@pytest.mark.parametrize("epsilon", [0.0, 0.3])
def test_a_stop_at_or_below_the_initial_count_runs_no_revision(epsilon):
    s3 = build(3).graph
    config = DiffusionConfig(epsilon=epsilon, init_adopters=(1, 2, 3), seed=4)
    stats = hitting_time_stats(s3, GAME_THIRD, config, 5, adoption_fraction=Fraction(1, 5))
    assert stats.hit_times == (0,) * 5
    everyone = replace(config, init_adopters=tuple(s3.vertices()))
    assert run(s3, GAME_THIRD, everyone) == Trace((s3.n,), 0, tuple(s3.vertices()))


@pytest.mark.parametrize("schedule", ["uniform-random", "round-robin"])
def test_a_noise_free_run_stops_drawing_at_its_absorbing_state(monkeypatch, schedule):
    """With epsilon = 0 a state with no vertex off its best response never
    changes: the trace runs on at its count to the horizon, as the oracle's
    does, and no word is drawn past the chunk of its last switch."""
    gasket = build(4)
    g = gasket.graph
    config = DiffusionConfig(init_adopters=elementary_triangles(gasket)[0], horizon=3000,
                             seed=12, schedule=schedule)
    counts, final = oracle_run_to_horizon(g, GAME_THIRD, config)
    last_switch = max(t for t in range(1, len(counts)) if counts[t] != counts[t - 1])
    assert 0 < last_switch < 1000 and counts[-1] < g.n
    assert run(g, GAME_THIRD, config) == Trace(counts, None, final)
    monkeypatch.setattr(diffusion, "WordStream", CountingStream)
    CountingStream.draws = []
    long_run = run(g, GAME_THIRD, replace(config, horizon=10**6))
    assert long_run.adoption_counts[: len(counts)] == counts
    assert set(long_run.adoption_counts[len(counts) :]) == {counts[-1]}
    assert sum(CountingStream.draws) <= (last_switch + 1024 if schedule == "uniform-random" else 0)


def test_hitting_time_memory_grows_with_switches_not_revisions():
    """hitting_time_stats keeps the switches of a trial, not a count per
    revision: a 10^6-revision horizon that absorbs at once, and a noisy
    10^5-revision one that never hits, stay within a bound set by the
    switch count (a count per revision is 8 bytes each)."""
    s3 = build(3).graph
    absorbing = DiffusionConfig(horizon=10**6, seed=3)
    noisy = DiffusionConfig(epsilon=0.002, horizon=10**5, seed=3)
    for config in (absorbing, noisy):
        trace = run(s3, GAME_NINE_TENTHS, replace(config, seed=derive_seed(3, "trial", 0)))
        switches = sum(a != b for a, b in zip(trace.adoption_counts, trace.adoption_counts[1:]))
        tracemalloc.start()
        try:
            stats = hitting_time_stats(s3, GAME_NINE_TENTHS, config, 1, adoption_fraction=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.hit_times == (None,)
        assert peak < 64 * 1024 + 160 * switches, (config.horizon, switches, peak)


def test_the_trace_cap_is_checked_before_any_word_is_drawn(monkeypatch):
    monkeypatch.setattr(diffusion, "WordStream", CountingStream)
    CountingStream.draws = []
    config = DiffusionConfig(epsilon=0.1, horizon=TRACE_REVISIONS_MAX + 1)
    with pytest.raises(ResourceLimitError, match=f"^horizon {TRACE_REVISIONS_MAX + 1} exceeds"):
        run(build(2).graph, GAME_THIRD, config)
    assert CountingStream.draws == []
    # the default horizon of S9, 200 n, is taken; S10's is not
    assert 200 * vertex_count(9) <= TRACE_REVISIONS_MAX < 200 * vertex_count(10)
