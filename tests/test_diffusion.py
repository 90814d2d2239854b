import math
from dataclasses import replace
from fractions import Fraction
from statistics import median

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_run_to_horizon
from gasketlab import DomainError, LabeledGraph
from gasketlab.diffusion import (
    CoordinationGame,
    DiffusionConfig,
    DiffusionState,
    Trace,
    hitting_time_stats,
    revise,
    risk_threshold,
    run,
)
from gasketlab.rng import WordStream, derive_seed
from gasketlab.sierpinski import build, elementary_triangles, subgaskets

GAME_THIRD = CoordinationGame(a=2, b=1, c=0, d=0)


def test_risk_threshold_values():
    assert risk_threshold(GAME_THIRD) == Fraction(1, 3)
    assert risk_threshold(CoordinationGame(a=1, b=1, c=0, d=0)) == Fraction(1, 2)
    assert risk_threshold(CoordinationGame(a=3, b=1, c=0, d=0)) == Fraction(1, 4)


def test_degenerate_payoffs_rejected():
    with pytest.raises(DomainError, match="a > d"):
        CoordinationGame(a=0, b=1, c=0, d=0)
    with pytest.raises(DomainError):
        CoordinationGame(a=2, b=0, c=1, d=0)


def test_revise_best_response_cases(k3):
    config = DiffusionConfig(epsilon=0.0, init_adopters=(), horizon=5, seed=0)
    all_a = DiffusionState(frozenset({2, 3}))
    assert 1 in revise(all_a, 1, k3, GAME_THIRD, config).adopters
    none_a = DiffusionState(frozenset())
    assert 1 not in revise(none_a, 1, k3, GAME_THIRD, config).adopters
    # exactly at threshold: 1 of 2 neighbors = 1/2 >= 1/3, tie rule adopts
    half = DiffusionState(frozenset({2}))
    assert 1 in revise(half, 1, k3, GAME_THIRD, config).adopters
    tie_game = CoordinationGame(a=1, b=1, c=0, d=0)  # r* = 1/2 exactly
    assert 1 in revise(half, 1, k3, tie_game, config).adopters


def test_revise_rejects_isolated_vertex():
    # checked before any coin: a noise coin drawn first let some seeds return
    lonely = LabeledGraph.from_edges(2, [])
    state = DiffusionState(frozenset())
    for epsilon in (0.0, 0.5, 0.9):
        for seed in range(40):
            config = DiffusionConfig(epsilon=epsilon, horizon=1, seed=seed)
            with pytest.raises(DomainError, match="isolated"):
                revise(state, 1, lonely, GAME_THIRD, config)


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
    config = DiffusionConfig(horizon=1, seed=0)  # revise() consumes no stream
    state = DiffusionState(frozenset(initial))
    for _ in range(g.n + 1):
        before = state.adopters
        for v in g.vertices():
            state = revise(state, v, g, game, config)
        assert before <= state.adopters
        if state.adopters == before:
            return state.adopters
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
    """revise() over one shared word stream, with the vertex schedule drawn
    by the caller, reproduces the trajectory to the horizon with noise on,
    and run()'s trace is its prefix up to the first all-A revision."""
    s3 = build(3).graph
    config = DiffusionConfig(
        epsilon=0.1, init_adopters=(1, 2, 3), horizon=500, seed=41, schedule=schedule
    )
    expected_counts, expected_final = oracle_run_to_horizon(s3, GAME_THIRD, config)
    stream = WordStream(config.seed, domain=b"gasketlab-diffusion")
    state = DiffusionState(frozenset(config.init_adopters))
    counts = [len(state.adopters)]
    for t in range(1, config.horizon + 1):
        if schedule == "round-robin":
            v = ((t - 1) % s3.n) + 1
        else:
            v = stream.index(s3.n) + 1
        state = revise(state, v, s3, GAME_THIRD, config, stream)
        counts.append(len(state.adopters))
    assert len(set(counts)) > 2  # the noise moves the trajectory around
    assert tuple(counts) == expected_counts
    assert tuple(sorted(state.adopters)) == expected_final
    assert state.t == config.horizon
    assert run(s3, GAME_THIRD, config) == trace_prefix(s3, expected_counts, expected_final)


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
    game = draw(st.sampled_from([GAME_THIRD, CoordinationGame(a=1, b=1, c=0, d=0),
                                 CoordinationGame(a=3, b=1, c=0, d=0),
                                 CoordinationGame(a=3, b=2, c=0, d=0)]))
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
