from fractions import Fraction

import pytest

from gasketlab import (
    DomainError,
    LabeledGraph,
    encode,
    gnp_sample,
    is_ordered_occurrence,
)
from gasketlab.diffusion import CoordinationGame, DiffusionConfig
from gasketlab.experiments import (
    closeknit_diffusion_link,
    containment_experiment,
    expected_occurrences,
    plant_occurrence,
    sample_pattern_free,
    table_to_csv,
    threshold_sweep,
)
from gasketlab.ramsey import find_induced_occurrences
from gasketlab.rng import derive_seed
from gasketlab.sierpinski import build
from gasketlab.twopart import SideInfo, decode_two_part, encode_two_part


K3 = LabeledGraph.complete(3)
S2 = build(2).graph


def test_expected_occurrences_k3():
    report = expected_occurrences(10, K3)
    assert report.aut_count == 6
    assert report.expected_labelled == Fraction(120, 8) == 15
    assert report.expected_isomorphic == 15  # Aut(K3) is the full symmetric group


def test_expected_occurrences_refuses_a_negative_host_size():
    with pytest.raises(DomainError, match="host size n must be >= 0"):
        expected_occurrences(-1, K3)
    assert expected_occurrences(0, K3).expected_labelled == 0


def test_expected_occurrences_s2():
    report = expected_occurrences(12, S2)
    assert report.aut_count == 6
    assert report.expected_isomorphic == Fraction(924 * 120, 2**15) == Fraction(3465, 1024)


def test_expected_occurrences_singleton():
    report = expected_occurrences(9, LabeledGraph.complete(1))
    assert report.expected_labelled == report.expected_isomorphic == 9


def test_plant_occurrence_cases():
    planted = plant_occurrence(LabeledGraph.empty(6), S2, tuple(range(1, 7)))
    assert planted == S2
    overwritten = plant_occurrence(LabeledGraph.complete(6), S2, tuple(range(1, 7)))
    assert overwritten == S2  # overwrite semantics remove clique edges
    g = gnp_sample(20, 0.5, 8)
    subset = (3, 5, 8, 11, 17, 20)
    planted = plant_occurrence(g, S2, subset)
    assert is_ordered_occurrence(planted, subset, S2)
    outside = [e for e in g.edges() if not set(e) <= set(subset)]
    assert all(planted.has_edge(*e) for e in outside)
    with pytest.raises(DomainError, match="size"):
        plant_occurrence(g, S2, (1, 2, 3))


def test_planting_feeds_the_two_part_codec():
    g = gnp_sample(16, 0.5, 21)
    subset = (2, 3, 5, 8, 13, 14)
    planted = plant_occurrence(g, S2, subset)
    side = SideInfo.for_generator("sierpinski:2", 16)
    enc = encode_two_part(encode(planted), subset, side)
    assert decode_two_part(enc, side) == encode(planted)


def test_sample_pattern_free():
    g = sample_pattern_free(10, 0.3, K3, seed=5)
    assert not find_induced_occurrences(g, K3, limit=1)


def test_containment_experiment_deterministic_and_calibrated():
    result = containment_experiment(10, K3, trials=300, seed=2026)
    again = containment_experiment(10, K3, trials=300, seed=2026)
    assert result == again
    assert abs(result.mean_count - 15) / 15 < 0.10


def test_containment_experiment_follows_the_per_trial_seed_contract():
    """Trial i counts the induced copies in G(n, p) sampled with seed
    derive_seed(seed, "trial", i)."""
    counts = [
        len(find_induced_occurrences(gnp_sample(10, 0.5, derive_seed(2026, "trial", i)), K3))
        for i in range(50)
    ]
    result = containment_experiment(10, K3, trials=50, seed=2026)
    assert result.mean_count == sum(counts) / 50
    assert result.containment_frequency == sum(1 for c in counts if c > 0) / 50


def test_containment_below_pattern_size_is_rare():
    # only C(6,6) = 1 subset; isomorphic hit probability is 120/2^15
    result = containment_experiment(6, S2, trials=200, seed=2026)
    assert result.containment_frequency <= 0.05


def test_threshold_sweep_rows_and_cell_reproducibility():
    rows = threshold_sweep([2], [6, 7], trials=25, seed=31)
    by_n = {row["n"]: row for row in rows}
    assert by_n[7]["gain_bits"] == 2
    assert by_n[7]["break_even_ordered"] == pytest.approx(2**2.5)
    single = threshold_sweep([2], [7], trials=25, seed=31)
    assert single[0] == by_n[7]  # per-cell seeds make rows independent


def test_threshold_sweep_below_pattern_size():
    rows = threshold_sweep([1], [2], trials=10, seed=1)
    assert rows[0]["containment_frequency"] == 0.0
    assert rows[0]["gain_bits"] is None


def test_threshold_sweep_boundary_row_without_sampling():
    # at level 3 the real-valued break-even 2^((15-1)/2) lands exactly on 128;
    # sampling C(128,15) subsets is infeasible, so the frequency cell is empty
    rows = threshold_sweep([3], [128], trials=10, seed=1)
    assert rows[0]["break_even_ordered"] == 128.0
    assert rows[0]["containment_frequency"] is None
    assert rows[0]["gain_bits"] is not None


def test_link_lower_threshold_spreads_no_slower():
    config = DiffusionConfig(epsilon=0.02, init_adopters=(), seed=404)
    third = CoordinationGame(a=2, b=1, c=0, d=0)
    quarter = CoordinationGame(a=3, b=1, c=0, d=0)
    row_third = closeknit_diffusion_link([3], third, config, trials=40)[0]
    row_quarter = closeknit_diffusion_link([3], quarter, config, trials=40)[0]
    assert row_quarter["median_hit"] <= row_third["median_hit"]


def test_closeknit_diffusion_link_table():
    game = CoordinationGame(a=2, b=1, c=0, d=0)
    config = DiffusionConfig(epsilon=0.02, init_adopters=(), seed=7)
    rows = closeknit_diffusion_link([2], game, config, trials=10)
    row = rows[0]
    assert row["level"] == 2 and row["n"] == 6
    assert row["r_star"] == "1/3"
    assert row["min_k"] == 4  # frozen from the exhaustive family scan
    assert 0.0 <= row["success_rate"] <= 1.0


def test_table_to_csv_layout():
    text = table_to_csv(
        [{"a": 1, "b": None}], {"seed": 5, "version": "x"}
    )
    lines = text.strip().splitlines()
    assert lines[0] == "# seed = 5"
    assert lines[1] == '# version = "x"'
    assert lines[2] == "a,b"
    assert lines[3] == "1,"
