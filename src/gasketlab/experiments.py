"""Statistical harness: first-moment occurrence counts, planting, empirical
containment against exact codec thresholds, and cross-module sweep tables.

Sampling fixes p = 1/2 by default: the uniform distribution over C(n,2)-bit
strings is exactly G(n, 1/2), which is the ensemble the incompressibility
accounting speaks about.  Other p values are supported but flagged as
outside that model.  Every cell of every table derives its own seed from
the master seed, so rows reproduce in isolation.  Trials run in order in
the calling thread; trial i's seed depends only on the master seed and i.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb, factorial
from typing import Iterable, Sequence

from . import closeknit, diffusion, ramsey, sierpinski, twopart
from .errors import DomainError, ResourceLimitError
from .graphs import LabeledGraph, _from_neighbours, as_subset, gnp_sample
from .isomorphism import automorphism_count as aut_count
from .rng import derive_seed

__all__ = [
    "MomentReport",
    "aut_count",
    "expected_occurrences",
    "plant_occurrence",
    "sample_pattern_free",
    "containment_experiment",
    "ContainmentResult",
    "threshold_sweep",
    "closeknit_diffusion_link",
    "table_to_csv",
]

REJECT_ATTEMPTS_MAX = 10_000  # samples tried by sample_pattern_free
SWEEP_SUBSETS_MAX = 200_000  # largest C(n, k) a threshold_sweep cell samples
LINK_K_CAP = 8  # largest group size closeknit_diffusion_link scans


@dataclass(frozen=True)
class MomentReport:
    """Exact expected induced-copy counts in G(n, 1/2).

    A fixed k-subset induces one specific labeled graph with probability
    2^-C(k,2); there are k!/|Aut(H)| labeled graphs isomorphic to H.
    """

    n: int
    k: int
    aut_count: int
    expected_labelled: Fraction
    expected_isomorphic: Fraction


def expected_occurrences(n: int, pattern: LabeledGraph) -> MomentReport:
    k = pattern.n
    aut = aut_count(pattern)
    per_subset = Fraction(1, 2 ** comb(k, 2))
    labelled = comb(n, k) * per_subset
    isomorphic = labelled * (factorial(k) // aut)
    return MomentReport(
        n=n,
        k=k,
        aut_count=aut,
        expected_labelled=labelled,
        expected_isomorphic=isomorphic,
    )


def plant_occurrence(
    g: LabeledGraph, pattern: LabeledGraph, subset: Iterable[int]
) -> LabeledGraph:
    """Overwrite the edges inside ``subset`` so it induces ``pattern``
    exactly under rank relabeling; all other edges untouched."""
    sub = as_subset(subset, g.n, nonempty=True)
    if len(sub) != pattern.n:
        raise DomainError(
            f"subset size {len(sub)} must equal pattern size {pattern.n}"
        )
    # only the subset's rows change; rank relabeling is positional, so
    # sub[t-1] plays pattern vertex t
    inside = frozenset(sub)
    adj = list(g.adj)
    for t, v in enumerate(sub, 1):
        adj[v] = (adj[v] - inside) | {sub[b - 1] for b in pattern.adj[t]}
    return _from_neighbours(g.n, adj)


def sample_pattern_free(
    n: int,
    p: float,
    pattern: LabeledGraph,
    seed: int,
) -> LabeledGraph:
    """Rejection-sample G(n, p) conditioned on containing no induced copy.

    Attempt i < ``REJECT_ATTEMPTS_MAX`` uses seed derive_seed(seed, "reject", i);
    the accepted sample has the exact conditional distribution.
    """
    for attempt in range(REJECT_ATTEMPTS_MAX):
        g = gnp_sample(n, p, derive_seed(seed, "reject", attempt))
        if not ramsey.find_induced_occurrences(g, pattern, limit=1):
            return g
    raise ResourceLimitError(
        f"no pattern-free G({n},{p}) sample within {REJECT_ATTEMPTS_MAX} attempts"
    )


@dataclass(frozen=True)
class ContainmentResult:
    n: int
    pattern_size: int
    trials: int
    mean_count: float
    containment_frequency: float
    expected_isomorphic: Fraction


def containment_experiment(
    n: int,
    pattern: LabeledGraph,
    trials: int,
    seed: int,
    p: float = 0.5,
) -> ContainmentResult:
    """Sample mean of induced-isomorphic-copy counts and containment rate.

    Trial i samples G(n, p) with seed derive_seed(seed, "trial", i); the
    trials run in order.
    """
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    samples = (gnp_sample(n, p, derive_seed(seed, "trial", i)) for i in range(trials))
    counts = [len(ramsey.find_induced_occurrences(g, pattern)) for g in samples]
    return ContainmentResult(
        n=n,
        pattern_size=pattern.n,
        trials=trials,
        mean_count=sum(counts) / trials,
        containment_frequency=sum(1 for c in counts if c > 0) / trials,
        expected_isomorphic=expected_occurrences(n, pattern).expected_isomorphic,
    )


def threshold_sweep(
    levels: Sequence[int],
    n_values: Sequence[int],
    trials: int,
    seed: int,
) -> list[dict[str, object]]:
    """Per (level, n): codec gain, break-even bounds, and empirical
    containment frequency of the gasket pattern in G(n, 1/2).

    Cell (l, n) derives seed ("sweep", l, n) so any row reproduces alone.
    A cell with C(n, k) above ``SWEEP_SUBSETS_MAX`` keeps its exact columns
    but reports no frequency: C(n, k) is a size proxy that keeps sampling
    cheap, not a count of subsets the occurrence search visits.  The bound
    columns are the point of such rows.
    """
    rows: list[dict[str, object]] = []
    for level in levels:
        pattern = sierpinski.build(level).graph
        k = pattern.n
        bounds = twopart.asymptotic_bounds(k)
        for n in n_values:
            if n < k:
                frequency: float | None = 0.0  # impossible below pattern size
                bit_gain = None
            elif comb(n, k) > SWEEP_SUBSETS_MAX:
                frequency = None  # sampling infeasible at this size
                bit_gain = twopart.gain(n, k, ordered=True)
            else:
                cell_seed = derive_seed(seed, "sweep", level, n)
                result = containment_experiment(n, pattern, trials, cell_seed)
                frequency = result.containment_frequency
                bit_gain = twopart.gain(n, k, ordered=True)
            rows.append(
                {
                    "level": level,
                    "k": k,
                    "n": n,
                    "gain_bits": bit_gain,
                    "break_even_ordered": bounds.ordered,
                    "break_even_log_slack": bounds.ordered_log_slack,
                    "containment_frequency": frequency,
                }
            )
    return rows


def closeknit_diffusion_link(
    levels: Sequence[int],
    game: diffusion.CoordinationGame,
    config: diffusion.DiffusionConfig,
    trials: int,
) -> list[dict[str, object]]:
    """Per gasket level: adoption threshold, minimal close-knit k <= LINK_K_CAP
    at that threshold, and hitting-time statistics from one elementary triangle.

    ``config.horizon`` applies to every level; None means 200 times the
    level's vertex count.  Each trial ends at its first all-A revision.
    """
    r_star = diffusion.risk_threshold(game)
    rows: list[dict[str, object]] = []
    for level in levels:
        gasket = sierpinski.build(level)
        scan = closeknit.family_scan({level: gasket.graph}, r_star, k_cap=LINK_K_CAP)
        init = (
            as_subset(config.init_adopters, gasket.graph.n)
            if config.init_adopters
            else sierpinski.elementary_triangles(gasket)[0]
        )
        level_config = replace(
            config, init_adopters=init, seed=derive_seed(config.seed, "link", level)
        )
        stats = diffusion.hitting_time_stats(gasket.graph, game, level_config, trials)
        rows.append(
            {
                "level": level,
                "n": gasket.graph.n,
                "r_star": str(r_star),
                "min_k": scan[level],
                "success_rate": stats.success_rate,
                "median_hit": stats.median_hit,
            }
        )
    return rows


def table_to_csv(
    rows: list[dict[str, object]], metadata: dict[str, object]
) -> str:
    """Render a sweep table as CSV with '#'-prefixed metadata header lines."""
    lines = [f"# {key} = {json.dumps(metadata[key], sort_keys=True)}" for key in sorted(metadata)]
    if rows:
        columns = list(rows[0].keys())
        lines.append(",".join(columns))
        for row in rows:
            lines.append(
                ",".join("" if row[c] is None else str(row[c]) for c in columns)
            )
    return "\n".join(lines) + "\n"
