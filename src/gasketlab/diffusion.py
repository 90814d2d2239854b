"""Innovation-adoption dynamics: a 2x2 coordination game on graph vertices.

Each vertex plays A (adopt) or B (status quo).  A revised vertex best
responds to the current strategies of its neighbors: it plays A iff the
fraction of A-neighbors is at least the game's adoption threshold

    r* = (b - c) / ((a - d) + (b - c))

with ties resolved toward A.  With probability epsilon the revision is
noise and the vertex picks a uniformly random strategy instead.  The
threshold comparison is exact rational arithmetic, so knife-edge cases
(say, exactly one third of the neighborhood adopting against r* = 1/3)
are deterministic.

This is a deliberate reduction of adaptive-play dynamics to asynchronous
myopic best response; the adoption threshold is the single constant that
couples the game to close-knit structure.  ``revise`` and ``run`` share one
revision step, so a chain of ``revise`` calls on one word stream replays
``run``.  A run ends at its first all-A revision or at the horizon, 200*n if
none is set.  ``hitting_time_stats`` runs its trials in order in the calling
thread: the simulation is pure Python, so threads would add no speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from statistics import median

from .errors import DomainError
from .graphs import LabeledGraph, as_subset
from .rng import WordStream, derive_seed

__all__ = [
    "CoordinationGame",
    "DiffusionConfig",
    "DiffusionState",
    "Trace",
    "HittingStats",
    "risk_threshold",
    "revise",
    "run",
    "hitting_time_stats",
]


@dataclass(frozen=True)
class CoordinationGame:
    """Symmetric 2x2 game; entries are the row player's payoffs."""

    a: Fraction  # payoff(A, A)
    b: Fraction  # payoff(B, B)
    c: Fraction  # payoff(A, B)
    d: Fraction  # payoff(B, A)

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.a <= self.d or self.b <= self.c:
            raise DomainError(
                "coordination game requires a > d and b > c so that all-A and "
                f"all-B are strict equilibria; got a={self.a}, b={self.b}, "
                f"c={self.c}, d={self.d}"
            )


def risk_threshold(game: CoordinationGame) -> Fraction:
    """Adoption threshold r* = (b-c)/((a-d)+(b-c)); A is risk-dominant iff r* < 1/2."""
    return (game.b - game.c) / ((game.a - game.d) + (game.b - game.c))


@dataclass(frozen=True)
class DiffusionConfig:
    """The settings of a run; a horizon of None means 200 revisions per vertex."""

    epsilon: float = 0.0
    init_adopters: tuple[int, ...] = ()
    horizon: int | None = None
    seed: int = 0
    schedule: str = "uniform-random"  # or "round-robin"
    # tie rule is fixed: adopt A at exact threshold

    def __post_init__(self) -> None:
        if not (0.0 <= self.epsilon < 1.0):
            raise DomainError(f"epsilon must be in [0, 1), got {self.epsilon}")
        if self.horizon is not None and self.horizon <= 0:
            raise DomainError(f"horizon must be positive, got {self.horizon}")
        if self.schedule not in ("uniform-random", "round-robin"):
            raise DomainError(
                f"schedule must be 'uniform-random' or 'round-robin', got {self.schedule!r}"
            )


@dataclass(frozen=True)
class DiffusionState:
    adopters: frozenset[int]
    t: int = 0

    def strategy(self, v: int) -> str:
        return "A" if v in self.adopters else "B"


def _plays_a(
    g: LabeledGraph,
    adopters: frozenset[int] | set[int],
    v: int,
    r_star: Fraction,
    epsilon: float,
    stream: WordStream,
) -> bool:
    """The strategy vertex v picks in one revision: True for A.

    Draws one noise coin iff epsilon > 0 and one strategy coin iff the noise
    fires; otherwise v best responds exactly, ties to A.
    """
    if epsilon > 0.0 and stream.uniform() < epsilon:
        return bool(stream.next_word() & 1)
    nbrs = g.adj[v]
    deg = len(nbrs)
    if deg == 0:
        raise DomainError(
            f"vertex {v} is isolated; best response against an empty "
            "neighborhood is undefined"
        )
    a_count = sum(1 for u in nbrs if u in adopters)
    # exact: a_count/deg >= p/q  <=>  a_count*q >= p*deg ; tie goes to A
    return a_count * r_star.denominator >= r_star.numerator * deg


def revise(
    state: DiffusionState,
    v: int,
    g: LabeledGraph,
    game: CoordinationGame,
    config: DiffusionConfig,
    stream: WordStream | None = None,
) -> DiffusionState:
    """One revision of vertex v; pure - returns the successor state.

    One noise coin is consumed iff epsilon > 0, and one strategy coin iff
    the noise fires; ``stream`` defaults to a fresh stream from config.seed.
    """
    if not (1 <= v <= g.n):
        raise DomainError(f"vertex {v} out of range 1..{g.n}")
    if stream is None:
        stream = WordStream(config.seed, domain=b"gasketlab-diffusion")
    adopters = set(state.adopters)
    if _plays_a(g, state.adopters, v, risk_threshold(game), config.epsilon, stream):
        adopters.add(v)
    else:
        adopters.discard(v)
    return DiffusionState(frozenset(adopters), state.t + 1)


@dataclass(frozen=True)
class Trace:
    """Adoption counts per revision (index 0 = initial state) up to the horizon
    or the hitting time, the first revision at which every vertex adopted."""

    adoption_counts: tuple[int, ...]
    hitting_time: int | None
    final_adopters: tuple[int, ...]


def run(
    g: LabeledGraph,
    game: CoordinationGame,
    config: DiffusionConfig,
) -> Trace:
    """Simulate revisions up to all-A or the horizon; deterministic given the config.

    Word-stream consumption order per revision: schedule draw (uniform-random
    schedule only), then noise coin (only if epsilon > 0), then strategy coin
    (only if the noise fired).  With epsilon = 0 the all-A state is absorbing.
    """
    if g.n == 0:
        raise DomainError("diffusion needs at least one vertex")
    for v in g.vertices():
        if g.degree(v) == 0:
            raise DomainError(f"vertex {v} is isolated; the revision rule is undefined")
    init = as_subset(config.init_adopters, g.n)
    r_star = risk_threshold(game)
    stream = WordStream(config.seed, domain=b"gasketlab-diffusion")
    adopters = set(init)
    counts = [len(adopters)]
    n = g.n
    epsilon = config.epsilon
    round_robin = config.schedule == "round-robin"
    horizon = 200 * n if config.horizon is None else config.horizon
    t = 0
    while counts[-1] < n and t < horizon:
        t += 1
        v = ((t - 1) % n) + 1 if round_robin else stream.index(n) + 1
        if _plays_a(g, adopters, v, r_star, epsilon, stream):
            adopters.add(v)
        else:
            adopters.discard(v)
        counts.append(len(adopters))
    hit = t if counts[-1] == n else None
    return Trace(tuple(counts), hit, tuple(sorted(adopters)))


@dataclass(frozen=True)
class HittingStats:
    trials: int
    success_rate: float
    median_hit: float | None
    quartiles: tuple[float, float] | None  # (lower, upper) over successes
    hit_times: tuple[int | None, ...] = field(repr=False, default=())


def hitting_time_stats(
    g: LabeledGraph,
    game: CoordinationGame,
    config: DiffusionConfig,
    trials: int,
    adoption_fraction: float = 0.99,
) -> HittingStats:
    """Per-trial hitting times to >= ``adoption_fraction`` adoption.

    Trial i is ``run`` with seed derive_seed(config.seed, "trial", i); its hit
    is the first count >= target, which (counts move by one) the trace holds
    even though it ends at all-A.  The statistics are exact over the samples.
    """
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if not 0 < adoption_fraction <= 1:
        raise DomainError(f"adoption_fraction must be in (0, 1], got {adoption_fraction}")
    target = math.ceil(Fraction(adoption_fraction) * g.n)
    seeds = (derive_seed(config.seed, "trial", i) for i in range(trials))
    traces = (run(g, game, replace(config, seed=s)) for s in seeds)
    hits = tuple(
        next((t for t, count in enumerate(trace.adoption_counts) if count >= target), None)
        for trace in traces
    )
    successes = sorted(h for h in hits if h is not None)
    rate = len(successes) / trials
    if not successes:
        return HittingStats(trials, rate, None, None, hits)
    med = float(median(successes))
    lower = float(median(successes[: (len(successes) + 1) // 2]))
    upper = float(median(successes[len(successes) // 2 :]))
    return HittingStats(trials, rate, med, (lower, upper), hits)
