"""Innovation-adoption dynamics: a 2x2 coordination game on graph vertices.

Each vertex plays A (adopt) or B (status quo).  A revised vertex best
responds to the current strategies of its neighbors: it plays A iff the
fraction of A-neighbors is at least the game's adoption threshold

    r* = (b - c) / ((a - d) + (b - c))

with ties resolved toward A.  With probability epsilon the revision is
noise and the vertex picks a uniformly random strategy instead.  Both
coins are exact integer tests: ``_needs`` gives ceil(r* * deg), the fewest
A-neighbours that make A the best response, and ``rng.uniform_cut(epsilon)``
bounds the noise word (exactly "the word's top 53 bits times 2^-53 < epsilon").
So knife-edge cases (say, exactly one third of the neighborhood adopting
against r* = 1/3) are deterministic.

This is a deliberate reduction of adaptive-play dynamics to asynchronous
myopic best response; the adoption threshold is the single constant that
couples the game to close-knit structure.

The kernel behind ``run`` and ``hitting_time_stats`` keeps each vertex's
count of A-neighbours, updated only when a vertex switches.  It stops at the
first revision whose adoption count reaches its stop, or at the horizon
(200*n if none is set): ``run`` stops at all-A, and a ``hitting_time_stats``
trial at its target, the hit, since a count moves by at most one per
revision.  Trials run in order in the calling thread: the simulation is
pure Python, so threads would add no speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from statistics import median

from .errors import DomainError, check_instance, check_int, check_real
from .graphs import LabeledGraph, _needs, _refuse_isolated, as_subset
from .rng import WordStream, check_seed, derive_seed, uniform_cut

__all__ = [
    "CoordinationGame",
    "DiffusionConfig",
    "Trace",
    "HittingStats",
    "risk_threshold",
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
            try:
                object.__setattr__(self, name, Fraction(getattr(self, name)))
            except (TypeError, ValueError, OverflowError):
                raise DomainError(
                    f"payoff {name} must be a finite rational, got {getattr(self, name)!r}"
                ) from None
        if self.a <= self.d or self.b <= self.c:
            raise DomainError(
                "coordination game requires a > d and b > c so that all-A and "
                f"all-B are strict equilibria; got a={self.a}, b={self.b}, "
                f"c={self.c}, d={self.d}"
            )


def risk_threshold(game: CoordinationGame) -> Fraction:
    """Adoption threshold r* = (b-c)/((a-d)+(b-c)); A is risk-dominant iff r* < 1/2."""
    game = check_instance(game, CoordinationGame, "game")
    return (game.b - game.c) / ((game.a - game.d) + (game.b - game.c))


@dataclass(frozen=True)
class DiffusionConfig:
    """The settings of a run; a horizon of None means 200 revisions per vertex.

    Every field is checked here; ``init_adopters`` (a list or tuple) is kept
    as a tuple of int labels, checked against the graph's range by ``run``.
    """

    epsilon: float = 0.0
    init_adopters: tuple[int, ...] = ()
    horizon: int | None = None
    seed: int = 0
    schedule: str = "uniform-random"  # or "round-robin"
    # tie rule is fixed: adopt A at exact threshold

    def __post_init__(self) -> None:
        if not 0.0 <= check_real(self.epsilon, "epsilon") < 1.0:
            raise DomainError(f"epsilon must be in [0, 1), got {self.epsilon}")
        if self.horizon is not None:
            object.__setattr__(self, "horizon", check_int(self.horizon, "horizon", 1))
        object.__setattr__(self, "seed", check_seed(self.seed))
        if not isinstance(self.init_adopters, (list, tuple)):
            raise DomainError(
                f"init_adopters must be a list or tuple of labels, got {self.init_adopters!r}"
            )
        labels = tuple(check_int(v, "init_adopters label") for v in self.init_adopters)
        object.__setattr__(self, "init_adopters", labels)
        if self.schedule not in ("uniform-random", "round-robin"):
            raise DomainError(
                f"schedule must be 'uniform-random' or 'round-robin', got {self.schedule!r}"
            )


def _check_types(g, game, config) -> None:
    """Refuse a graph, game or config of the wrong type before any is read."""
    kinds = (LabeledGraph, CoordinationGame, DiffusionConfig)
    for value, name, kind in zip((g, game, config), ("graph", "game", "config"), kinds):
        check_instance(value, kind, name)


def _counts(
    g: LabeledGraph,
    game: CoordinationGame,
    config: DiffusionConfig,
    stop: int,
) -> tuple[list[int], tuple[int, ...]]:
    """Adoption counts per revision, up to the first count >= ``stop`` or the
    horizon, and the final adopters.

    A revision compares ``cnt[v]``, v's number of A-neighbours, with
    ``need[v]``.  Words are drawn in order in chunks of 16 doubling to 1024,
    never more than the rest of the horizon could use, so a short run hashes
    few words it does not read.
    """
    if g.n == 0:
        raise DomainError("diffusion needs at least one vertex")
    _refuse_isolated(g, g.vertices(), "the revision rule is undefined")
    init = as_subset(config.init_adopters, g.n)
    n, adj = g.n, g.adj
    r_star = risk_threshold(game)
    need = _needs(adj, r_star)  # adj[0] is empty, so need[0] = 0
    plays = [False] * (n + 1)
    cnt = [0] * (n + 1)
    for v in init:
        plays[v] = True
        for u in adj[v]:
            cnt[u] += 1
    count = len(init)
    counts = [count]
    noisy = config.epsilon > 0.0
    cut = uniform_cut(config.epsilon)
    round_robin = config.schedule == "round-robin"
    per_revision = (0 if round_robin else 1) + (2 if noisy else 0)  # most words one revision draws
    horizon = 200 * n if config.horizon is None else config.horizon
    stream = WordStream(config.seed, domain=b"gasketlab-diffusion")
    words: list[int] = []
    i, chunk, t = 0, 16, 0
    while count < stop and t < horizon:
        if len(words) - i < per_revision:
            words = words[i:] + stream.words(min(chunk, per_revision * (horizon - t)))
            i, chunk = 0, min(2 * chunk, 1024)
        if round_robin:
            v = t % n + 1
        else:
            v = words[i] % n + 1
            i += 1
        t += 1
        if noisy and words[i] < cut:  # noise fired: the next word's low bit picks
            a = bool(words[i + 1] & 1)
            i += 2
        else:
            a = cnt[v] >= need[v]
            i += noisy  # the noise coin, if one was drawn
        if a != plays[v]:
            plays[v] = a
            step = 1 if a else -1
            count += step
            for u in adj[v]:
                cnt[u] += step
        counts.append(count)
    return counts, tuple(v for v in range(1, n + 1) if plays[v])


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
    schedule only; vertex ``word mod n + 1``), then noise coin (only if
    epsilon > 0), then strategy coin (only if the noise fired; A iff the word
    is odd).  With epsilon = 0 the all-A state is absorbing.
    """
    _check_types(g, game, config)
    counts, final = _counts(g, game, config, g.n)
    hit = len(counts) - 1 if counts[-1] == g.n else None
    return Trace(tuple(counts), hit, final)


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

    Trial i is the run with seed derive_seed(config.seed, "trial", i), stopped
    at its first count >= target: that revision is its hit.  The statistics
    are exact over the samples.  The target is ceil(adoption_fraction * n)
    for the exact binary value of a float, as in ``gnp_sample`` and
    ``rng.uniform_cut``: 0.9 is slightly above 9/10, so on 10 vertices it
    targets all 10; pass ``Fraction(9, 10)`` for 9.
    """
    _check_types(g, game, config)
    trials = check_int(trials, "trials", 1)
    if not 0 < check_real(adoption_fraction, "adoption_fraction") <= 1:
        raise DomainError(f"adoption_fraction must be in (0, 1], got {adoption_fraction}")
    target = math.ceil(Fraction(adoption_fraction) * g.n)
    seeds = (derive_seed(config.seed, "trial", i) for i in range(trials))
    runs = (_counts(g, game, replace(config, seed=s), target)[0] for s in seeds)
    hits = tuple(len(counts) - 1 if counts[-1] >= target else None for counts in runs)
    successes = sorted(h for h in hits if h is not None)
    rate = len(successes) / trials
    if not successes:
        return HittingStats(trials, rate, None, None, hits)
    med = float(median(successes))
    lower = float(median(successes[: (len(successes) + 1) // 2]))
    upper = float(median(successes[len(successes) // 2 :]))
    return HittingStats(trials, rate, med, (lower, upper), hits)
