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
count of A-neighbours and whether its best response differs from what it
plays, both updated only when a vertex switches, so a quiet revision is
one list read.  It records only the switches, and stops at the first
revision whose adoption count reaches its stop, or at the horizon (200*n
if none is set): ``run`` stops at all-A and expands the switches into its
trace, and a ``hitting_time_stats`` trial stops at its target, the hit,
since a count moves by at most one per revision, in memory that grows
with its switches, not its revisions.  Work that does not depend on the
seed is done once per call.  Trials run in order in the calling thread:
the simulation is pure Python, so threads would add no speed.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import field
from fractions import Fraction
from itertools import chain, repeat
from statistics import median

from .errors import (
    DomainError, Record, ResourceLimitError, check_instance, check_int, check_real, shown,
)
from .graphs import LabeledGraph, _below, _needs, _refuse_isolated, as_subset
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

# The longest horizon ``run`` takes: its trace holds horizon + 1 counts, and
# the default horizon 200 n of S9 (1,968,600 revisions) fits.
TRACE_REVISIONS_MAX = 1 << 21
_SWAP = sys.byteorder == "little"  # the stream's words are big-endian


class CoordinationGame(Record):
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
                "all-B are strict equilibria; got "
                + ", ".join(f"{x}={shown(getattr(self, x), str)}" for x in "abcd")
            )


def risk_threshold(game: CoordinationGame) -> Fraction:
    """Adoption threshold r* = (b-c)/((a-d)+(b-c)); A is risk-dominant iff r* < 1/2."""
    game = check_instance(game, CoordinationGame, "game")
    return (game.b - game.c) / ((game.a - game.d) + (game.b - game.c))


class DiffusionConfig(Record):
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
            raise DomainError(f"epsilon must be in [0, 1), got {shown(self.epsilon, str)}")
        if self.horizon is not None:
            object.__setattr__(self, "horizon", check_int(self.horizon, "horizon", 1))
        object.__setattr__(self, "seed", check_seed(self.seed))
        if not isinstance(self.init_adopters, (list, tuple)):
            raise DomainError(
                f"init_adopters must be a list or tuple of labels, got {shown(self.init_adopters)}"
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


def _kernel(g: LabeledGraph, game: CoordinationGame, config: DiffusionConfig):
    """The per-call constants of the dynamics and ``trial(seed, stop)``, the
    one statement of the revision rule.  A trial runs to the first revision
    whose adoption count reaches ``stop``, or to the horizon, and returns
    its switch events ``(revision, count)`` led by ``(0, initial count)``,
    the number of revisions run and the final strategies (A = True) of
    vertices 0..n-1.

    Besides ``cnt[v]``, v's number of A-neighbours, each vertex keeps
    ``off[v]``: whether its best response, A iff cnt[v] >= need[v], differs
    from what it plays.  Only a switch changes either, at the switching
    vertex and its neighbours, so a quiet revision of v switches iff off[v].
    A revision draws its schedule word (uniform-random only), then its
    noise coin (epsilon > 0 only), then, if the coin fired, its strategy
    word.  Words are drawn in chunks of 16 doubling to 1024, never more
    than the rest of the horizon could use; a chunk is decoded at once into
    an array, with its coins flagged by ``_below``, so the revisions up to
    the next fired coin are quiet and their schedule words are one stride
    slice of the chunk.  With epsilon = 0 and no vertex off, the state is
    absorbing: the trial runs on to the horizon without drawing a word.
    """
    if g.n == 0:
        raise DomainError("diffusion needs at least one vertex")
    _refuse_isolated(g, g.vertices(), "the revision rule is undefined")
    init = as_subset(config.init_adopters, g.n)
    n = g.n
    adj = [[u - 1 for u in row] for row in g.adj[1:]]
    need = _needs(adj, risk_threshold(game))
    plays0, cnt0 = [False] * n, [0] * n
    for v in init:
        plays0[v - 1] = True
        for u in adj[v - 1]:
            cnt0[u] += 1
    off0 = [(c >= k) != a for c, k, a in zip(cnt0, need, plays0)]
    noisy = config.epsilon > 0.0
    cut = uniform_cut(config.epsilon)
    round_robin = config.schedule == "round-robin"
    stride = (0 if round_robin else 1) + noisy  # words a quiet revision draws
    most = stride + noisy  # words a fired revision draws
    horizon = 200 * n if config.horizon is None else config.horizon

    def trial(seed: int, stop: int) -> tuple[list[tuple[int, int]], int, list[bool]]:
        plays, cnt, off = plays0[:], cnt0[:], off0[:]
        count, n_off = len(init), sum(off)
        events = [(0, count)]

        def switch(v: int, t: int) -> bool:
            """v switches at revision t; whether the trial ends there."""
            nonlocal count, n_off
            a = plays[v] = not plays[v]
            o = off[v] = not off[v]  # v's best response is unchanged
            n_off += 1 if o else -1
            step = 1 if a else -1
            count += step
            for u in adj[v]:
                c = cnt[u] = cnt[u] + step
                o = (c >= need[u]) != plays[u]
                if o != off[u]:
                    off[u] = o
                    n_off += 1 if o else -1
            events.append((t, count))
            return count >= stop or not (n_off or noisy)

        if count >= stop:
            return events, 0, plays
        if not (n_off or noisy):
            return events, horizon, plays
        stream = WordStream(seed, domain=b"gasketlab-diffusion")
        data, words, views, p, chunk, t = b"", array("Q"), (), 0, 16, 0
        while t < horizon:
            if stride and len(words) - p < most:
                data = data[8 * p :] + stream.word_bytes(min(chunk, most * (horizon - t)))
                words = array("Q", data)
                if _SWAP:
                    words.byteswap()
                p, chunk = 0, min(2 * chunk, 1024)
                if noisy:
                    flags = _below(data, cut)
                    views = [flags[r::stride] for r in range(stride)]
            quiet = (len(words) - p) // stride if stride else horizon - t
            fired = False
            if noisy:  # coins at c, c + stride, ...: the next one below cut ends the run
                c = p + stride - 1
                i = views[c % stride].find(1, c // stride)
                if i >= 0:
                    quiet, fired = i - c // stride, True
            if quiet >= horizon - t:
                quiet, fired = horizon - t, False
            source = range(t, t + quiet) if round_robin else words[p : p + quiet * stride : stride]
            for t, w in enumerate(source, t + 1):
                if off[w % n] and switch(w % n, t):
                    return events, t if count >= stop else horizon, plays
            p += quiet * stride
            if fired and p + stride < len(words):  # the strategy word is in this chunk
                v = (t if round_robin else words[p]) % n
                t, p = t + 1, p + most
                if bool(words[p - 1] & 1) != plays[v] and switch(v, t):
                    return events, t if count >= stop else horizon, plays
        return events, horizon, plays

    return trial, horizon


class Trace(Record):
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
    is odd).  With epsilon = 0 the all-A state is absorbing.  The trace holds
    a count per revision, so a horizon past ``TRACE_REVISIONS_MAX`` raises
    ResourceLimitError before any word is drawn; ``hitting_time_stats`` has
    no such cap.
    """
    _check_types(g, game, config)
    trial, horizon = _kernel(g, game, config)
    if horizon > TRACE_REVISIONS_MAX:
        shown = horizon if horizon < 1 << 64 else f"of {horizon.bit_length()} bits"
        raise ResourceLimitError(
            f"horizon {shown} exceeds the trace cap TRACE_REVISIONS_MAX = {TRACE_REVISIONS_MAX}"
        )
    events, revisions, plays = trial(config.seed, g.n)
    ends = [t for t, _ in events[1:]] + [revisions + 1]
    counts = chain.from_iterable(repeat(c, end - t) for (t, c), end in zip(events, ends))
    hit = revisions if events[-1][1] == g.n else None
    return Trace(tuple(counts), hit, tuple(v + 1 for v, a in enumerate(plays) if a))


class HittingStats(Record):
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
        raise DomainError(
            f"adoption_fraction must be in (0, 1], got {shown(adoption_fraction, str)}"
        )
    target = math.ceil(Fraction(adoption_fraction) * g.n)
    trial, _ = _kernel(g, game, config)
    runs = (trial(derive_seed(config.seed, "trial", i), target) for i in range(trials))
    hits = tuple(revisions if events[-1][1] >= target else None for events, revisions, _ in runs)
    successes = sorted(h for h in hits if h is not None)
    rate = len(successes) / trials
    if not successes:
        return HittingStats(trials, rate, None, None, hits)
    med = float(median(successes))
    lower = float(median(successes[: (len(successes) + 1) // 2]))
    upper = float(median(successes[len(successes) // 2 :]))
    return HittingStats(trials, rate, med, (lower, upper), hits)
