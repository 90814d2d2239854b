"""Exact close-knit ratio computation and (r, k)-close-knit certification.

A group S of vertices has close-knit ratio

    min over nonempty S' <= S  of  d(S', S) / sum_{i in S'} deg(i)

where d(S', S) counts edges with one endpoint in S' and the other in S,
edges inside S' counted once.  A graph is (r, k)-close-knit when every
vertex belongs to some group of size <= k whose ratio is at least r.

All ratio arithmetic is exact rational; threshold comparisons (for example
against 1/2) never touch floating point.  Certification never computes a
minimum: with r = p/q it only asks whether every slack q d(S', S) - p vol(S')
is nonnegative, which is integer arithmetic that stops at the first negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import DomainError, ResourceLimitError
from .graphs import LabeledGraph, as_subset

__all__ = [
    "GroupReport",
    "CloseKnitResult",
    "internal_degree",
    "min_ratio",
    "is_rk_closeknit",
    "family_scan",
]

GROUP_SIZE_MAX = 20
GROUPS_PER_VERTEX_CAP = 200_000


@dataclass(frozen=True)
class GroupReport:
    group: tuple[int, ...]
    min_ratio: Fraction
    argmin: tuple[int, ...]  # lexicographically smallest minimizing subset


@dataclass(frozen=True)
class CloseKnitResult:
    r: Fraction
    k: int
    success: bool
    witness: dict[int, tuple[int, ...]] | None  # vertex -> qualifying group
    failed_vertex: int | None
    groups_examined: int


def _check_group(g: LabeledGraph, members: Iterable[int]) -> tuple[int, ...]:
    group = as_subset(members, g.n, nonempty=True)
    for v in group:
        if g.degree(v) == 0:
            raise DomainError(
                f"vertex {v} is isolated; close-knit ratios assume no isolated vertices"
            )
    return group


def internal_degree(
    g: LabeledGraph, sprime: Iterable[int], s: Iterable[int]
) -> int:
    """d(S', S): edges {i, j} with i in S' and j in S; internal edges once."""
    s_tup = as_subset(s, g.n, nonempty=True)
    sp_tup = as_subset(sprime, g.n, nonempty=True)
    s_set = set(s_tup)
    sp_set = set(sp_tup)
    if not sp_set <= s_set:
        raise DomainError("S' must be a subset of S")
    count = 0
    for i in sp_tup:
        for j in g.adj[i]:
            if j not in s_set:
                continue
            if j in sp_set:
                if j > i:  # count internal edges once
                    count += 1
            else:
                count += 1
    return count


def _in_group_rows(g: LabeledGraph, group: tuple[int, ...]) -> Iterator[tuple[int, int]]:
    """Per member of ``group`` in order: its neighbours in the group as a
    bitmask (bit t <-> member group[t]) and its degree."""
    index = {v: t for t, v in enumerate(group)}
    for v in group:
        row = g.adj[v]
        mask = 0
        for u in row:
            if u in index:
                mask |= 1 << index[u]
        yield mask, len(row)


def _lex_less(a: int, b: int) -> bool:
    """Whether subset mask a sorts before mask b as a tuple of members.

    At the lowest differing bit lo, the mask holding lo is smaller unless
    the other mask ends there (has no bit above lo)."""
    lo = (a ^ b) & -(a ^ b)
    return b >= lo if a & lo else a < lo


def min_ratio(g: LabeledGraph, group: Iterable[int]) -> GroupReport:
    """Exact minimum of d(S', S) / sum_{i in S'} deg(i) over nonempty S' <= S.

    Enumerates all 2^|S| - 1 subsets as bitmasks (|S| <= 20) in one pass.
    The masks of block t are {t} | rest for every rest below bit t, and

        d(S' + t, S) = d(S', S) + |N(t) & S| - |N(t) & S'|,

    so each mask costs one popcount.  Ties on the minimum are broken by
    the lexicographically smallest subset, tracked inside the same pass.
    """
    s_tup = _check_group(g, group)
    m = len(s_tup)
    if m > GROUP_SIZE_MAX:
        raise ResourceLimitError(
            f"group size {m} exceeds the exhaustive-enumeration bound {GROUP_SIZE_MAX}"
        )
    num = [0]  # num[mask] = d(S', S)
    den = [0]  # den[mask] = sum of degrees over S'
    best_num, best_den, best = 2, 1, 0  # every ratio is <= 1
    for t, (nt, deg) in enumerate(_in_group_rows(g, s_tup)):
        in_s, top = nt.bit_count(), 1 << t
        for rest in range(top):
            x = num[rest] + in_s - (nt & rest).bit_count()
            y = den[rest] + deg
            num.append(x)
            den.append(y)
            cmp = x * best_den - best_num * y
            if cmp < 0 or (cmp == 0 and _lex_less(top | rest, best)):
                best_num, best_den, best = x, y, top | rest
    argmin = tuple(v for t, v in enumerate(s_tup) if best >> t & 1)
    return GroupReport(group=s_tup, min_ratio=Fraction(best_num, best_den), argmin=argmin)


def _ratio_at_least(g: LabeledGraph, group: tuple[int, ...], r: Fraction) -> bool:
    """Whether min_ratio(g, group) >= r, for a valid sorted group.

    With r = p/q, tracks slack(S') = q d(S', S) - p vol(S') over the same
    blocks as ``min_ratio`` and answers False at the first negative slack;
    the singletons are checked first.  Integer arithmetic only.
    """
    p, q = r.numerator, r.denominator
    nbr, gains = [], []
    for nt, deg in _in_group_rows(g, group):
        gain = q * nt.bit_count() - p * deg  # slack of the singleton
        if gain < 0:
            return False
        nbr.append(nt)
        gains.append(gain)
    slack = [0]
    for nt, gain in zip(nbr, gains):
        block = [slack[rest] + gain - q * (nt & rest).bit_count() for rest in range(len(slack))]
        if min(block) < 0:
            return False
        slack += block
    return True


def _connected_groups_from(
    g: LabeledGraph, v: int, k: int, cap: int
) -> Iterable[tuple[int, ...]]:
    """All connected vertex sets containing v with size <= k, each once.

    Branch-and-forbid enumeration: extension candidates are consumed in
    ascending label order, and choosing candidate u forbids all candidates
    listed before u in every deeper branch, so no set is produced twice.
    """
    produced = 0

    def rec(current: tuple[int, ...], ext: list[int], forbidden: set[int]):
        nonlocal produced
        produced += 1
        if produced > cap:
            raise ResourceLimitError(
                f"connected-group search around vertex {v} exceeded cap {cap}"
            )
        yield current
        if len(current) == k:
            return
        cur_set = set(current)
        for idx, u in enumerate(ext):
            new_forbidden = forbidden | set(ext[:idx])
            fresh = sorted(
                w
                for w in g.adj[u]
                if w not in cur_set and w not in new_forbidden and w not in ext
            )
            yield from rec(
                tuple(sorted(current + (u,))),
                ext[idx + 1 :] + fresh,
                new_forbidden,
            )

    yield from rec((v,), sorted(g.adj[v]), set())


def is_rk_closeknit(
    g: LabeledGraph,
    r: Fraction | int,
    k: int,
    groups_cap: int = GROUPS_PER_VERTEX_CAP,
) -> CloseKnitResult:
    """Search, per vertex, for a connected group of size <= k with ratio >= r.

    The candidate space is connected vertex sets containing the vertex
    (declared search scope; a qualifying group found for one vertex is
    reused as the witness for all its members).  Vertices are processed in
    label order and candidates in enumeration order, so the witness map is
    deterministic.  Each candidate is tested for ratio >= r by integer slack
    with an early exit (``_ratio_at_least``), not by computing its minimum.
    """
    if k < 1 or k > GROUP_SIZE_MAX:
        raise DomainError(f"group-size bound k must be in 1..{GROUP_SIZE_MAX}, got {k}")
    r = Fraction(r)
    for v in g.vertices():
        if g.degree(v) == 0:
            raise DomainError(
                f"vertex {v} is isolated; close-knit certification assumes none"
            )
    witness: dict[int, tuple[int, ...]] = {}
    examined = 0
    for v in g.vertices():
        if v in witness:
            continue
        found = None
        for group in _connected_groups_from(g, v, k, groups_cap):
            examined += 1
            if _ratio_at_least(g, group, r):
                found = group
                break
        if found is None:
            return CloseKnitResult(
                r=r,
                k=k,
                success=False,
                witness=None,
                failed_vertex=v,
                groups_examined=examined,
            )
        for u in found:
            witness.setdefault(u, found)
    return CloseKnitResult(
        r=r,
        k=k,
        success=True,
        witness=witness,
        failed_vertex=None,
        groups_examined=examined,
    )


def family_scan(
    graphs: dict[int, LabeledGraph],
    r: Fraction | int,
    k_cap: int = 8,
    groups_cap: int = GROUPS_PER_VERTEX_CAP,
) -> dict[int, int | None]:
    """Minimal k <= k_cap for which each graph is (r, k)-close-knit.

    Keys of ``graphs`` are arbitrary identifiers (typically gasket levels);
    value None records that no k <= k_cap succeeded.
    """
    out: dict[int, int | None] = {}
    for key in sorted(graphs):
        g = graphs[key]
        found: int | None = None
        for k in range(1, k_cap + 1):
            if is_rk_closeknit(g, r, k, groups_cap=groups_cap).success:
                found = k
                break
        out[key] = found
    return out
