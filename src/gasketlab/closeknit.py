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

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

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

Accept = Callable[[dict[int, int], list[int]], bool]


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


def _check_size_bound(name: str, k: int) -> int:
    try:
        k = operator.index(k)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {k!r}") from None
    if k < 1 or k > GROUP_SIZE_MAX:
        raise DomainError(f"{name} must be in 1..{GROUP_SIZE_MAX}, got {k}")
    return k


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
    index = {v: t for t, v in enumerate(s_tup)}
    for t, v in enumerate(s_tup):
        nt = sum(1 << index[u] for u in g.adj[v].intersection(index))  # N(t) & S, by index
        in_s, deg, top = nt.bit_count(), len(g.adj[v]), 1 << t
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


def _ratio_test(g: LabeledGraph, r: Fraction) -> Accept:
    """``accept`` for ``_first_group``: whether min_ratio(g, group) >= r.

    With r = p/q, tracks slack(S') = q d(S', S) - p vol(S') over the same
    blocks as ``min_ratio`` and answers False at the first negative slack;
    the singletons are checked first.  Integer arithmetic only, and the
    answer does not depend on the order of the members.
    """
    p, q = r.numerator, r.denominator
    pdeg = [p * len(row) for row in g.adj]

    def accept(members: dict[int, int], rows: list[int]) -> bool:
        # newest members first: the last one added has the fewest in-group neighbours
        for v, row in zip(reversed(members), reversed(rows)):
            if q * row.bit_count() < pdeg[v]:
                return False
        slack = [0]
        for v, nt in zip(members, rows):
            gain = q * nt.bit_count() - pdeg[v]  # slack of the singleton
            block = [slack[rest] + gain - q * (nt & rest).bit_count() for rest in range(len(slack))]
            if min(block) < 0:
                return False
            slack += block
        return True

    return accept


def _first_group(
    g: LabeledGraph, v: int, k: int, cap: int, accept: Accept
) -> tuple[tuple[int, ...] | None, int]:
    """The first connected set of size <= k containing v that ``accept``
    takes, sorted (None if there is none), and the number of sets examined.

    ESU enumeration (Wernicke, "Efficient detection of network motifs",
    2006): the branch that adds u extends the frontier it was handed
    (ascending labels) by u's neighbours outside ``closed``, the closed
    neighbourhood of the group before u, and each child takes one frontier
    vertex and only those listed after it, so no set is examined twice.
    The group is ``members`` (member -> bit position, in insertion order)
    with ``rows[t]`` the in-group neighbour mask of member t: adding u
    flips u's bit in its neighbours' rows, undone when the branch returns.
    """
    adj, members, rows = g.adj, {}, []
    examined = 0

    def rec(u: int, ext: list[int], closed: frozenset[int]) -> tuple[int, ...] | None:
        nonlocal examined
        examined += 1
        if examined > cap:
            raise ResourceLimitError(
                f"connected-group search around vertex {v} exceeded cap {cap}"
            )
        t = len(rows)
        bit, mask, inside = 1 << t, 0, adj[u].intersection(members)
        for w in inside:
            mask |= 1 << members[w]
            rows[members[w]] |= bit
        members[u] = t
        rows.append(mask)
        found = None
        if accept(members, rows):
            found = tuple(sorted(members))
        elif t + 1 < k:  # a full group never reads its frontier
            fresh = sorted(adj[u] - closed)
            ext, closed = ext + fresh, closed.union(fresh)
            for idx, w in enumerate(ext):
                found = rec(w, ext[idx + 1 :], closed)
                if found is not None:
                    break
        del members[u]
        rows.pop()
        for w in inside:
            rows[members[w]] ^= bit
        return found

    return rec(v, [], frozenset((v,))), examined


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
    with an early exit (``_ratio_test``), not by computing its minimum.
    """
    k = _check_size_bound("group-size bound k", k)
    try:
        r = Fraction(r)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"ratio bound r must be a finite rational, got {r!r}") from None
    for v in g.vertices():
        if g.degree(v) == 0:
            raise DomainError(
                f"vertex {v} is isolated; close-knit certification assumes none"
            )
    accept = _ratio_test(g, r)
    witness: dict[int, tuple[int, ...]] = {}
    examined = 0
    for v in g.vertices():
        if v in witness:
            continue
        found, count = _first_group(g, v, k, groups_cap, accept)
        examined += count
        if found is None:
            return CloseKnitResult(r, k, False, None, v, examined)
        for u in found:
            witness.setdefault(u, found)
    return CloseKnitResult(r, k, True, witness, None, examined)


def family_scan(
    graphs: dict[int, LabeledGraph],
    r: Fraction | int,
    k_cap: int = 8,
) -> dict[int, int | None]:
    """Minimal k <= k_cap for which each graph is (r, k)-close-knit.

    Keys of ``graphs`` are arbitrary identifiers (typically gasket levels);
    value None records that no k <= k_cap succeeded.  Each certificate
    searches at most ``GROUPS_PER_VERTEX_CAP`` groups per vertex.
    """
    k_cap = _check_size_bound("k_cap", k_cap)
    ks = range(1, k_cap + 1)
    return {
        key: next((k for k in ks if is_rk_closeknit(graphs[key], r, k).success), None)
        for key in sorted(graphs)
    }
