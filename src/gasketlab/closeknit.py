"""Exact close-knit ratio computation and (r, k)-close-knit certification.

A group S of vertices has close-knit ratio

    min over nonempty S' <= S  of  d(S', S) / sum_{i in S'} deg(i)

where d(S', S) counts edges with one endpoint in S' and the other in S,
edges inside S' counted once.  A graph is (r, k)-close-knit when every
vertex belongs to some group of size <= k whose ratio is at least r.

All ratio arithmetic is exact rational; threshold comparisons (for example
against 1/2) never touch floating point.  ``min_ratio`` finds the minimum by
a sequence of integer-capacity s-t minimum cuts (Dinkelbach's iteration),
not by visiting subsets.  Certification never computes a minimum: with
r = p/q it only asks whether every slack q d(S', S) - p vol(S') is
nonnegative, which is integer arithmetic.  The singleton slacks say that
member u needs ceil(p deg(u) / q) in-group neighbours; the group search
keeps each vertex's in-group neighbour count, so a group in which some
member falls short is counted but never tested.  A tested group is checked
on S' = S first, in O(|S|), and only then by one minimum cut in the network
of ``min_ratio`` at lambda = r, which ``_max_flow`` builds from the members'
bit rows and degrees; a certificate cuts each group shape once.  Since
d(S, S) = e(S) <= vol(S) / 2, ratio(S) <= 1/2 bounds every minimum, and for
r > 1/2 every tested group is rejected on S alone.  The one search always
bounds that S' = S slack over a whole subtree of groups from the neighbours
each member can still gain; a subtree whose bound is negative is counted,
not walked, so the witness, the count of groups examined and the cap error
stay those of the walk.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from typing import Callable, Iterable

from .errors import (
    DomainError, Record, ResourceLimitError, check_int, check_iterable, check_real, shown,
)
from .graphs import LabeledGraph, _needs, _refuse_isolated, as_subset, check_graph

__all__ = ["GroupReport", "CloseKnitResult", "min_ratio", "is_rk_closeknit", "family_scan"]

# The largest group size: the k of a certificate's ESU enumeration and of
# family_scan, and the |S| of min_ratio, whose flow network has |S| + 2 nodes
# and an |S| x |S| residual matrix.  No 2^|S| table depends on it.
GROUP_SIZE_MAX = 20
GROUPS_PER_VERTEX_CAP = 200_000

Accept = Callable[[dict[int, int], list[int]], bool]
Slack = tuple[int, list[int], int]  # q, own slack, gain: see _slack


class GroupReport(Record):
    group: tuple[int, ...]
    min_ratio: Fraction
    argmin: tuple[int, ...]  # lexicographically smallest minimizing subset


class CloseKnitResult(Record):
    r: Fraction
    k: int
    success: bool
    witness: dict[int, tuple[int, ...]] | None  # vertex -> qualifying group
    failed_vertex: int | None
    groups_examined: int


def _max_flow(rows: list[int], deg: list[int], a: int, b: int) -> tuple[list[list[int]], int]:
    """The residual capacities after a maximum s-t flow in the network of
    the ratio at lambda = a/b, and the group vertices s still reaches: the
    source side of the minimal minimum cut.

    The group is its members' in-group neighbour masks ``rows`` and degrees
    ``deg``.  Nodes 0..m-1 are the group, t = m and s = m + 1; with w_i =
    b d_S(i) - 2a deg(i), arcs s -> i carry -w_i where w_i < 0, i -> t carry
    w_i where w_i > 0, and each group edge carries b both ways.  Augments
    along shortest paths (BFS, neighbours ascending) until t is unreachable.
    Entry [i][j] of the returned matrix is the residual capacity of i -> j.
    """
    m = len(rows)
    t, s = m, m + 1
    r = [[0] * (m + 2) for _ in range(m + 2)]
    links = []  # per node, the heads of its arcs
    for i, row in enumerate(rows):
        ri, heads = r[i], []
        while row:  # the set bits, ascending
            low = row & -row
            j = low.bit_length() - 1
            ri[j] = b
            heads.append(j)
            row ^= low
        w = b * len(heads) - 2 * a * deg[i]
        if w < 0:
            r[s][i] = -w
        else:
            ri[t] = w
        links.append(heads + [t, s])
    links += [list(range(m))] * 2
    while True:
        parent, queue = {s: s}, [s]
        for u in queue:
            ru = r[u]
            for v in links[u]:
                if ru[v] and v not in parent:
                    parent[v] = u
                    queue.append(v)
            if t in parent:
                break
        if t not in parent:
            break
        path, v = [], t
        while v != s:
            path.append((parent[v], v))
            v = parent[v]
        delta = min(r[u][v] for u, v in path)
        for u, v in path:
            r[u][v] -= delta
            r[v][u] += delta
    return r, sum(1 << v for v in parent if v != s)


def min_ratio(g: LabeledGraph, group: Iterable[int]) -> GroupReport:
    """Exact minimum of d(S', S) / sum_{i in S'} deg(i) over nonempty S' <= S.

    With d_S(i) the in-group degree and c(S') the number of group edges
    between S' and S - S', d(S', S) = (sum_{i in S'} d_S(i) + c(S')) / 2, so
    for lambda = a/b

        2 (b d(S', S) - a vol(S')) = sum_{i in S'} w_i + b c(S'),
        w_i = b d_S(i) - 2a deg(i),

    is, up to a constant, the capacity of the s-t cut with source side
    {s} + S' in the network of ``_max_flow``.  Dinkelbach's iteration ("On
    nonlinear fractional programming", 1967) starts at the smallest
    singleton ratio; while the minimal minimum cut's source side R is
    nonempty its value is negative, and lambda drops to the ratio of R.

    At the minimum lambda*, let D(v) be the set v reaches in the last
    residual graph.  The nonempty minimizers are exactly the nonempty unions
    of the D(v) that miss t (Picard & Queyranne, 1980), so every member of
    one is such a good vertex.  The first j good vertices together with
    their D(v) form a minimizer that lists them first, so the
    lexicographically smallest minimizer is the shortest prefix of the good
    vertices, in ascending order, that holds the D(v) of all its members.
    """
    n = check_graph(g, "graph").n
    s_tup = as_subset(check_iterable(group, "group"), n, nonempty=True)
    _refuse_isolated(g, s_tup, "close-knit ratios assume no isolated vertices")
    m = len(s_tup)
    if m > GROUP_SIZE_MAX:
        raise ResourceLimitError(
            f"group size {m} exceeds the group-size bound GROUP_SIZE_MAX = {GROUP_SIZE_MAX}"
        )
    index = {v: t for t, v in enumerate(s_tup)}
    rows = [sum(1 << index[u] for u in g.adj[v].intersection(index)) for v in s_tup]
    ind = [row.bit_count() for row in rows]  # d_S(i)
    deg = [len(g.adj[v]) for v in s_tup]

    lam = min(map(Fraction, ind, deg))
    while True:
        res, source_side = _max_flow(rows, deg, lam.numerator, lam.denominator)
        if not source_side:
            break
        members = [i for i in range(m) if source_side >> i & 1]  # lam = d(R, S) / vol(R)
        twice = sum(2 * ind[i] - (rows[i] & source_side).bit_count() for i in members)
        lam = Fraction(twice, 2 * sum(deg[i] for i in members))
    # bit j of reach[i]: the residual arc i -> j exists (j = m is t); then
    # Warshall closure on the bit rows
    bits = [1 << j for j in range(m + 1)]
    reach = [sum(compress(bits, res[i])) | 1 << i for i in range(m)]
    for k in range(m):
        for i in range(m):
            if reach[i] >> k & 1:
                reach[i] |= reach[k]
    prefix = closure = 0
    for y in range(m):
        if not reach[y] >> m & 1:  # y does not reach t
            prefix |= 1 << y
            closure |= reach[y]
            if closure == prefix:
                break
    argmin = tuple(v for t, v in enumerate(s_tup) if prefix >> t & 1)
    return GroupReport(group=s_tup, min_ratio=lam, argmin=argmin)


def _ratio_test(g: LabeledGraph, r: Fraction) -> Accept:
    """``accept`` for ``_first_group``: whether min_ratio(g, group) >= r.

    With r = p/q, slack(S') = q d(S', S) - p vol(S').  S' = S comes first:
    d(S, S) is half the sum of the members' in-group degrees, so the group
    fails in O(|S|) when 2 slack(S) < 0, as every group does for r > 1/2
    (ratio(S) <= 1/2).  A group that passes is decided by one maximum flow
    in the network of ``min_ratio`` at lambda = r, with w_i = q d_S(i) -
    2p deg(i): the cut with source side {s} + S' has capacity 2 slack(S')
    plus a constant, so the minimal minimum cut's source side is empty
    exactly when no slack is negative (Picard & Queyranne, 1980).  Integer
    arithmetic only, and the answer does not depend on the order of the
    members.  That network is a function of the members' rows and degrees
    in member order, and a certificate's groups come in few such shapes, so
    each answer a flow gives is kept under that key: one entry per flow.
    """
    p, q = r.numerator, r.denominator
    degree = list(map(len, g.adj))
    decided: dict[tuple[int, ...], bool] = {}

    def accept(members: dict[int, int], rows: list[int]) -> bool:
        deg = list(map(degree.__getitem__, members))
        if q * sum(map(int.bit_count, rows)) < 2 * p * sum(deg):
            return False  # slack(S) < 0: S itself is below r
        key = (*rows, *deg)
        if (ok := decided.get(key)) is None:
            ok = decided[key] = not _max_flow(rows, deg, p, q)[1]
        return ok

    return accept


def _slack(g: LabeledGraph, r: Fraction, k: int) -> Slack:
    """``slack`` for ``_first_group`` when ``accept`` is ``_ratio_test(g, r)``
    and groups have at most k members: q; per vertex, (q - 2p) deg, the
    S' = S slack a member adds when all its neighbours are in the group;
    and ``gain``, the most any further member can add, the largest
    q min(d, k - 1) - 2p d over the graph's degrees d, or 0."""
    p, q = r.numerator, r.denominator
    degrees = set(map(len, g.adj))
    gain = max(q * min(d, k - 1) - 2 * p * d for d in degrees)
    return q, [(q - 2 * p) * len(row) for row in g.adj], max(gain, 0)


def _first_group(
    g: LabeledGraph, v: int, k: int, cap: int, accept: Accept,
    need: list[int] | None, nin: list[int] | None, slack: Slack,
) -> tuple[tuple[int, ...] | None, int]:
    """The first connected set of size <= k containing v that ``accept``
    takes, sorted (None if there is none), and the number of sets examined.

    ESU enumeration (Wernicke, "Efficient detection of network motifs",
    2006): group G tries each vertex u of the frontier it was handed
    (ascending labels), and G + u hands on the vertices after u plus u's
    neighbours outside N[G], so no set is examined twice.  The group is
    ``members`` (member -> bit position, in insertion order) with ``rows[t]``
    member t's in-group neighbour mask, and ``nin[w]`` counts w's in-group
    neighbours (None: a fresh list; all zero on entry and on return), so
    N[G] is the members and the vertices with nin > 0.  ``accept`` sees only
    groups whose members u all have nin[u] >= need[u] (None: all 0);
    ``short`` counts the members below, and a group of size k that fails is
    skipped in its parent's loop before any row is built.

    ``slack`` (see ``_slack``) is sound when ``accept`` is the ratio test at
    r = p/q, which takes a set S only if the sum over w in S of q nin_S(w) -
    2p deg(w) is >= 0 (its S' = S pre-test).  A frontier vertex that has
    been tried is ``out`` for the rest of its frame: no set below holds it,
    and the fresh vertices found below touch no member of G' = G + u.  So in
    every set below G' a member w has at most av(w) = deg(w) - |N(w) & out|
    in-group neighbours, and each of the at most k - |G'| further members
    adds at most ``gain``.  ``room`` is the sum over the members of q av(w) -
    2p deg(w): a joining vertex adds its own term, and marking a vertex out
    takes q for each member it touches (its member mask).  When room + (k -
    |G'|) gain < 0, ``tally`` counts the sets below G' by a lean walk that
    keeps only ``nin`` and ``members``, with closed forms for its last two
    levels: a frame one short of k examines its frontier F, and one two
    short examines |F|(|F| + 1)/2 sets plus, per u in F, u's neighbours
    outside N[G].  Every set is counted and cap-checked in walk order, so
    the result, the count and any cap error are the walk's.  With q = 0 and
    no own slack or gain the bound never fires: every set is walked.
    """
    adj, members, rows, out = g.adj, {}, [], set()
    need = need or [0] * (g.n + 1)
    nin = nin or [0] * (g.n + 1)
    q, own, gain = slack
    examined = short = 0

    def over() -> None:
        if examined > cap:
            raise ResourceLimitError(
                f"connected-group search around vertex {v} exceeded cap {shown(cap)}"
            )

    def tally(ext: list[int], t: int) -> None:  # the sets grow(ext) would examine
        nonlocal examined
        if t + 2 >= k:
            examined += len(ext) if t + 1 == k else len(ext) * (len(ext) + 1) // 2 + sum(
                not nin[w] and w not in members for u in ext for w in adj[u])
            return over()
        for idx, u in enumerate(ext):
            examined += 1
            over()
            for w in adj[u]:
                nin[w] += 1
            members[u] = t
            tally(ext[idx + 1 :] + [w for w in adj[u] if nin[w] == 1 and w not in members], t + 1)
            del members[u]
            for w in adj[u]:
                nin[w] -= 1

    def grow(ext: list[int], room: int) -> tuple[int, ...] | None:
        nonlocal examined, short
        t = len(rows)
        bit, full = 1 << t, t + 1 == k
        found = None
        for idx, u in enumerate(ext):
            examined += 1
            if examined > cap:
                over()
            if full and (nin[u] < need[u] or short and short != sum(
                    w in members and nin[w] + 1 == need[w] for w in adj[u])):
                continue  # u, or a member u does not lift to need, is below need
            mask = 0
            for w in adj[u]:
                nin[w] += 1
                if w in members:
                    mask |= 1 << members[w]
                    rows[members[w]] |= bit
                    short -= nin[w] == need[w]
            short += nin[u] < need[u]
            members[u] = t
            rows.append(mask)
            if not short and accept(members, rows):
                found = tuple(sorted(members))
            elif not full:
                fresh = [w for w in adj[u] if nin[w] == 1 and w not in members]
                if (below := room + own[u] - q * len(adj[u] & out)) + (k - t - 1) * gain < 0:
                    tally(ext[idx + 1 :] + fresh, t + 1)
                else:
                    found = grow(ext[idx + 1 :] + sorted(fresh), below)
            del members[u]
            rows.pop()
            short -= nin[u] < need[u]
            for w in adj[u]:
                nin[w] -= 1
                if w in members:
                    rows[members[w]] ^= bit
                    short += nin[w] + 1 == need[w]
            if found is not None:
                break
            out.add(u)
            room -= q * mask.bit_count()
        out.difference_update(ext)
        return found

    try:
        return grow([v], 0), examined
    finally:
        del grow, tally  # each reaches itself through its closure cell


def _ratio_bound(r) -> Fraction:
    """``r`` as a Fraction: a real number, not a bool, and finite."""
    r = check_real(r, "ratio bound r")
    try:
        return Fraction(r)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"ratio bound r must be a finite rational, got {r!r}") from None


def _certify(
    g: LabeledGraph, r: Fraction, k: int, k_max: int, cap: int
) -> tuple[int, dict[int, tuple[int, ...]] | None, int | None, int]:
    """The certification loop: vertices in label order, each not yet in a
    witness searched for a group of size <= k (``_first_group``), and one
    that has none searched again alone at k + 1, k + 2, ... up to ``k_max``.
    A vertex covered at a smaller k stays covered, since (r, k) implies
    (r, k + 1), so the final k is the least for which g is (r, k)-close-knit
    when the loop starts at k = 1.  Returns that k, the witness map (None
    when some vertex has no group at ``k_max``), the failed vertex and the
    number of groups examined; ``cap`` bounds each (vertex, k) search.
    """
    _refuse_isolated(g, g.vertices(), "close-knit certification assumes none")
    accept = _ratio_test(g, r)
    need = _needs(g.adj, r)  # where a singleton's slack turns >= 0
    nin = [0] * (g.n + 1)
    slack = _slack(g, r, k)
    witness: dict[int, tuple[int, ...]] = {}
    examined = 0
    for v in g.vertices():
        if v in witness:
            continue
        while True:
            found, count = _first_group(g, v, k, cap, accept, need, nin, slack)
            examined += count
            if found is not None:
                break
            if k == k_max:
                return k, None, v, examined
            k += 1
            slack = _slack(g, r, k)
        for u in found:
            witness.setdefault(u, found)
    return k, witness, None, examined


def is_rk_closeknit(
    g: LabeledGraph, r: Fraction | int, k: int, groups_cap: int = GROUPS_PER_VERTEX_CAP
) -> CloseKnitResult:
    """Search, per vertex, for a connected group of size <= k with ratio >= r.

    The candidate space is connected vertex sets containing the vertex
    (declared search scope; a qualifying group found for one vertex is
    reused as the witness for all its members).  Vertices are processed in
    label order and candidates in enumeration order, so the witness map is
    deterministic.  Candidates are decided by integer slack, as the module
    docstring says, not by computing their minimum, and no graph is (r,
    k)-close-knit for r > 1/2.  Every ratio is at least 0, so any r <= 0 is
    met by every group: such an r is accepted, not refused, and each
    vertex's witness is its own singleton.  This is ``_certify`` with k
    fixed.
    """
    check_graph(g, "graph")
    k = check_int(k, "group-size bound k", 1, GROUP_SIZE_MAX)
    groups_cap = check_int(groups_cap, "groups_cap")
    r = _ratio_bound(r)
    _, witness, failed, examined = _certify(g, r, k, k, groups_cap)
    return CloseKnitResult(r, k, witness is not None, witness, failed, examined)


def family_scan(
    graphs: dict[int, LabeledGraph], r: Fraction | int, k_cap: int = 8
) -> dict[int, int | None]:
    """Minimal k <= k_cap for which each graph is (r, k)-close-knit.

    Keys of ``graphs`` are arbitrary identifiers (typically gasket levels);
    value None records that no k <= k_cap succeeded.  Each graph is one
    ``_certify`` pass from k = 1 with k rising to k_cap, not one
    certificate per k, and ``GROUPS_PER_VERTEX_CAP`` bounds each (vertex, k)
    search.
    """
    if not isinstance(graphs, dict):
        raise DomainError(f"graphs must be a dict of LabeledGraph, got {type(graphs).__name__}")
    k_cap = check_int(k_cap, "k_cap", 1, GROUP_SIZE_MAX)
    r = _ratio_bound(r)
    for key, g in graphs.items():
        check_graph(g, f"graphs[{key!r}]")
    minimal = {}
    for key in sorted(graphs):
        k, witness, _, _ = _certify(graphs[key], r, 1, k_cap, GROUPS_PER_VERTEX_CAP)
        minimal[key] = k if witness is not None else None
    return minimal
