"""The induced-embedding kernel, and isomorphism and symmetry search on it.

The kernel filters candidates in the style of Ullmann and VF2, with the
forward checking of Haralick and Elliott (1980).  Pattern vertices are
placed in a connectivity order, and each position keeps a host bitmask of
candidates: the vertices of high enough degree, narrowed as each earlier
position is placed to the neighbours or the other non-neighbours of its
image, and to the vertices above that image where the plan says so.  The
search backs up as soon as some later position has no candidate left.  The
last position's mask is handed out whole, so a caller expands it, counts
it or takes its lowest bit instead of the kernel walking it bit by bit.
Twins of the pattern (vertices with the same open or the same closed
neighbourhood) are interchangeable, so each is placed above its latest
twin's image and each image set is reached once per ordering of the other
vertices, not once per permutation of the twins.
:mod:`gasketlab.ramsey` builds its occurrence plans on this kernel.

An isomorphism is an induced embedding between graphs with equal degree
multisets.  The search is complete (no heuristics that can miss).

A plan rooted at a vertex r finds a copy once per automorphism fixing r's
twin class.  The symmetry-breaking conditions of Grochow and Kellis (RECOMB
2007), taken over twin classes, keep exactly one: the class whose orbit
under those automorphisms is largest gets its first-placed member's image
below that of every other class in the orbit, the group shrinks to that
class's stabilizer, and so on until it fixes every class.  Orbits come
from pinned embedding queries of the pattern into itself, never from
listing the group, and colour refinement rules out most pairs of classes
that no automorphism joins without a query.  This chain also counts |Aut|.
"""

from __future__ import annotations

from collections import Counter
from math import factorial, prod
from typing import Iterator

from .errors import DomainError
from .graphs import LabeledGraph, check_graph

__all__ = ["is_isomorphic", "find_isomorphism", "automorphism_count"]

PATTERN_SIZE_MAX = 16  # largest pattern searched for, or whose symmetry is found


def _twin_keys(pattern: LabeledGraph) -> list:
    """Per vertex (index 0 unused), a key shared exactly by its twins:
    vertices with one open, or one closed, neighbourhood.  Any permutation
    of a twin class is an automorphism; an open neighbourhood never equals
    a closed one, and no vertex has twins of both kinds."""
    adj = pattern.adj
    seen = Counter([adj[v] for v in pattern.vertices()])
    seen.update(adj[v] | {v} for v in pattern.vertices())
    return [
        adj[v] if seen[adj[v]] > 1 else adj[v] | {v} if seen[adj[v] | {v}] > 1 else v
        for v in range(pattern.n + 1)
    ]


def _allowed(g: LabeledGraph, pattern: LabeledGraph, order: list[int]) -> list[int]:
    """Per position of ``order``, the bitmask of the vertices of g whose
    degree is at least that of the pattern vertex placed there."""
    degrees = [len(g.adj[w]) for w in g.vertices()]
    masks = {
        d: sum(1 << b for b, e in enumerate(degrees) if e >= d)
        for d in {len(pattern.adj[v]) for v in order}
    }
    return [masks[len(pattern.adj[v])] for v in order]


def _plan(pattern: LabeledGraph, root: int | None = None, pairs=()) -> tuple:
    """(order, ahead): the placement order of the pattern vertices and, per
    position t, each later position u with the ``kind`` of mask that
    placing t narrows it by (see :func:`_masks`): bit 0 set if the two are
    not adjacent, bit 1 set if u's image must lie above t's, as it must
    when t holds u's latest earlier twin or (t, u) is in ``pairs``.

    ``root`` (default: a vertex of highest degree) comes first, then always
    the vertex with the most placed neighbours, ties broken by higher degree
    and then smaller label.
    """
    adj, key = pattern.adj, _twin_keys(pattern)
    order = [] if root is None else [root]
    while len(order) < pattern.n:
        placed = set(order)
        order.append(
            min(
                set(pattern.vertices()) - placed,
                key=lambda u: (-len(adj[u] & placed), -len(adj[u]), u),
            )
        )
    pairs = {*pairs}
    for u, v in enumerate(order):  # the latest earlier twin, if any
        pairs.update([(t, u) for t, w in enumerate(order[:u]) if key[w] == key[v]][-1:])
    ahead = tuple(
        tuple(
            (u, (order[u] not in adj[v]) + 2 * ((t, u) in pairs))
            for u in range(t + 1, len(order))
        )
        for t, v in enumerate(order)
    )
    return tuple(order), ahead


def _masks(rows: list[int]) -> list[tuple[int, int, int, int]]:
    """Per host bit b with neighbour bitmask ``rows[b]``, the masks that
    placing b narrows a later position by, indexed by the plan's kind:
    b's neighbours, its non-neighbours other than b, and each of those
    above b."""
    out = []
    for b, row in enumerate(rows):
        apart, above = ~(row | 1 << b), -2 << b
        out.append((row, apart, row & above, apart & above))
    return out


def _embeddings(masks, searches) -> Iterator[tuple[list[int], int]]:
    """Induced embeddings of planned patterns of one size k into a host,
    depth first with forward checking.

    ``masks`` is :func:`_masks` of the host; each search is a plan's
    ``ahead`` and, per position, the host bits ``allowed`` there.  Placing
    bit b at position t narrows every later position's candidates by
    ``masks[b]`` as ``ahead[t]`` says, and the search backs up as soon as
    one is empty.  Each yield is (image, last): the host bits of the first
    k - 1 positions (a reused list) and the last position's candidate mask,
    whose bits in ascending order complete the embeddings in lexicographic
    order; the empty pattern gives ([], 1).  One set of per-depth arrays
    serves every search.  With the plans of ``ramsey._root_plans``, pinned
    as ``ramsey.find_induced_occurrences`` pins them, every copy is found
    exactly once.
    """
    image = pool = depth = None
    for ahead, allowed in searches:
        k = len(allowed)
        if image is None:
            image = [0] * (k - 1)
            pool = [0] * (k - 1)  # candidates of each position not tried yet
            depth = [[0] * k for _ in range(k)]  # depth[t][u]: u's candidates once t is next
        if k < 2:  # nothing to place before the last position
            if not k or allowed[0]:
                yield image, allowed[0] if k else 1
            continue
        depth[0][:] = allowed
        pool[0] = allowed[0]
        t = 0
        while t >= 0:
            c = pool[t]
            if not c:  # position t is exhausted: back up one position
                t -= 1
                continue
            low = c & -c
            pool[t] = c ^ low
            b = image[t] = low.bit_length() - 1
            prev, cur, sel = depth[t], depth[t + 1], masks[b]
            for u, kind in ahead[t]:
                c = prev[u] & sel[kind]
                if not c:  # a later position has no candidate left
                    break
                cur[u] = c
            else:
                if t + 2 < k:
                    t += 1
                    pool[t] = cur[t]
                else:
                    yield image, cur[t + 1]


def _first(image: list[int], last: int) -> list[int]:
    """The first embedding of a batch the kernel yields: ``image`` and the
    lowest bit of ``last``."""
    return [*image, (last & -last).bit_length() - 1]


def _refined(pattern: LabeledGraph, colors: list[int]) -> list[int]:
    """Colour refinement (one-dimensional Weisfeiler-Leman) of per-vertex
    ``colors`` by the multiset of neighbour colours, until no colour
    splits.  An automorphism that keeps every starting colour keeps every
    final one."""
    count = len(set(colors))
    while True:
        signatures = [
            (c, *sorted(map(colors.__getitem__, nbrs))) for c, nbrs in zip(colors, pattern.adj)
        ]
        palette = dict.fromkeys(signatures)
        if len(palette) == count:
            return colors
        count = len(palette)
        palette = {sig: i for i, sig in enumerate(palette)}
        colors = [palette[sig] for sig in signatures]


def _class_orbits(pattern: LabeledGraph, plan, classes: list[int], pins: dict[int, int], blocks):
    """The orbits of twin classes (``classes[v]`` is the bitmask of v's)
    under the automorphisms that fix each class of ``pins``, as lists
    inside ``blocks`` (lists of classes, each a union of orbits).

    Class d joins c's orbit iff the kernel finds a twin-ordered embedding of
    the pattern into itself, by its (order, ahead, allowed, masks) ``plan``
    (see :func:`_symmetry`), that maps c onto d and keeps the pins; the query
    is made only if colour refinement from the pinned classes leaves c and
    d one colour, and the automorphism found also joins the images of the
    orbit so far.
    """
    order, ahead, allowed, masks = plan
    at = {u: t for t, u in enumerate(order)}
    color = None  # refined only if some block holds a pair to query
    if max(map(len, blocks)) > 1:
        color = _refined(pattern, [pins.get(c, 0) for c in classes])
    orbits = []
    for rest in blocks:
        while rest:
            c = rest[0]
            orbit = [c]
            for d in rest[1:]:
                if d in orbit or color[d.bit_length()] != color[c.bit_length()]:
                    continue
                onto = {**pins, c: d}
                pinned = [mask & onto.get(classes[u], -1) for u, mask in zip(order, allowed)]
                found = next(_embeddings(masks, [(ahead, pinned)]), None)
                if found is not None:
                    image = _first(*found)
                    orbit += {classes[image[at[x.bit_length()]] + 1] for x in orbit} - set(orbit)
            rest = [d for d in rest if d not in orbit]
            orbits.append(orbit)
    return orbits


def _breaking_conditions(pattern: LabeledGraph, plan, classes: list[int]) -> list[tuple[int, int]]:
    """Position pairs (p, q), p < q, such that exactly one of the
    twin-ordered embeddings that a plan rooted at r finds for one copy, all
    with r at one image, has image[p] < image[q] for every pair.

    Those embeddings differ by the automorphisms fixing r's twin class,
    acting on twin classes.  Each round takes the largest orbit of classes
    under the automorphisms that fix every class fixed so far, ties to the
    earliest placed; its earliest-placed class C must have the lowest first
    image, and C is fixed too.  An orbit of the smaller group lies inside
    one of the larger group's, so each round only splits the last round's
    orbits.
    """
    first: dict[int, int] = {}  # twin class -> position of its first placed member
    for t, u in enumerate(plan[0]):
        first.setdefault(classes[u], t)
    root, *rest = first
    pins = {root: root}
    blocks, pairs = [rest], []
    while blocks:
        orbits = [
            sorted(orbit, key=first.get)
            for orbit in _class_orbits(pattern, plan, classes, pins, blocks)
        ]
        # a class alone in its orbit is fixed already: pinning it only prunes queries
        pins.update((orbit[0], orbit[0]) for orbit in orbits if len(orbit) == 1)
        blocks = [orbit for orbit in orbits if len(orbit) > 1]
        if blocks:
            c, *others = min(blocks, key=lambda orbit: (-len(orbit), first[orbit[0]]))
            pairs += [(first[c], first[d]) for d in others]
            pins[c] = c
            blocks = [[d for d in orbit if d != c] for orbit in blocks]
    return pairs


def _symmetry(pattern: LabeledGraph) -> tuple:
    """(classes, roots): ``classes[v]`` is the bitmask of v's twin class, and
    ``roots`` yields, per automorphism orbit by ascending smallest vertex r,
    (r, the orbit's size in twin classes, the plan rooted at r's breaking
    conditions), each worked out when asked for.  Twins share an orbit, so
    the orbits are those of the twin classes, found on the plan rooted at 1."""
    key = _twin_keys(pattern)
    classes = [0] + [
        sum(1 << (u - 1) for u in pattern.vertices() if key[u] == key[v])
        for v in pattern.vertices()
    ]

    def self_plan(root: int) -> tuple:  # a plan with its searches into the pattern
        order, ahead = _plan(pattern, root)
        return order, ahead, _allowed(pattern, pattern, order), _masks(pattern.row_masks()[1:])

    probe = self_plan(1) if pattern.n else None
    blocks = [list(dict.fromkeys(classes[1:]))]
    orbits = _class_orbits(pattern, probe, classes, {}, blocks) if probe else []
    roots = sorted((min(c & -c for c in orbit).bit_length(), len(orbit)) for orbit in orbits)
    return classes, (
        (r, size, _breaking_conditions(pattern, self_plan(r) if r > 1 else probe, classes))
        for r, size in roots
    )


def find_isomorphism(a: LabeledGraph, b: LabeledGraph) -> tuple[int, ...] | None:
    """A bijection p with p[i-1] = image of vertex i, or None.

    Edge-preserving both ways: {i,j} in a  iff  {p(i),p(j)} in b.
    """
    check_graph(a, "graph a")
    check_graph(b, "graph b")
    if a.degree_multiset() == b.degree_multiset():
        order, ahead = _plan(a)
        masks = _masks(b.row_masks()[1:])
        for image, last in _embeddings(masks, [(ahead, _allowed(b, a, order))]):
            image = _first(image, last)
            return tuple(image[order.index(v)] + 1 for v in a.vertices())
    return None


def is_isomorphic(a: LabeledGraph, b: LabeledGraph) -> bool:
    return find_isomorphism(a, b) is not None


def automorphism_count(g: LabeledGraph) -> int:
    """Order of the automorphism group (n <= ``PATTERN_SIZE_MAX``, else
    DomainError), from the stabilizer chain of :func:`_symmetry`: the size
    of vertex 1's orbit of twin classes, times the orbit size of each class
    the chain of the plan rooted at 1 fixes (1 plus the number of breaking
    pairs that class heads), times each twin class size's factorial, as
    every permutation inside a twin class is an automorphism."""
    if check_graph(g, "graph").n > PATTERN_SIZE_MAX:
        raise DomainError(
            f"automorphism search is limited to {PATTERN_SIZE_MAX} vertices, got {g.n}"
        )
    classes, roots = _symmetry(g)
    _, size, pairs = next(roots, (1, 1, ()))  # vertex 1's orbit; none in the empty graph
    twins = prod(factorial(c.bit_count()) for c in {*classes[1:]})
    return twins * size * prod(1 + n for n in Counter(p for p, _ in pairs).values())
