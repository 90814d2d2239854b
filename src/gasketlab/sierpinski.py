"""Sierpinski gasket graphs with canonical lattice coordinates.

Level 1 is a triangle at coordinates (0,0), (1,0), (1,1) on the triangular
lattice (row, col), col <= row.  Level l places three level-(l-1) copies at
offsets (0,0), (R',0), (R',R') with R' = 2^(l-2) (the row span of the
smaller gasket); coinciding coordinates are the shared corner vertices.
Labels 1..n_l follow the coordinates in (row, col) order: top to bottom,
left to right.

``build`` grows level l from level l-1 by that copy rule, never sorting a
point.  The top copy fills rows 0..R' and keeps its labels.  Row rho >= 1
of a lower copy lands in row R'+rho, the lower-left copy's vertices before
the lower-right copy's; in the last row the two copies share one vertex.
Each lower copy is relabelled by one label map built row by row, so its
neighbour sets are the smaller gasket's mapped through that map, and the
three glued corners take the union of both copies' neighbours.  The row
sizes of level l are those of level l-1, then its interior rows (1..R'-1)
doubled, then 2 * bottom - 1 for a bottom row of ``bottom`` vertices; the
corners are labels 1, n - bottom + 1 and n.

Closed forms: n_l = (3/2)(3^(l-1) + 1) vertices and m_l = 3^l edges; for
l > 1 the three outer corners have degree 2 and every other vertex degree 4.
"""

from __future__ import annotations

from itertools import chain, islice, repeat
from typing import Iterable

from .errors import Record, ResourceLimitError, check_instance, check_int, check_iterable, shown
from .graphs import LabeledGraph

__all__ = [
    "SierpinskiGraph",
    "build",
    "check_levels",
    "vertex_count",
    "edge_count",
    "corners",
    "subgaskets",
    "elementary_triangles",
]

MAX_LEVEL_DEFAULT = 12
# The counts take levels up to here: 3^level then has about 15,850 bits.
COUNT_LEVEL_MAX = 10_000

Coord = tuple[int, int]


def vertex_count(level: int) -> int:
    """n_l for a level in 1..COUNT_LEVEL_MAX; a level past the cap raises
    ResourceLimitError before any power of 3 is formed."""
    level = _check_level(level)
    return 3 * (3 ** (level - 1) + 1) // 2


def edge_count(level: int) -> int:
    """m_l for a level in 1..COUNT_LEVEL_MAX, refused past the cap as in
    :func:`vertex_count`."""
    level = _check_level(level)
    return 3**level


def _check_level(level: int, max_level: int | None = None) -> int:
    """The level as an int; reject a level below 1, one above
    ``max_level`` if that is given, and one above COUNT_LEVEL_MAX."""
    level = check_int(level, "gasket level", 1)
    if max_level is not None and level > max_level:
        raise ResourceLimitError(
            f"gasket level {shown(level)} exceeds the configured maximum {max_level}; "
            "raise max_level to override"
        )
    if level > COUNT_LEVEL_MAX:
        raise ResourceLimitError(
            f"gasket level {shown(level)} exceeds the cap COUNT_LEVEL_MAX = {COUNT_LEVEL_MAX}"
        )
    return level


def check_levels(levels: Iterable[int]) -> list[int]:
    """The levels as ints, each checked as :func:`build` checks it by
    default, so a caller that builds several gaskets refuses the first bad
    level before it builds any."""
    return [_check_level(level, MAX_LEVEL_DEFAULT) for level in check_iterable(levels, "levels")]


class SierpinskiGraph(Record):
    level: int
    graph: LabeledGraph
    coords: dict[int, Coord]  # label -> (row, col)
    corner_labels: tuple[int, int, int]


def build(level: int, max_level: int = MAX_LEVEL_DEFAULT) -> SierpinskiGraph:
    """Construct the level-``level`` gasket graph with canonical labels."""
    level = _check_level(level, max_level)
    adj = [frozenset(), frozenset((2, 3)), frozenset((1, 3)), frozenset((1, 2))]
    cols = [0, 0, 0, 1]  # label -> column; index 0 unused, as in adj
    sizes = [1, 2]  # vertices per row
    for t in range(level - 1):
        adj, cols, sizes = _three_copies(adj, cols, sizes, 2**t)
    n = len(adj) - 1
    rows = chain.from_iterable(map(repeat, range(len(sizes)), sizes))
    coords = dict(zip(range(1, n + 1), zip(rows, islice(cols, 1, None))))
    return SierpinskiGraph(level, LabeledGraph(n, tuple(adj)), coords, (1, n - sizes[-1] + 1, n))


def _three_copies(
    adj: list[frozenset[int]], cols: list[int], sizes: list[int], span: int
) -> tuple[list[frozenset[int]], list[int], list[int]]:
    """The adjacency, columns and row sizes of the gasket made of three
    copies of the one given, whose row span is ``span``."""
    n, bottom = len(adj) - 1, sizes[-1]
    corner = n - bottom + 1  # the top copy's bottom-left corner; n is its bottom-right
    left, right = [0, corner], [0, n]  # label maps of the lower copies, by row
    label = n + 1
    for size in sizes[1:-1]:
        left += range(label, label + size)
        right += range(label + size, label + 2 * size)
        label += 2 * size
    left += range(label, label + bottom)
    right += range(label + bottom - 1, label + 2 * bottom - 1)  # shares left's last

    lower_left = [frozenset(map(left.__getitem__, row)) for row in adj]
    lower_right = [frozenset(map(right.__getitem__, row)) for row in adj]
    new_adj, new_cols = adj[:], cols[:]
    start = 2
    for size in sizes[1:]:
        stop = start + size
        first = start + (stop > n)  # the right copy's first vertex not shared in this row
        new_adj += lower_left[start:stop]
        new_adj += lower_right[first:stop]
        new_cols += cols[start:stop]
        new_cols += map(span.__add__, cols[first:stop])
        start = stop
    new_adj[corner] = adj[corner] | lower_left[1]
    new_adj[n] = adj[n] | lower_right[1]
    new_adj[left[n]] = lower_left[n] | lower_right[corner]
    return new_adj, new_cols, sizes + [2 * size for size in sizes[1:-1]] + [2 * bottom - 1]


def corners(s: SierpinskiGraph) -> tuple[int, int, int]:
    """Labels of the three outer corners (degree 2 for level > 1)."""
    return check_instance(s, SierpinskiGraph, "gasket").corner_labels


def _collect_offsets(level: int, target: int, r0: int, c0: int, out: list[Coord]) -> None:
    if level == target:
        out.append((r0, c0))
        return
    span = 2 ** (level - 2)
    _collect_offsets(level - 1, target, r0, c0, out)
    _collect_offsets(level - 1, target, r0 + span, c0, out)
    _collect_offsets(level - 1, target, r0 + span, c0 + span, out)


def subgaskets(s: SierpinskiGraph, sub_level: int) -> list[tuple[int, ...]]:
    """The 3^(l-j) canonical level-j sub-gasket vertex sets, in recursion
    order (top copy, then lower-left, then lower-right)."""
    check_instance(s, SierpinskiGraph, "gasket")
    sub_level = check_int(sub_level, "sub-gasket level", 1, s.level)
    offsets: list[Coord] = []
    _collect_offsets(s.level, sub_level, 0, 0, offsets)
    # each level keeps its top copy's labels, so labels 1..n_j are the top sub-gasket
    template = [s.coords[v] for v in range(1, vertex_count(sub_level) + 1)]
    label = {coord: v for v, coord in s.coords.items()}
    subsets = []
    for r0, c0 in offsets:
        subsets.append(tuple(sorted(label[(r0 + r, c0 + c)] for r, c in template)))
    return subsets


def elementary_triangles(s: SierpinskiGraph) -> list[tuple[int, ...]]:
    """The level-1 sub-gaskets; every vertex lies in at least one."""
    return subgaskets(s, 1)
