import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from gasketlab import DomainError, ResourceLimitError, induced_subgraph
from gasketlab.sierpinski import (
    build,
    corners,
    edge_count,
    elementary_triangles,
    subgaskets,
    vertex_count,
)

from conftest import nx_isomorphic, oracle_sierpinski, oracle_subgaskets


def test_closed_form_counts():
    assert (vertex_count(1), edge_count(1)) == (3, 3)
    assert (vertex_count(2), edge_count(2)) == (6, 9)
    assert (vertex_count(7), edge_count(7)) == (1095, 2187)


@pytest.mark.parametrize("level", range(1, 8))
def test_built_counts_match_closed_forms(level):
    s = build(level)
    assert s.graph.n == vertex_count(level)
    assert s.graph.edge_count == edge_count(level)
    assert sum(s.graph.degree(v) for v in s.graph.vertices()) == 2 * 3**level


def test_degree_multisets():
    assert build(1).graph.degree_multiset() == {2: 3}
    for level in (2, 3, 4):
        n = vertex_count(level)
        assert build(level).graph.degree_multiset() == {2: 3, 4: n - 3}


def test_build_4_example():
    s = build(4)
    assert s.graph.n == 42 and s.graph.edge_count == 81
    assert s.graph.degree_multiset() == {2: 3, 4: 39}


def test_level_bounds():
    with pytest.raises(DomainError):
        build(0)
    with pytest.raises(ResourceLimitError, match="maximum"):
        build(13)
    assert build(5, max_level=5).level == 5


def test_corners():
    s2 = build(2)
    assert corners(s2) == (1, 4, 6)
    assert all(s2.graph.degree(v) == 2 for v in corners(s2))
    assert set(corners(build(1))) == {1, 2, 3}
    s3 = build(3)
    degree_two = {v for v in s3.graph.vertices() if s3.graph.degree(v) == 2}
    assert set(corners(s3)) == degree_two


def test_labels_follow_coordinate_order():
    s = build(3)
    coords = [s.coords[v] for v in sorted(s.coords)]
    assert coords == sorted(coords)


def test_subgaskets_structure():
    s2 = build(2)
    assert subgaskets(s2, 1) == [(1, 2, 3), (2, 4, 5), (3, 5, 6)]
    assert subgaskets(s2, 2) == [tuple(range(1, 7))]
    s3 = build(3)
    level2 = subgaskets(s3, 2)
    assert len(level2) == 3
    for subset in level2:
        assert nx_isomorphic(induced_subgraph(s3.graph, subset), s2.graph)
    with pytest.raises(DomainError):
        subgaskets(s2, 3)


@pytest.mark.parametrize("level", range(1, 5))
def test_every_vertex_in_an_elementary_triangle(level):
    s = build(level)
    covered = {v for tri in elementary_triangles(s) for v in tri}
    assert covered == set(s.graph.vertices())
    assert len(elementary_triangles(s)) == 3 ** (level - 1)


@pytest.mark.parametrize("level,sub_level", [(2, 1), (3, 1), (3, 2), (4, 3)])
def test_subgasket_counts_and_isomorphism(level, sub_level):
    s = build(level)
    subs = subgaskets(s, sub_level)
    assert len(subs) == 3 ** (level - sub_level)
    reference = build(sub_level).graph
    for subset in subs:
        assert nx_isomorphic(induced_subgraph(s.graph, subset), reference)


@pytest.mark.parametrize("level", range(1, 11))
def test_build_matches_the_coordinate_construction(level):
    s, oracle = build(level), oracle_sierpinski(level)
    assert s.graph == oracle.graph
    assert list(s.coords.items()) == list(oracle.coords.items())  # key order too
    assert s.corner_labels == oracle.corner_labels
    if level <= 7:
        for sub_level in range(1, level + 1):
            assert subgaskets(s, sub_level) == oracle_subgaskets(oracle, sub_level)


def test_build_allocates_little_beyond_the_gasket_it_returns():
    # the coordinate construction peaked at about 2.4 times what it kept
    # (26.9 MiB against 11.0 MiB at level 10); three copies of the level
    # below peak at about 1.05 times
    tracemalloc.start()
    try:
        s = build(10)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert s.graph.n == vertex_count(10)
    assert peak < 1.5 * kept


def test_default_max_level_is_buildable():
    s12 = build(12)
    assert s12.graph.n == vertex_count(12) == 265722
    assert s12.graph.edge_count == edge_count(12) == 531441
    assert s12.graph.degree_multiset() == {2: 3, 4: s12.graph.n - 3}


def test_huge_level_is_refused_before_its_vertex_count_is_formed():
    from gasketlab.twopart import SideInfo

    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="maximum"):
        SideInfo.for_generator("sierpinski:10000000", 20)  # 3^(10^7 - 1) not computed
    assert time.perf_counter() - start < 1.0


def test_cli_huge_generator_level_exits_1_without_traceback(tmp_path):
    # a subprocess, so that a hang fails the test at the timeout
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    args = ["encode", "alt", "--graph", "S3", "--gen", "sierpinski:1000000", "--occ", "1,2,3"]
    result = subprocess.run(
        [sys.executable, "-m", "gasketlab", *args, "--out", str(tmp_path / "x.bin")],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=10,
    )
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert "maximum 12" in result.stderr
