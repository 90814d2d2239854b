import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasketlab import DomainError, LabeledGraph, gnp_sample
from gasketlab.io import (
    from_graph6,
    from_json_edges,
    to_dot,
    to_graph6,
    to_json_edges,
)

from conftest import to_nx


def test_graph6_known_values(k3):
    assert to_graph6(k3) == "Bw"
    assert to_graph6(LabeledGraph.empty(0)) == "?"
    assert from_graph6(">>graph6<<Bw") == k3


@given(st.integers(0, 70), st.integers(0, 2**32))
@settings(max_examples=80, deadline=None)
def test_graph6_matches_networkx_and_roundtrips(n, seed):
    g = gnp_sample(n, 0.4, seed)
    mine = to_graph6(g)
    reference = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
    assert mine == reference
    assert from_graph6(mine) == g


def test_graph6_large_n_form():
    g = gnp_sample(100, 0.2, 5)
    assert from_graph6(to_graph6(g)) == g
    assert to_graph6(g) == nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()


def test_graph6_thousand_vertex_gasket():
    from gasketlab.sierpinski import build

    g = build(7).graph  # n = 1095 exercises the three-byte size field
    text = to_graph6(g)
    assert text == nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
    assert from_graph6(text) == g


def test_graph6_size_field_forms():
    from gasketlab.io import _g6_read_size, _g6_size_bytes

    for n in (0, 1, 62, 63, 1000, 258047, 258048, 10**6):
        data = _g6_size_bytes(n)
        assert _g6_read_size(data + b"xyz")[0] == n
        assert _g6_read_size(data)[1] == len(data)


def test_graph6_rejects_garbage():
    with pytest.raises(DomainError):
        from_graph6("B\x1f")
    with pytest.raises(DomainError, match="body"):
        from_graph6("Bww")
    for text in ("B>", "B\x7f", "\x7fB"):
        with pytest.raises(DomainError, match="printable"):
            from_graph6(text)


def test_graph6_rejects_nonzero_padding():
    assert from_graph6("A_") == LabeledGraph.complete(2)
    for text in ("AO", "A@", "Bx", "Dh@", "DhA"):  # n = 2, 3, 5: padding bit set
        with pytest.raises(DomainError, match="padding"):
            from_graph6(text)
    assert to_graph6(from_graph6("Dh?")) == "Dh?"


def test_json_edges_roundtrip():
    g = gnp_sample(9, 0.5, 11)
    assert from_json_edges(to_json_edges(g)) == g
    with pytest.raises(DomainError, match="invalid JSON"):
        from_json_edges("{nope}")


def test_dot_export(path3):
    text = to_dot(path3)
    assert text == "graph G {\n  1 -- 2;\n  2 -- 3;\n}\n"
    lonely = LabeledGraph.from_edges(3, [(1, 2)])
    assert "  3;" in to_dot(lonely)


def test_graph6_rejects_non_ascii_text():
    with pytest.raises(DomainError, match="ASCII"):
        from_graph6("éA")


@pytest.mark.parametrize(
    "text, field",
    [
        ('{"n": 3, "edges": [[1]]}', '"edges"[0]'),
        ('{"n": 3, "edges": [[1, 2, 3]]}', '"edges"[0]'),
        ('{"n": "3", "edges": []}', '"n"'),
        ('{"n": 3, "edges": 5}', '"edges"'),
        ('{"n": 1e9, "edges": []}', '"n"'),
        ('{"n": 100001, "edges": []}', '"n" is 100001, over the cap 100000'),
        ('{"n": 3, "edges": [[1, "x"]]}', '"edges"[0][1]'),
        ('{"n": true, "edges": []}', '"n"'),
        ('{"n": 3, "edges": [[1, false]]}', '"edges"[0][1]'),
        ('[3]', '"n" and "edges"'),
        ('{"edges": []}', '"n" and "edges"'),
    ],
)
def test_json_edges_reject_malformed_fields_naming_them(text, field):
    with pytest.raises(DomainError) as info:
        from_json_edges(text)
    assert field in str(info.value)
