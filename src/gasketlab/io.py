"""Graph I/O: graph6 (read/write), JSON edge lists, DOT export, bit text.

The graph6 codec follows the de-facto format used by nauty and friends:
vertices 0..n-1, size bytes N(n), then the upper triangle of the adjacency
matrix in column-major order, packed 6 bits per printable byte (offset 63).
Our 1-based labels map to graph6 vertex i-1.  Both directions go through
one '0'/'1' string of the column-major bits, ``int(bits, 2)`` and base64
(whose alphabet maps one-to-one onto the 64 graph6 byte values).  Column j
(the pairs (i, j), i < j) is written as one strided slice of the upper
square of the graph's canonical flags (see ``graphs``).  It is read back
as row j of the lower triangle of an n x n square of 0/1 bytes, from which
``graphs`` builds every neighbour set.
JSON edge lists are type-checked field by field: n and every label must be
a JSON integer (not a bool), n at most ``JSON_VERTEX_MAX``, and every edge
a pair.
"""

from __future__ import annotations

import binascii
import json

from .errors import DomainError, check_int, shown
from .graphs import (
    _FLAGS, _TEXT, LabeledGraph, _canonical_flags, _from_lower_square, _upper_square, check_graph
)

__all__ = [
    "to_graph6",
    "from_graph6",
    "to_json_edges",
    "from_json_edges",
    "to_dot",
]

_G6_HEADER = ">>graph6<<"
JSON_VERTEX_MAX = 100_000  # a JSON "n" allocates n + 1 neighbour sets up front


def _g6_size_bytes(n: int) -> bytes:
    if n < 0:
        raise DomainError(f"graph6 requires n >= 0, got {shown(n)}")
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes(
            [126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
        )
    if n <= 68719476735:
        return bytes([126, 126]) + bytes(
            (((n >> shift) & 63) + 63) for shift in (30, 24, 18, 12, 6, 0)
        )
    raise DomainError(f"graph6 supports n < 2^36, got {shown(n)}")


def _g6_read_size(data: bytes) -> tuple[int, int]:
    """Return (n, offset of first adjacency byte)."""
    if not data:
        raise DomainError("empty graph6 string")
    if data[0] != 126:
        return data[0] - 63, 1
    if len(data) >= 2 and data[1] != 126:
        if len(data) < 4:
            raise DomainError("truncated graph6 size field")
        n = 0
        for b in data[1:4]:
            n = (n << 6) | (b - 63)
        return n, 4
    if len(data) < 8:
        raise DomainError("truncated graph6 size field")
    n = 0
    for b in data[2:8]:
        n = (n << 6) | (b - 63)
    return n, 8


# graph6 packs six bits per byte as 63 + value; base64 packs six bits per
# character of its alphabet, so a translation table links the two.
_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_G6 = bytes(range(63, 127))
_B64_TO_G6 = bytes.maketrans(_B64, _G6)
_G6_TO_B64 = bytes.maketrans(_G6, _B64)


def to_graph6(g: LabeledGraph) -> str:
    """Encode in graph6; bit-exact against the reference format.

    The column-major upper triangle is built as '0'/'1' text one column at a
    time, read as one integer and packed six bits per byte through base64.
    Column j is a strided slice of the upper square of the graph's flags.
    """
    n = check_graph(g, "graph").n
    square = _upper_square(n, _canonical_flags(g))
    columns = [square[c : c * n : n] for c in range(1, n)]  # column c + 1, rows 1..c
    bits = b"".join(columns).translate(_TEXT)
    chars = (len(bits) + 5) // 6
    body = b""
    if bits:
        padded = 24 * ((len(bits) + 23) // 24)  # whole base64 quanta
        raw = (int(bits, 2) << (padded - len(bits))).to_bytes(padded // 8, "big")
        body = binascii.b2a_base64(raw, newline=False)[:chars].translate(_B64_TO_G6)
    return (_g6_size_bytes(n) + body).decode("ascii")


def from_graph6(text: str) -> LabeledGraph:
    """Decode a graph6 string (optional ``>>graph6<<`` header allowed).

    The body is unpacked through base64 into one '0'/'1' string; column j
    becomes row j of a lower-triangular square of 0/1 bytes.  The graph
    keeps the canonical flags read off that square, so encoding it again
    or planting into it reuses them.
    """
    if not isinstance(text, str):
        raise DomainError(f"graph6 text must be a str, got {type(text).__name__}")
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER) :]
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise DomainError(f"graph6 string must be ASCII: {exc}") from exc
    if data.translate(None, _G6):
        raise DomainError("graph6 string has bytes outside the printable range 63..126")
    n, offset = _g6_read_size(data)
    need = (n * (n - 1) // 2 + 5) // 6
    body = data[offset:]
    if len(body) != need:
        raise DomainError(
            f"graph6 body for n={n} must be {need} bytes, got {len(body)}"
        )
    quanta = body.translate(_G6_TO_B64) + b"A" * (-len(body) % 4)
    raw = binascii.a2b_base64(quanta)
    bits = format(int.from_bytes(raw, "big"), f"0{8 * len(raw)}b")
    total = n * (n - 1) // 2
    if "1" in bits[total:]:
        raise DomainError("graph6 padding bits must be zero")
    flags = bits.encode("ascii").translate(_FLAGS)
    rows = []
    start = 0
    for j in range(1, n + 1):  # column j: pairs (i, j), i < j
        rows += (flags[start : start + j - 1], bytes(n - j + 1))
        start += j - 1
    return _from_lower_square(n, b"".join(rows))


def to_json_edges(g: LabeledGraph) -> str:
    check_graph(g, "graph")
    payload = {"n": g.n, "edges": [[i, j] for i, j in g.edges()]}
    return json.dumps(payload, sort_keys=True)


def from_json_edges(text: str) -> LabeledGraph:
    """Graph from ``{"n": int, "edges": [[i, j], ...]}``; every field is
    type-checked, so a malformed file raises :class:`DomainError`."""
    if not isinstance(text, (str, bytes, bytearray)):
        raise DomainError(f"JSON edge list text must be a str or bytes, got {type(text).__name__}")
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, too many digits, deep nesting
        raise DomainError(f"invalid JSON edge list: {exc}") from exc
    if not isinstance(payload, dict) or "n" not in payload or "edges" not in payload:
        raise DomainError('invalid JSON edge list: expected an object with "n" and "edges"')
    n = check_int(payload["n"], 'JSON edge list field "n"')
    if n > JSON_VERTEX_MAX:
        raise DomainError(f'JSON edge list field "n" is {n}, over the cap {JSON_VERTEX_MAX}')
    edges = payload["edges"]
    if not isinstance(edges, list):
        raise DomainError(f'JSON edge list field "edges" must be a list, got {edges!r}')
    for t, e in enumerate(edges):
        if not (isinstance(e, list) and len(e) == 2):
            raise DomainError(f'JSON edge list field "edges"[{t}] must be a pair, got {e!r}')
        check_int(e[0], f'JSON edge list field "edges"[{t}][0]')
        check_int(e[1], f'JSON edge list field "edges"[{t}][1]')
    return LabeledGraph.from_edges(n, edges)


def to_dot(g: LabeledGraph) -> str:
    check_graph(g, "graph")
    lines = ["graph G {"]
    isolated = [v for v in g.vertices() if not g.adj[v]]
    lines.extend(f"  {v};" for v in isolated)
    lines.extend(f"  {i} -- {j};" for i, j in g.edges())
    lines.append("}")
    return "\n".join(lines) + "\n"
