"""The three closed-loop benchmark workloads: ``search``, ``codec`` and ``gasket``.

Each workload is a fixed *schedule* (one cycle of operation kinds and input
sizes, interleaved so that expensive kinds are spread evenly) plus a rule that
turns operation index ``i`` and the workload seed into concrete inputs.  The
schedule is the same for every seed, so the mix of work in a run does not
depend on the seed; only the sampled graphs and choices inside each operation
do.  See ``benchmarks/README.md`` for why each workload exists.

An operation is a pair ``(run, check)``.  ``run()`` makes only gasketlab calls
and is the timed part.  ``check(result)`` validates the result with an
invariant that does not depend on the layer being timed (round-trip equality,
independently counted triangles, recomputed ratios, exit codes) and returns
the bytes that go into the workload's output digest.  It raises
``CheckFailed`` when the output is wrong.

Gasketlab functions are always looked up as module attributes at call time
(``lab.ramsey.is_host(...)``), so the span wrappers installed by
``tracing.py`` see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import sys
import types
from fractions import Fraction
from itertools import combinations
from math import comb

MODULES = (
    "catalog",
    "graphs",
    "rng",
    "io",
    "isomorphism",
    "ramsey",
    "ranking",
    "twopart",
    "sierpinski",
    "closeknit",
    "diffusion",
    "experiments",
    "cli",
)


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def import_gasketlab() -> types.SimpleNamespace:
    """Import gasketlab afresh and return its modules by short name.

    Earlier imports are dropped from ``sys.modules`` first, so repeated calls
    each pay the full import, which is part of the measured set-up.
    """
    for name in [m for m in sys.modules if m == "gasketlab" or m.startswith("gasketlab.")]:
        del sys.modules[name]
    importlib.import_module("gasketlab")
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"gasketlab.{name}") for name in MODULES}
    )


def op_seed(workload: str, seed: int, i: int) -> int:
    """64-bit seed of operation ``i``, a pure function of (workload, seed, i)."""
    digest = hashlib.sha256(f"gasketlab-bench/{workload}/{seed}/{i}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def interleave(groups: list[list[tuple]]) -> tuple[tuple, ...]:
    """Merge lists of operation descriptors so each list is spread evenly.

    Entry j of a list of length c gets position (j + 0.5) / c; the cycle is
    all entries sorted by position, ties broken by list order.
    """
    placed = []
    for g_index, group in enumerate(groups):
        for j, entry in enumerate(group):
            placed.append(((j + 0.5) / len(group), g_index, entry))
    return tuple(entry for _, _, entry in sorted(placed))


# --- independent checks ----------------------------------------------------


def _edge_list(g) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, g.n + 1) for j in sorted(g.adj[i]) if j > i]


def _triangles(g) -> list[tuple[int, int, int]]:
    out = []
    for i in range(1, g.n + 1):
        for j in g.adj[i]:
            if j > i:
                out.extend((i, j, k) for k in g.adj[i] & g.adj[j] if k > j)
    return out


def _induced_edges(g, subset) -> set[tuple[int, int]]:
    """Edges inside ``subset``, relabeled 1..k by rank."""
    return {
        (a + 1, b + 1)
        for (a, u), (b, v) in combinations(enumerate(subset), 2)
        if v in g.adj[u]
    }


def _s2_occurrences(g) -> list[tuple[int, ...]]:
    """Every 6-subset of ``g`` inducing S2, found from S2's structure.

    S2 is a triangle of "midpoints" x, y, z plus three pairwise non-adjacent
    "corners", one per triangle edge: the corner of edge xy is adjacent to x
    and y and not to z.  Each copy has exactly one midpoint triangle (its
    degree-4 vertices), so enumerating triangles and corner choices finds
    every copy, without any subset scan or isomorphism test.
    """
    adj = g.adj
    found = set()
    for x, y, z in _triangles(g):
        tri = {x, y, z}
        corners = [
            (adj[a] & adj[b]) - adj[c] - tri for a, b, c in ((x, y, z), (y, z, x), (x, z, y))
        ]
        for p in corners[0]:
            for q in corners[1] - adj[p]:
                for r in corners[2] - adj[p] - adj[q]:
                    found.add(tuple(sorted((x, y, z, p, q, r))))
    return sorted(found)


def _digest_of(*parts: object) -> bytes:
    h = hashlib.sha256()
    for part in parts:
        data = part if isinstance(part, bytes) else repr(part).encode()
        h.update(len(data).to_bytes(8, "big"))
        h.update(data)
    return h.digest()


# --- search ----------------------------------------------------------------


class Search:
    """Induced-occurrence search and Ramsey host checks (ramsey, isomorphism).

    One 50-operation cycle: 34 enumerations of every induced S2 in G(n, 1/2)
    for n = 14-22 (n = 17 nine times and n = 22 eight times, so that p50 and
    p90 fall inside those classes), 10 union/split operations on a K3-free
    G(n1, 1/4) sample joined with K6, 5 host checks on random 10-vertex
    hosts with 20-24 edges, and one 27-edge check of S3 against K3 (a
    2^27-bit cover, which sets peak memory).
    """

    name = "search"

    def __init__(self, lab: types.SimpleNamespace, seed: int):
        self.lab = lab
        self.seed = seed
        named = lab.catalog.named_graph
        self.s2, self.s3, self.k3, self.k6 = (named(x) for x in ("S2", "S3", "K3", "K6"))
        enum_counts = {14: 2, 15: 2, 16: 2, 17: 9, 18: 3, 19: 3, 20: 3, 21: 2, 22: 8}
        enum_sizes = [n for n, count in enum_counts.items() for _ in range(count)]
        self.schedule = interleave(
            [
                [("enum", n) for n in enum_sizes],
                [("split", n1) for n1 in (8, 9, 10, 11, 12) * 2],
                [("host", m) for m in (20, 21, 22, 23, 24)],
                [("host_s3", 27)],
            ]
        )

    def make_op(self, i: int):
        kind, size = self.schedule[i % len(self.schedule)]
        seed = op_seed(self.name, self.seed, i)
        return getattr(self, f"_op_{kind}")(size, seed)

    def _op_enum(self, n: int, seed: int):
        lab, pattern = self.lab, self.s2

        def run():
            g = lab.graphs.gnp_sample(n, 0.5, seed)
            return g, lab.ramsey.find_induced_occurrences(g, pattern)

        def check(result):
            g, found = result
            _require(g.n == n, "sampled graph has the wrong order")
            _require(
                [tuple(subset) for subset in found] == _s2_occurrences(g),
                "occurrences differ from the independent S2 enumeration",
            )
            return _digest_of("enum", n, _edge_list(g), found)

        return run, check

    def _op_split(self, n1: int, seed: int):
        lab = self.lab

        def run():
            g1 = lab.experiments.sample_pattern_free(n1, 0.25, self.k3, seed)
            union = lab.ramsey.construct_union(g1, self.k6)
            split = lab.ramsey.split_union(union.graph, self.k3, mode="proof-faithful")
            return g1, split

        def check(result):
            g1, split = result
            _require(g1.n == n1, "rejection sample has the wrong order")
            _require(not _triangles(g1), "rejection sample contains a triangle")
            _require(
                split.g1_vertices == tuple(range(1, n1 + 1))
                and split.g2_vertices == tuple(range(n1 + 1, n1 + 7)),
                f"split did not recover the parts: {split.g1_vertices} / {split.g2_vertices}",
            )
            return _digest_of("split", n1, _edge_list(g1), split.g1_vertices, split.g2_vertices)

        return run, check

    def _random_host(self, m: int, seed: int):
        pairs = list(combinations(range(1, 11), 2))
        return self.lab.graphs.LabeledGraph.from_edges(10, random.Random(seed).sample(pairs, m))

    def _op_host(self, m: int, seed: int):
        return self._host_op(self._random_host(m, seed))

    def _op_host_s3(self, m: int, seed: int):
        return self._host_op(self.s3)

    def _host_op(self, host):
        lab = self.lab

        def run():
            return lab.ramsey.is_host(host, self.k3)

        def check(cert):
            edges = _edge_list(host)
            _require(
                cert.colorings_checked == 1 << len(edges),
                "is_host did not cover every coloring",
            )
            if cert.verified:
                _require(cert.witness is None, "a verified host carries a witness")
                _require(len(_triangles(host)) > 0, "a triangle-free host was verified")
            else:
                witness = cert.witness or {}
                _require(sorted(witness) == edges, "witness is not a total coloring")
                for a, b, c in _triangles(host):
                    colors = {witness[(a, b)], witness[(a, c)], witness[(b, c)]}
                    _require(len(colors) == 2, f"witness has a monochromatic triangle {a, b, c}")
            witness_items = sorted((cert.witness or {}).items())
            return _digest_of("host", edges, cert.verified, cert.colorings_checked, witness_items)

        return run, check


# --- codec -----------------------------------------------------------------


class Codec:
    """Canonical, graph6 and two-part codecs (graphs, rng, io, twopart, ranking).

    One 19-operation cycle over n = 100, 125, ..., 400, with n = 250 five
    times and n = 375 three times, so that p50 and p90 fall inside those
    classes.  Each operation samples
    G(n, 1/2), round-trips it through the canonical and graph6 codecs, plants
    S3 on a seeded 15-subset and round-trips the planted graph through the
    two-part codec and its byte serialization.
    """

    name = "codec"
    generator = "sierpinski:3"

    def __init__(self, lab: types.SimpleNamespace, seed: int):
        self.lab = lab
        self.seed = seed
        self.s3 = lab.catalog.named_graph("S3")
        self.s3_edges = set(_edge_list(self.s3))
        self.schedule = tuple(
            ("roundtrip", n)
            for n in range(100, 401, 25)
            for _ in range({250: 5, 375: 3}.get(n, 1))
        )

    def make_op(self, i: int):
        _, n = self.schedule[i % len(self.schedule)]
        seed = op_seed(self.name, self.seed, i)
        subset = tuple(sorted(random.Random(seed).sample(range(1, n + 1), self.s3.n)))
        lab = self.lab

        def run():
            g = lab.graphs.gnp_sample(n, 0.5, seed)
            bits = lab.graphs.encode(g)
            g_back = lab.graphs.decode(bits, n)
            g6 = lab.io.to_graph6(g)
            g6_back = lab.io.from_graph6(g6)
            planted = lab.experiments.plant_occurrence(g, self.s3, subset)
            planted_bits = lab.graphs.encode(planted)
            side = lab.twopart.SideInfo.for_generator(self.generator, n)
            enc = lab.twopart.encode_two_part(planted_bits, subset, side)
            blob = lab.twopart.to_bytes(enc, side)
            enc_back, side_back = lab.twopart.from_bytes(blob)
            decoded = lab.twopart.decode_two_part(enc_back, side_back)
            return g, g_back, g6, g6_back, planted, planted_bits, side, enc, blob, enc_back, side_back, decoded

        def check(result):
            (g, g_back, g6, g6_back, planted, planted_bits, side, enc, blob,
             enc_back, side_back, decoded) = result
            _require(g.n == n, "sampled graph has the wrong order")
            _require(g_back == g, "canonical decode(encode(g)) != g")
            _require(g6_back == g, "from_graph6(to_graph6(g)) != g")
            _require(len(g6) == 4 + (comb(n, 2) + 5) // 6, "graph6 text has the wrong length")
            _require(planted.n == n, "planted graph has the wrong order")
            _require(
                _induced_edges(planted, subset) == self.s3_edges,
                "planted subset does not induce S3 in rank order",
            )
            inside = set(subset)
            for v in range(1, n + 1):
                if v not in inside:
                    _require(planted.adj[v] == g.adj[v], f"planting changed vertex {v}")
                else:
                    _require(
                        planted.adj[v] - inside == g.adj[v] - inside,
                        f"planting changed edges leaving vertex {v}",
                    )
            _require(
                len(planted_bits.bits) == comb(n, 2)
                and planted_bits.bits.count("1") == planted.edge_count,
                "canonical bits of the planted graph have the wrong weight",
            )
            _require(
                len(enc.residual) == comb(n, 2) - comb(self.s3.n, 2),
                "two-part residual has the wrong length",
            )
            _require(enc_back == enc and side_back == side, "from_bytes(to_bytes(x)) != x")
            _require(decoded == planted_bits, "two-part round trip is not bit-exact")
            return _digest_of("codec", n, subset, g6, blob)

        return run, check


# --- gasket ----------------------------------------------------------------

LINK_PAYOFFS = {"2,1,0,0": Fraction(1, 3), "3,2,0,0": Fraction(2, 5), "1,1,0,0": Fraction(1, 2)}
CERT_RATIOS = ("1/3", "2/5", "1/2")


def _gasket_order(level: int) -> int:
    return 3 * (3 ** (level - 1) + 1) // 2


class Gasket:
    """Close-knit certificates, ratios and adoption runs through the CLI
    (closeknit, diffusion, sierpinski, cli).

    One 43-operation cycle of in-process ``gasketlab.cli.main`` calls: 6
    ``experiment link`` runs (S3 and S4, r* = 1/3, 2/5, 1/2, 8 trials), 22
    ``closeknit cert`` runs (S3-S5, r = 1/3, 2/5, 1/2, k = 6, 8, with the
    slow failing S4/S5 r = 2/5, k = 8 cases three times each) and 15
    ``closeknit ratio`` runs on seeded connected groups of S5 (sizes 10-15
    once, 16 nine times).  The repeats put p90 inside the class of the slow
    certificates and p50 inside the class of 16-vertex ratios, where the
    latency distribution is flat, rather than between classes.
    """

    name = "gasket"
    trials = 8

    def __init__(self, lab: types.SimpleNamespace, seed: int):
        self.lab = lab
        self.seed = seed
        self.jobs = min(os.cpu_count() or 1, 2)
        self.s5 = lab.catalog.named_graph("S5")
        self.schedule = interleave(
            [
                [("link", (level, pay)) for level in (3, 4) for pay in LINK_PAYOFFS],
                [
                    ("cert", (level, r, k))
                    for level in (3, 4, 5)
                    for r in CERT_RATIOS
                    for k in (6, 8)
                    for _ in range(3 if (level > 3 and r == "2/5" and k == 8) else 1)
                ],
                [("ratio", size) for size in (10, 11, 12, 13, 14, 15) + (16,) * 9],
            ]
        )

    def make_op(self, i: int):
        kind, params = self.schedule[i % len(self.schedule)]
        seed = op_seed(self.name, self.seed, i)
        argv, check_output = getattr(self, f"_op_{kind}")(params, seed)
        # --jobs depends on the machine and must not change the output, so it
        # is left out of the digest
        full_argv = argv + ["--jobs", str(self.jobs)] if kind == "link" else argv
        lab = self.lab

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = lab.cli.main(full_argv)
            return code, out.getvalue(), err.getvalue()

        def check(result):
            code, stdout, stderr = result
            _require(code == 0, f"gasketlab {' '.join(full_argv)} exited {code}: {stderr.strip()}")
            check_output(stdout)
            return _digest_of(argv, stdout)

        return run, check

    def _op_link(self, params, seed: int):
        level, payoffs = params
        argv = ["experiment", "link", "--levels", str(level), "--payoffs", payoffs,
                "--trials", str(self.trials), "--seed", str(seed)]

        def check_output(stdout: str) -> None:
            rows = [line for line in stdout.splitlines() if not line.startswith("#")]
            _require(len(rows) == 2, "link table should have a header and one row")
            _require(
                rows[0] == "level,n,r_star,min_k,success_rate,median_hit",
                f"unexpected link header {rows[0]!r}",
            )
            cells = rows[1].split(",")
            _require(
                cells[:3] == [str(level), str(_gasket_order(level)), str(LINK_PAYOFFS[payoffs])],
                f"unexpected link row {rows[1]!r}",
            )
            _require(0.0 <= float(cells[4]) <= 1.0, "success rate outside [0, 1]")

        return argv, check_output

    def _op_cert(self, params, seed: int):
        level, r, k = params
        n = _gasket_order(level)
        argv = ["closeknit", "cert", "--graph", f"S{level}", "--r", r, "--k", str(k)]

        def check_output(stdout: str) -> None:
            payload = json.loads(stdout)
            _require(payload["r"] == str(Fraction(r)) and payload["k"] == k, "echoed r or k differ")
            _require(payload["groups_examined"] >= 1, "no group was examined")
            if payload["success"]:
                witness = payload["witness"]
                _require(sorted(int(v) for v in witness) == list(range(1, n + 1)),
                         "witness does not cover every vertex")
                for v, group in witness.items():
                    _require(int(v) in group and len(group) <= k, f"bad witness group for {v}")
            else:
                _require(1 <= payload["failed_vertex"] <= n, "failed vertex out of range")

        return argv, check_output

    def _connected_group(self, size: int, seed: int) -> tuple[int, ...]:
        rnd = random.Random(seed)
        adj = self.s5.adj
        group = {rnd.randrange(1, self.s5.n + 1)}
        while len(group) < size:
            frontier = sorted({u for v in group for u in adj[v]} - group)
            group.add(rnd.choice(frontier))
        return tuple(sorted(group))

    def _op_ratio(self, size: int, seed: int):
        group = self._connected_group(size, seed)
        argv = ["closeknit", "ratio", "--graph", "S5", "--group", ",".join(map(str, group))]
        adj = self.s5.adj

        def check_output(stdout: str) -> None:
            payload = json.loads(stdout)
            _require(tuple(payload["group"]) == group, "echoed group differs")
            argmin = payload["argmin"]
            _require(argmin and set(argmin) <= set(group), "argmin is not a nonempty subset")
            inside, members = set(argmin), set(group)
            num = sum(
                1
                for i in argmin
                for j in adj[i]
                if j in members and (j not in inside or j > i)
            )
            den = sum(len(adj[i]) for i in argmin)
            _require(
                Fraction(payload["min_ratio"]) == Fraction(num, den),
                "reported min_ratio differs from the ratio of its argmin",
            )

        return argv, check_output


WORKLOADS = {cls.name: cls for cls in (Search, Codec, Gasket)}
