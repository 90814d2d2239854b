"""Per-layer tracing from outside the program.

Every public function of each gasketlab layer module is replaced by a span
recorder.  A module's public functions are the functions named in its
``__all__`` (or, without ``__all__``, its functions not starting with ``_``)
that the module itself defines; ``cli`` contributes only ``main``, so that
``cli.main``'s self time is argument parsing, dispatch and output.  The
wrapper is installed at every import site: every attribute of every loaded
gasketlab module that refers to the original function (``ramsey.find_isomorphism``,
``twopart.rank_subset``, the package re-exports) is rebound to it.

A span is (name, start, end, parent, operation, error).  Spans are appended
to a per-thread buffer in memory and written out by :meth:`Tracer.write`
after the run.  A span opened on a worker thread with nothing open on that
thread takes the client thread's innermost open span as its parent, so the
trials a fan-out runs on a thread pool are children of the call that fanned
them out.

Per-layer metrics cover the first ``window`` operations of the run, a fixed
prefix, so that their counts repeat exactly across runs of one seed:

* ``<module>.<function>.calls`` and ``.errors`` (calls that raised);
* ``<module>.<function>.busy_s``: self time, the span minus the part of it
  that its child spans cover;
* the derived counts and ratios in ``DERIVED_UNITS``.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import json
import os
import sys
import threading
import time
from array import array
from math import comb

LAYERS = (
    "graphs",
    "rng",
    "io",
    "sierpinski",
    "closeknit",
    "ranking",
    "twopart",
    "ramsey",
    "isomorphism",
    "diffusion",
    "experiments",
    "cli",
)
ONLY = {"cli": ("main",)}

# derived metric -> (unit, better)
DERIVED_UNITS = {
    "ramsey.subsets_scanned": ("count", "lower"),
    "ramsey.copies_found": ("count", "higher"),
    "ramsey.search.hit_ratio": ("ratio", "higher"),
    "ramsey.colorings_checked": ("count", "lower"),
    "experiments.reject.accept_ratio": ("ratio", "higher"),
    "rng.hash_blocks": ("count", "lower"),
    "io.graph6_bytes": ("bytes", "lower"),
    "twopart.bytes": ("bytes", "lower"),
    "closeknit.groups_examined": ("count", "lower"),
    "closeknit.subsets_evaluated": ("count", "lower"),
    "diffusion.revisions": ("count", "lower"),
    "diffusion.fanout.cpu_per_wall": ("ratio", "higher"),
}

# Per-layer metrics reported on the result line of a traced run; the full set
# of wrapped functions goes to the detail and trace files.
REPORTED_FUNCTIONS = (
    "ramsey.find_induced_occurrences",
    "isomorphism.find_isomorphism",
    "ramsey.is_host",
    "ramsey.split_union",
    "experiments.sample_pattern_free",
    "graphs.gnp_sample",
    "graphs.encode",
    "graphs.decode",
    "io.to_graph6",
    "io.from_graph6",
    "twopart.encode_two_part",
    "twopart.decode_two_part",
    "twopart.to_bytes",
    "twopart.from_bytes",
    "ranking.ceil_log2",
    "ranking.rank_subset",
    "ranking.unrank_subset",
    "ranking.rank_permutation",
    "ranking.unrank_permutation",
    "experiments.plant_occurrence",
    "closeknit.is_rk_closeknit",
    "closeknit.min_ratio",
    "diffusion.run",
    "diffusion.hitting_time_stats",
    "sierpinski.build",
    "cli.main",
)
FUNCTION_METRICS = {"calls": ("count", "lower"), "busy_s": ("s", "lower"), "errors": ("count", "lower")}
# ``.errors`` stays in the detail and trace files only: it is 0 at a correct
# commit, and a layer that raises already fails its operation.
REPORTED_SUFFIXES = ("calls", "busy_s")


def reported_metrics() -> dict[str, tuple[str, str]]:
    """Name -> (unit, better) of every per-layer metric on the result line."""
    out = {
        f"{fn}.{suffix}": FUNCTION_METRICS[suffix]
        for fn in REPORTED_FUNCTIONS
        for suffix in REPORTED_SUFFIXES
    }
    out.update(DERIVED_UNITS)
    return out


def public_functions(layer: str, module) -> list[str]:
    names = ONLY.get(layer) or getattr(module, "__all__", None) or [
        name for name in vars(module) if not name.startswith("_")
    ]
    return [
        name
        for name in names
        if inspect.isfunction(getattr(module, name, None))
        and getattr(module, name).__module__ == module.__name__
    ]


def _arg(bound: inspect.BoundArguments, name: str):
    return bound.arguments.get(name, bound.signature.parameters[name].default)


# Derived counts.  Each hook gets the bound call arguments and the result and
# returns the increments to add.
def _find_occurrences(bound, result):
    g, pattern = _arg(bound, "g"), _arg(bound, "pattern")
    out = {"ramsey.copies_found": len(result)}
    if _arg(bound, "limit") is None and pattern.n <= g.n:
        out["ramsey.subsets_scanned"] = comb(g.n, pattern.n)
    return out


HOOKS = {
    "ramsey.find_induced_occurrences": _find_occurrences,
    "ramsey.is_host": lambda bound, r: {"ramsey.colorings_checked": r.colorings_checked},
    "experiments.sample_pattern_free": lambda bound, r: {"experiments.reject.accepted": 1},
    "graphs.gnp_sample": lambda bound, r: {
        "rng.hash_blocks": (comb(_arg(bound, "n"), 2) + 3) // 4
    },
    "io.to_graph6": lambda bound, r: {"io.graph6_bytes": len(r)},
    "twopart.to_bytes": lambda bound, r: {"twopart.bytes": len(r)},
    "closeknit.is_rk_closeknit": lambda bound, r: {"closeknit.groups_examined": r.groups_examined},
    "closeknit.min_ratio": lambda bound, r: {
        "closeknit.subsets_evaluated": (1 << len(r.group)) - 1
    },
    "diffusion.run": lambda bound, r: {"diffusion.revisions": len(r.adoption_counts) - 1},
}
# Functions whose calls also record process-plus-children CPU time and wall time.
CPU_TIMED = {"diffusion.hitting_time_stats": "diffusion.fanout"}


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Tracer:
    """Span recorder for one benchmark run.  ``op`` is the operation now
    running; derived counts are kept only while ``op < window``."""

    SPAN_FIELDS = ("id", "parent", "op", "name", "start", "end", "error")

    def __init__(self, window: int):
        self.window = window
        self.op = -1
        self.names: list[str] = []
        self.counts: dict[str, float] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[array] = []
        self._client_stack = self._stack()
        self._t0 = time.perf_counter()

    def _stack(self) -> list[int]:
        local = self._local
        try:
            return local.stack
        except AttributeError:
            local.stack = []
            local.buffer = array("d")
            with self._lock:
                self._buffers.append(local.buffer)
            return local.stack

    def _add(self, increments: dict[str, float]) -> None:
        with self._lock:
            for key, value in increments.items():
                self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, qualname: str, fn):
        name_index = len(self.names)
        self.names.append(qualname)
        hook = HOOKS.get(qualname)
        cpu_key = CPU_TIMED.get(qualname)
        signature = inspect.signature(fn)
        tracer = self
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                client = tracer._client_stack
                parent = client[-1] if client else -1
            span_id = next(tracer._ids)
            op = tracer.op
            stack.append(span_id)
            cpu0 = _cpu_seconds() if cpu_key else 0.0
            error = 0.0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                error = 1.0
                raise
            finally:
                end = perf_counter()
                stack.pop()
                tracer._local.buffer.extend(
                    (span_id, parent, op, name_index, start, end, error)
                )
            # computed on every call, so that tracing costs the same inside and
            # outside the window
            increments = hook(signature.bind(*args, **kwargs), result) if hook else {}
            if cpu_key:
                increments[f"{cpu_key}.cpu_s"] = _cpu_seconds() - cpu0
                increments[f"{cpu_key}.wall_s"] = end - start
            if increments and op < tracer.window:
                tracer._add(increments)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer's public functions at every gasketlab import site."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "gasketlab"]
        originals = []
        for layer in LAYERS:
            module = sys.modules[f"gasketlab.{layer}"]
            originals.extend(
                (f"{layer}.{name}", getattr(module, name))
                for name in public_functions(layer, module)
            )
        for qualname, fn in originals:
            wrapper = self.wrap(qualname, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)

    def spans(self) -> list[tuple]:
        """All recorded spans as tuples in ``SPAN_FIELDS`` order, by id."""
        out = []
        for buffer in self._buffers:
            values = buffer.tolist()
            for k in range(0, len(values), 7):
                sid, parent, op, name, start, end, error = values[k : k + 7]
                out.append((int(sid), int(parent), int(op), int(name), start, end, int(error)))
        out.sort()
        return out

    def layer_metrics(self, scales: list[float]) -> dict[str, float]:
        """Per-layer metrics over the spans of the first ``window`` operations.

        ``scales[op]`` is the machine-speed factor of operation ``op``; self
        times are multiplied by it, as the end-to-end times are.
        """
        spans = [s for s in self.spans() if 0 <= s[2] < self.window]
        children: dict[int, list[tuple[float, float]]] = {}
        name_of = {}
        for sid, parent, _, name, start, end, _ in spans:
            name_of[sid] = name
            children.setdefault(parent, []).append((start, end))
        calls = [0] * len(self.names)
        busy = [0.0] * len(self.names)
        errors = [0] * len(self.names)
        rejection_draws = 0
        sample_free = self.names.index("experiments.sample_pattern_free")
        gnp = self.names.index("graphs.gnp_sample")
        for sid, parent, op, name, start, end, error in spans:
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            calls[name] += 1
            busy[name] += ((end - start) - covered) * scales[op]
            errors[name] += error
            if name == gnp and name_of.get(parent) == sample_free:
                rejection_draws += 1
        out: dict[str, float] = {}
        for k, qualname in enumerate(self.names):
            out[f"{qualname}.calls"] = calls[k]
            out[f"{qualname}.busy_s"] = busy[k]
            out[f"{qualname}.errors"] = errors[k]
        counts = self.counts
        for key in DERIVED_UNITS:
            out[key] = counts.get(key, 0)
        iso_calls = out["isomorphism.find_isomorphism.calls"]
        out["ramsey.search.hit_ratio"] = (
            counts.get("ramsey.copies_found", 0) / iso_calls if iso_calls else 0.0
        )
        out["experiments.reject.accept_ratio"] = (
            counts.get("experiments.reject.accepted", 0) / rejection_draws
            if rejection_draws
            else 0.0
        )
        wall = counts.get("diffusion.fanout.wall_s", 0.0)
        out["diffusion.fanout.cpu_per_wall"] = (
            counts.get("diffusion.fanout.cpu_s", 0.0) / wall if wall else 0.0
        )
        return out

    def write(self, path, meta: dict) -> None:
        """Write every recorded span (times relative to tracer creation)."""
        t0 = self._t0
        payload = dict(meta)
        payload["fields"] = list(self.SPAN_FIELDS)
        payload["names"] = self.names
        payload["spans"] = [
            [sid, parent, op, name, round(start - t0, 7), round(end - t0, 7), error]
            for sid, parent, op, name, start, end, error in self.spans()
        ]
        text = json.dumps(payload, separators=(",", ":"))
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write(text)
