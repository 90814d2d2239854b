"""gasketlab benchmark: one closed-loop workload, end-to-end or traced.

    python3 benchmarks/run.py --workload search --seed 1 --seconds 30 --trace 0

Run from the repository root (or any copy of it that has ``src/gasketlab``).
The program is imported from ``src/`` of that tree and nowhere else; without
it the run exits with code 2 and prints no result.

A run has two phases:

* set-up, repeated ``SETUP_REPEATS`` times: import gasketlab afresh and build
  the workload's fixed inputs.  ``setup_s`` is the median.
* the timed phase: one client issues operation 0, 1, 2, ... of the workload,
  each only after the previous one finished, for ``--seconds`` seconds and
  then up to the end of the current schedule cycle, so every run does whole
  cycles (and at least ``MIN_OPS`` operations).  ``--ops N`` runs exactly N
  operations instead.

Every time is scaled to a fixed machine speed with the calibration kernel in
``calibrate.py``, timed before and after each operation and set-up; the
unscaled numbers are printed beside the scaled ones.

Every operation's output is checked.  The digest is the SHA-256 over the
outputs of the first ``window`` operations, the whole cycles that first
reach ``MIN_OPS``; it is a pure function of the seed.

With ``--trace 0`` the result line carries the end-to-end metrics.  With
``--trace 1`` every public function of every layer is wrapped by a span
recorder (``tracing.py``), the result line carries the per-layer metrics of
the first ``window`` operations, and the spans are written to
``benchmarks/out/``.  The traced run's own end-to-end numbers are printed
too; their difference from an untraced run of the same seed is the tracing
overhead (``report.py`` prints it).

The last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``; the lines above it are for
people.  ``--detail PATH`` also writes everything the run knows as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S, time_kernel
from workloads import WORKLOADS, CheckFailed, import_gasketlab

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 7
MIN_OPS = 100

END_TO_END = {
    "ops_per_s": "op/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, ops: int) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "ops": ops,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "git_sha": git_sha(ROOT),
    }


def peak_rss_mib() -> float:
    """Peak resident memory of this process plus its largest waited-for child."""
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kib + children_kib) / 1024


def set_up(workload_cls, seed: int):
    """Repeat the set-up; return the last workload and the median set-up
    time, scaled (as operations are) and raw."""
    times, raw_times = [], []
    before = time_kernel()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = workload_cls(import_gasketlab(), seed)
        elapsed = time.perf_counter() - start
        after = time_kernel()
        times.append(elapsed * 2 * REFERENCE_S / (before + after))
        raw_times.append(elapsed)
        before = after
    lab_file = Path(workload.lab.graphs.__file__).resolve()
    if SRC.resolve() not in lab_file.parents:
        raise SystemExit(f"gasketlab was imported from {lab_file}, not from {SRC}")
    return workload, statistics.median(times), statistics.median(raw_times)


def timed_phase(workload, seconds: float, ops_limit: int | None, window: int, tracer):
    """Closed loop with one client.  Returns the phase's measurements.

    The calibration kernel runs before the first operation and after every
    operation.  An operation's time is scaled by REFERENCE_S over the mean of
    the kernel times on either side of it.  ``busy_s[i]`` is the time spent
    on operation ``i`` (building inputs, running, checking), scaled the same
    way; the kernel's own time is left out.
    """
    cycle = len(workload.schedule)
    latencies: list[float] = []
    raw_latencies: list[float] = []
    failures: list[str] = []
    failed_ops: set[int] = set()
    scales: list[float] = []
    digest = hashlib.sha256()
    busy: list[float] = []
    raw_busy: list[float] = []
    i = 0
    start = time.perf_counter()
    deadline = start + seconds
    kernel_before = time_kernel()
    while True:
        if ops_limit is not None:
            if i >= ops_limit:
                break
        elif i >= window and i % cycle == 0 and time.perf_counter() >= deadline:
            break
        op_start = time.perf_counter()
        run, check = workload.make_op(i)
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        latency = None
        try:
            result = run()
            latency = time.perf_counter() - t0
            output = check(result)
        except CheckFailed as exc:
            failures.append(f"op {i}: check failed: {exc}")
            failed_ops.add(i)
            output = b"failed"
        except Exception as exc:  # an operation that raises, or a malformed result
            failures.append(f"op {i}: {type(exc).__name__}: {exc}")
            failed_ops.add(i)
            output = b"failed"
        op_time = time.perf_counter() - op_start
        kernel_after = time_kernel()
        scale = 2 * REFERENCE_S / (kernel_before + kernel_after)
        kernel_before = kernel_after
        scales.append(scale)
        busy.append(op_time * scale)
        raw_busy.append(op_time)
        if latency is not None:
            latencies.append(latency * scale)
            raw_latencies.append(latency)
        if i < window:
            digest.update(output)
        i += 1
    if tracer is not None:
        tracer.op = -1
    return {
        "attempted": i,
        "failures": failures,
        "failed_ops": failed_ops,
        "latencies": latencies,
        "raw_latencies": raw_latencies,
        "scales": scales,
        "busy_s": busy,
        "raw_busy_s": raw_busy,
        "wall_s": time.perf_counter() - start,
        "digest": digest.hexdigest(),
        "window": min(window, i),
    }


def throughput(busy: list[float], failed_ops: set[int], cycle: int) -> float:
    """Median over whole schedule cycles of completed operations per busy
    second, so that a burst of machine noise moves one cycle, not the run.
    A run shorter than one cycle (``--ops``) counts as one chunk."""
    starts = range(0, len(busy) - cycle + 1, cycle)
    chunks = [range(k, k + cycle) for k in starts] or [range(len(busy))]
    return statistics.median(
        sum(i not in failed_ops for i in chunk) / sum(busy[i] for i in chunk) for chunk in chunks
    )


def end_to_end(raw: dict, setup_s: float, cycle: int, prefix: str = "") -> dict[str, float]:
    lat_ms = sorted(x * 1000 for x in raw[prefix + "latencies"])
    p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[8] if len(lat_ms) > 1 else lat_ms[0]
    return {
        "ops_per_s": throughput(raw[prefix + "busy_s"], raw["failed_ops"], cycle),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": p90,
        "setup_s": setup_s,
        "peak_rss_mib": peak_rss_mib(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, help="run exactly this many operations")
    parser.add_argument("--detail", type=Path, help="also write the full results here as JSON")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.ops is not None and args.ops < 1:
        parser.error("--ops must be >= 1")

    if not (SRC / "gasketlab" / "__init__.py").is_file():
        print(f"error: no gasketlab sources at {SRC / 'gasketlab'}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    sys.path.insert(0, str(SRC))

    workload, setup_s, raw_setup_s = set_up(WORKLOADS[args.workload], args.seed)
    cycle = len(workload.schedule)
    window = -(-MIN_OPS // cycle) * cycle
    if args.ops is not None:
        window = min(window, args.ops)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(window)
        tracer.install()

    raw = timed_phase(workload, args.seconds, args.ops, window, tracer)
    e2e, raw_e2e = {}, {}
    if raw["latencies"]:
        e2e = end_to_end(raw, setup_s, cycle)
        raw_e2e = end_to_end(raw, raw_setup_s, cycle, "raw_")
    attempted, failed = raw["attempted"], len(raw["failures"])
    env = environment(args, attempted)

    print(f"# {args.workload} seed {args.seed}: {attempted} ops in {raw['wall_s']:.2f} s "
          f"({attempted / cycle:.2f} cycles of {cycle}), trace {args.trace}, median scale "
          f"{statistics.median(raw['scales']):.4f}")
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# digest {raw['digest']} (outputs of ops 0..{raw['window'] - 1})")
    for message in raw["failures"][:10]:
        print(f"# FAILED {message}")
    label = "traced " if tracer is not None else ""
    print(f"# {label}{'metric':<13} {'scaled':>12} {'raw':>12}")
    for name, unit in END_TO_END.items():
        if name in e2e:
            extra = ""
            if name == "op_p90_ms":
                n = len(raw["latencies"])
                extra = f"  ({n} samples, {n - int(0.9 * n)} above p90)"
            print(f"# {label}{name:<13} {e2e[name]:12.4f} {raw_e2e[name]:12.4f} {unit}{extra}")
    fail_rate = failed / attempted if attempted else 1.0
    print(f"# {label}fail_rate     {fail_rate:12.4f} {'':12} ratio  ({failed} of {attempted})")

    detail = {
        "env": env,
        "trace": args.trace,
        "seconds": args.seconds,
        "window_ops": raw["window"],
        "digest": raw["digest"],
        "attempted": attempted,
        "failed": failed,
        "failures": raw["failures"],
        "fail_rate": fail_rate,
        "latency_samples": len(raw["latencies"]),
        "median_scale": statistics.median(raw["scales"]) if raw["scales"] else None,
        "wall_s": raw["wall_s"],
        "end_to_end": {name: {"value": v, "unit": END_TO_END[name]} for name, v in e2e.items()},
        "raw_end_to_end": {name: {"value": v, "unit": END_TO_END[name]} for name, v in raw_e2e.items()},
    }
    if tracer is not None:
        from tracing import DERIVED_UNITS, FUNCTION_METRICS, reported_metrics

        layers = tracer.layer_metrics(raw["scales"])
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(trace_path, {"env": env, "window_ops": raw["window"]})
        print(f"# spans written to {trace_path.relative_to(ROOT)}")
        for name, value in layers.items():
            if value:
                print(f"#   {name:<48} {value:.6g}")

        def unit_of(name: str) -> str:
            if name in DERIVED_UNITS:
                return DERIVED_UNITS[name][0]
            return FUNCTION_METRICS[name.rsplit(".", 1)[1]][0]

        detail["per_layer"] = {name: {"value": v, "unit": unit_of(name)} for name, v in layers.items()}
        metrics = {name: {"value": layers[name], "unit": unit} for name, (unit, _) in reported_metrics().items()}
    else:
        metrics = {name: {"value": v, "unit": END_TO_END[name]} for name, v in e2e.items()}
    if args.detail:
        args.detail.parent.mkdir(parents=True, exist_ok=True)
        args.detail.write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")

    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
