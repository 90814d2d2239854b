"""Run every workload untraced and traced and print all metrics with units.

    python3 benchmarks/report.py --seed 1 --seconds 30 --out BENCH_example.json

For each workload this runs ``benchmarks/run.py`` once untraced and once
traced, one after the other, and prints:

* every end-to-end metric of the untraced run (scaled and raw),
  ``fail_rate``, and the number of latency samples behind ``op_p90_ms``;
* the tracing overhead: the traced run's end-to-end numbers minus the
  untraced run's;
* the per-layer metrics of the traced run that are not zero;
* the output digest of both runs (they must agree), the median machine-speed
  scale factor and the environment.

The same content is written as JSON to ``--out`` (default
``benchmarks/out/report-seed<seed>.json``); two reports of one seed, from a
parent commit and a change, must show the same digests.  Exit code 1 if any
run failed a check or the digests disagree.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("search", "codec", "gasket")


def run_once(workload: str, seed: int, seconds: float, trace: int, tag: str) -> dict:
    detail_path = OUT_DIR / f"{workload}-seed{seed}-{tag}.json"
    cmd = [
        sys.executable, str(BENCH_DIR / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--detail", str(detail_path),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    detail = json.loads(detail_path.read_text())
    detail["result"] = json.loads(proc.stdout.strip().splitlines()[-1])
    return detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    out_path = args.out or OUT_DIR / f"report-seed{args.seed}.json"

    report: dict = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        plain = run_once(workload, args.seed, args.seconds, 0, "plain")
        traced = run_once(workload, args.seed, args.seconds, 1, "traced")
        digests = {plain["digest"], traced["digest"]}
        correct = plain["result"]["correct"] and traced["result"]["correct"]
        ok = ok and correct and len(digests) == 1

        print(f"== {workload}  seed {args.seed}  correct={correct}  digests agree={len(digests) == 1}")
        print(f"   env {json.dumps(plain['env'], sort_keys=True)}")
        print(f"   {'metric':<14} {'unit':<6} {'untraced':>11} {'traced':>11} {'overhead':>11} {'raw':>11}")
        end_to_end = {}
        for name, entry in plain["end_to_end"].items():
            value = entry["value"]
            traced_value = traced["end_to_end"][name]["value"]
            raw_value = plain["raw_end_to_end"][name]["value"]
            end_to_end[name] = {
                "unit": entry["unit"],
                "value": value,
                "traced": traced_value,
                "tracing_overhead": traced_value - value,
                "raw": raw_value,
            }
            print(f"   {name:<14} {entry['unit']:<6} {value:11.4f} {traced_value:11.4f}"
                  f" {traced_value - value:+11.4f} {raw_value:11.4f}")
        end_to_end["fail_rate"] = {"unit": "ratio", "value": plain["fail_rate"],
                                   "traced": traced["fail_rate"]}
        print(f"   {'fail_rate':<14} {'ratio':<6} {plain['fail_rate']:11.4f} {traced['fail_rate']:11.4f}")
        print(f"   op_p90_ms from {plain['latency_samples']} samples; median scale "
              f"{plain['median_scale']:.4f}; digest {sorted(digests)[0]} over ops "
              f"0..{plain['window_ops'] - 1}")
        print(f"   per-layer metrics over the traced run's first {traced['window_ops']} ops (non-zero):")
        for name, entry in traced["per_layer"].items():
            if entry["value"]:
                print(f"     {name:<46} {entry['value']:>14.6g} {entry['unit']}")
        report["workloads"][workload] = {
            "env": plain["env"],
            "digests": sorted(digests),
            "correct": correct,
            "median_scale": plain["median_scale"],
            "end_to_end": end_to_end,
            "layers": traced["per_layer"],
            "window_ops": traced["window_ops"],
        }
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"written {out_path}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
