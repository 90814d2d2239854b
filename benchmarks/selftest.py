"""Self-test of the benchmark at a tiny operation count.

    python3 benchmarks/selftest.py

Checks, for every workload in ``BENCHMARK.json``:

* an untraced run emits exactly the ``end_to_end`` metrics, each with its
  declared unit, and reports ``fail_rate`` 0;
* a traced run emits exactly the ``per_layer`` metrics, each with its
  declared unit, and they match the list in ``tracing.py``;
* two traced runs of one seed give the same output digest as the untraced
  run, and identical counts (every per-layer metric except times and the
  CPU-per-wall ratio);
* that digest equals the one recorded in ``REFERENCE_DIGESTS``, so a change
  that alters gasketlab's outputs for a fixed seed fails here (a change that
  is meant to alter them updates the reference and says why);
* in a directory holding only ``BENCHMARK.json`` and the benchmark's own
  files, ``run.py`` exits non-zero without printing a result.

Exit code 0 when every check passes.  Takes about ten seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
OPS = 8
SEED = 7
NOT_COUNTS = (".busy_s", "cpu_per_wall")
# digest of the outputs of the first OPS operations of seed SEED
REFERENCE_DIGESTS = {
    "search": "13579e0d1d15c90d491f83a98af5890c148d1fd6c754cd3274efb936d9480556",
    "codec": "edcc1d34f98643ac4e13498da0a584a6cc8eb936777e88cb2c7b00b6d261adba",
    "gasket": "eb3d665c0f12b052795b27295c3d87810e145e01ae2c03df6367a69841cedb2c",
}

sys.path.insert(0, str(BENCH_DIR))
from tracing import reported_metrics  # noqa: E402


def run(workload: str, trace: int, tag: str, cwd: Path = ROOT) -> tuple[dict, dict]:
    detail_path = OUT_DIR / f"selftest-{workload}-{tag}.json"
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--ops", str(OPS), "--detail", str(detail_path)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace {trace} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), json.loads(detail_path.read_text())


def check_units(result: dict, declared: list[dict], what: str) -> None:
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    expected = {m["name"]: m["unit"] for m in declared}
    assert emitted == expected, f"{what}: emitted {emitted}, declared {expected}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{what}: {name} is not a number"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)
    declared_layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert declared_layers == reported_metrics(), "BENCHMARK.json per_layer differs from tracing.py"

    for workload in (w["name"] for w in spec["workloads"]):
        plain, plain_detail = run(workload, 0, "plain")
        check_units(plain, spec["end_to_end"], f"{workload} untraced")
        assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] == OPS, plain
        assert plain_detail["fail_rate"] == 0, plain_detail["failures"]

        first, first_detail = run(workload, 1, "traced1")
        second, second_detail = run(workload, 1, "traced2")
        for result in (first, second):
            check_units(result, spec["per_layer"], f"{workload} traced")
            assert result["correct"], result
        digests = {plain_detail["digest"], first_detail["digest"], second_detail["digest"]}
        assert len(digests) == 1, f"{workload}: digests differ: {digests}"
        assert digests == {REFERENCE_DIGESTS[workload]}, (
            f"{workload}: digest {digests.pop()} differs from the reference"
        )
        counts = [
            {k: v["value"] for k, v in d["per_layer"].items() if not k.endswith(NOT_COUNTS)}
            for d in (first_detail, second_detail)
        ]
        assert counts[0] == counts[1], f"{workload}: traced counts differ between runs"
        assert any(counts[0].values()), f"{workload}: the traced run counted nothing"
        print(f"ok {workload}: units, digest {digests.pop()[:16]}, {len(counts[0])} counts repeat")

    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok bare directory: exit", proc.returncode, "and no result")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
