import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "gasketlab", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def test_gen_sierpinski_graph6():
    result = run_cli("gen", "sierpinski", "--level", "3", "--format", "graph6")
    assert result.returncode == 0
    from gasketlab.io import from_graph6

    assert from_graph6(result.stdout.strip()).n == 15


def test_usage_error_exits_2():
    assert run_cli("frobnicate").returncode == 2
    assert run_cli("gen", "sierpinski").returncode == 2  # missing --level


def test_domain_error_exits_1_with_named_precondition():
    result = run_cli("gen", "sierpinski", "--level", "0")
    assert result.returncode == 1
    assert "error:" in result.stderr and "level" in result.stderr
    result = run_cli("decode", "canonical", "--bits", "1111", "--n", "3")
    assert result.returncode == 1
    assert "3" in result.stderr  # expected length named


def test_closeknit_ratio_golden():
    result = run_cli("closeknit", "ratio", "--graph", "S3", "--group", "2,4,5")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["min_ratio"] == "1/4"
    assert payload["argmin"] == [2, 4, 5]


def test_closeknit_cert_and_scan():
    result = run_cli("closeknit", "cert", "--graph", "S2", "--r", "1/4", "--k", "3")
    payload = json.loads(result.stdout)
    assert payload["success"] is True and len(payload["witness"]) == 6
    result = run_cli("closeknit", "scan", "--levels", "1-3", "--r", "1/4")
    payload = json.loads(result.stdout)
    assert payload["minimal_k"] == {"1": 2, "2": 3, "3": 3}


def test_ramsey_host_check_and_oracle():
    result = run_cli("ramsey", "host-check", "--host", "K6", "--pattern", "K3")
    payload = json.loads(result.stdout)
    assert payload["verified"] is True
    assert payload["colorings_checked"] == 32768
    result = run_cli("ramsey", "oracle", "--pattern", "K3", "--hosts", "K2,K3,K4,K5,K6")
    payload = json.loads(result.stdout)
    assert payload["found_order"] == 6
    assert payload["certificates"][3]["witness"] is not None  # K5 failure recorded


def test_ramsey_union_split_bounds(tmp_path):
    result = run_cli("ramsey", "union", "--g1", "E3", "--g2", "K6")
    payload = json.loads(result.stdout)
    assert payload["g2_vertices"] == [4, 5, 6, 7, 8, 9]
    g6 = payload["graph6"]
    union_file = tmp_path / "union.g6"
    union_file.write_text(g6 + "\n")
    for mode in ("fast", "proof-faithful"):
        result = run_cli(
            "ramsey", "split", "--graph", str(union_file), "--pattern", "K3",
            "--mode", mode,
        )
        split = json.loads(result.stdout)
        assert split["g1_vertices"] == [1, 2, 3]
        assert split["g2_vertices"] == [4, 5, 6, 7, 8, 9]
    result = run_cli("ramsey", "bounds", "--pattern", "S2", "--c", "1.0", "--c-d", "3")
    payload = json.loads(result.stdout)
    assert payload["luczak_rodl"] == 216
    result = run_cli("ramsey", "crossover", "--c-d", "3")
    assert json.loads(result.stdout)["max_level"] == 3


def test_alt_codec_file_roundtrip(tmp_path):
    run_cli(
        "gen", "gnp", "--n", "20", "--p", "0.5", "--seed", "42",
        "--out", str(tmp_path / "g.g6"),
    )
    run_cli(
        "gen", "plant", "--graph", str(tmp_path / "g.g6"), "--pattern", "S2",
        "--subset", "3,5,8,11,17,20", "--out", str(tmp_path / "planted.g6"),
    )
    result = run_cli(
        "encode", "alt", "--graph", str(tmp_path / "planted.g6"),
        "--occ", "3,5,8,11,17,20", "--gen", "sierpinski:2",
        "--out", str(tmp_path / "alt.bin"),
    )
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["canonical_bits"] == 190 and report["encoded_bits"] == 201
    decoded = run_cli("decode", "alt", "--alt", str(tmp_path / "alt.bin"), "--format", "graph6")
    assert decoded.stdout == (tmp_path / "planted.g6").read_text()
    # bit text output is the canonical encoding of the planted graph
    bits = run_cli("decode", "alt", "--alt", str(tmp_path / "alt.bin"))
    canonical = run_cli("encode", "canonical", "--graph", str(tmp_path / "planted.g6"))
    assert bits.stdout == canonical.stdout


def test_diffuse_run_trace(tmp_path):
    trace = tmp_path / "trace.csv"
    result = run_cli(
        "diffuse", "run", "--graph", "S2", "--payoffs", "2,1,0,0",
        "--epsilon", "0", "--init", "1,2,3", "--schedule", "round-robin",
        "--horizon", "12", "--seed", "0", "--trace-out", str(trace),
    )
    payload = json.loads(result.stdout)
    assert payload["hitting_time"] == 6 and payload["r_star"] == "1/3"
    assert trace.read_text().splitlines()[:3] == ["revision,adopters", "0,3", "1,3"]


def test_diffuse_config_file_equals_flags(tmp_path):
    config = tmp_path / "diffusion.json"
    config.write_text(json.dumps({
        "epsilon": 0.0, "init_adopters": [1, 2, 3], "horizon": 12,
        "seed": 0, "schedule": "round-robin",
    }))
    from_file = run_cli(
        "diffuse", "run", "--graph", "S2", "--payoffs", "2,1,0,0",
        "--config", str(config),
    )
    from_flags = run_cli(
        "diffuse", "run", "--graph", "S2", "--payoffs", "2,1,0,0",
        "--epsilon", "0", "--init", "1,2,3", "--schedule", "round-robin",
        "--horizon", "12", "--seed", "0",
    )
    assert from_file.returncode == 0
    assert from_file.stdout == from_flags.stdout


def test_repeat_runs_are_byte_identical(tmp_path):
    args = (
        "experiment", "containment", "--n", "8", "--pattern", "K3",
        "--trials", "30", "--seed", "11",
    )
    first = run_cli(*args)
    second = run_cli(*args)
    threaded = run_cli(*args, "--jobs", "3")
    assert first.stdout == second.stdout == threaded.stdout
    assert first.returncode == 0


def test_diffuse_stats_jobs_invariant():
    args = (
        "diffuse", "stats", "--graph", "S2", "--payoffs", "2,1,0,0",
        "--epsilon", "0.02", "--init", "1,2,3", "--horizon", "300",
        "--seed", "3", "--trials", "20",
    )
    assert run_cli(*args, "--jobs", "1").stdout == run_cli(*args, "--jobs", "4").stdout


def test_manifest_round(tmp_path):
    manifest = tmp_path / "run.json"
    out = tmp_path / "table.csv"
    args = (
        "experiment", "threshold-sweep", "--levels", "1", "--n-values", "4,5",
        "--trials", "10", "--seed", "5", "--out", str(out), "--manifest", str(manifest),
    )
    assert run_cli(*args).returncode == 0
    payload = json.loads(manifest.read_text())
    assert payload["subcommand"] == "experiment threshold-sweep"
    assert payload["master_seed"] == 5
    assert payload["output_paths"] == [str(out)]
    assert "gasketlab" in payload["versions"]
    first_table = out.read_bytes()
    assert run_cli(*args).returncode == 0
    assert out.read_bytes() == first_table  # replaying the manifest reproduces bytes


def test_gen_formats_and_coords(tmp_path):
    coords = tmp_path / "coords.json"
    result = run_cli(
        "gen", "sierpinski", "--level", "2", "--format", "dot",
        "--coords-out", str(coords),
    )
    assert "1 -- 2;" in result.stdout
    payload = json.loads(coords.read_text())
    assert payload["1"] == [0, 0] and payload["6"] == [2, 2]
    result = run_cli("gen", "sierpinski", "--level", "2", "--format", "json")
    assert json.loads(result.stdout)["n"] == 6


def test_occurrences_limit_below_one_exits_1_naming_it():
    result = run_cli("ramsey", "occurrences", "--graph", "K5", "--pattern", "K3", "--limit", "0")
    assert result.returncode == 1
    assert "limit must be >= 1" in result.stderr and result.stdout == ""


@pytest.mark.parametrize(
    "args,option",
    [
        (("closeknit", "ratio", "--graph", "S3", "--group", "1,x"), "--group"),
        (("closeknit", "scan", "--levels", "1-x", "--r", "1/4"), "--levels"),
        (("diffuse", "run", "--graph", "S2", "--payoffs", "2,1,0"), "--payoffs"),
        (("diffuse", "run", "--graph", "S2", "--payoffs", "2,1,zero,0"), "--payoffs"),
        (("closeknit", "cert", "--graph", "S2", "--r", "1/0", "--k", "3"), "--r"),
    ],
)
def test_malformed_list_arguments_are_usage_errors(args, option):
    result = run_cli(*args)
    assert result.returncode == 2
    assert "usage:" in result.stderr and f"argument {option}" in result.stderr
    assert "Traceback" not in result.stderr
