import dataclasses
import json
import os
import resource
import shlex
import subprocess
import sys
import time
import tracemalloc
from math import comb
from pathlib import Path

import pytest

from gasketlab import cli
from gasketlab.catalog import named_graph
from gasketlab.closeknit import GroupReport
from gasketlab.experiments import ContainmentResult
from gasketlab.ramsey import BoundsReport, SplitResult

from conftest import grow_connected_group, oracle_min_ratio_blocks

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


def test_out_of_memory_exits_1_with_one_error_line():
    """S9 as graph6 builds an n x n byte square; under a 128 MiB address-space
    limit, set in the child process only, that allocation fails."""
    limit = 128 << 20
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-m", "gasketlab", "gen", "sierpinski", "--level", "9", "--format", "graph6"],
        capture_output=True, text=True, env=env,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == "error: ran out of memory on this input\n"


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
    result = run_cli("closeknit", "scan", "--levels", "1-2", "--r", "1/3", "--k-cap", "0")
    assert result.returncode == 1 and "k_cap" in result.stderr and result.stdout == ""


def test_closeknit_ratio_golden():
    result = run_cli("closeknit", "ratio", "--graph", "S3", "--group", "2,4,5")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["min_ratio"] == "1/4"
    assert payload["argmin"] == [2, 4, 5]


def test_closeknit_ratio_on_a_20_vertex_group_matches_the_oracle():
    s6 = named_graph("S6")
    group = grow_connected_group(s6, 20, 6)
    result = run_cli("closeknit", "ratio", "--graph", "S6", "--group", ",".join(map(str, group)))
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    ratio, argmin = oracle_min_ratio_blocks(s6, group)
    assert (payload["min_ratio"], payload["argmin"]) == (str(ratio), list(argmin))


def test_closeknit_ratio_on_a_21_vertex_group_exits_1_naming_the_bound():
    group = grow_connected_group(named_graph("S6"), 21, 6)
    result = run_cli("closeknit", "ratio", "--graph", "S6", "--group", ",".join(map(str, group)))
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == "error: group size 21 exceeds the group-size bound GROUP_SIZE_MAX = 20\n"


def test_closeknit_cert_and_scan():
    result = run_cli("closeknit", "cert", "--graph", "S2", "--r", "1/4", "--k", "3")
    payload = json.loads(result.stdout)
    assert payload["success"] is True and len(payload["witness"]) == 6
    result = run_cli("closeknit", "scan", "--levels", "1-3", "--r", "1/4")
    payload = json.loads(result.stdout)
    assert payload["minimal_k"] == {"1": 2, "2": 3, "3": 3}


@pytest.mark.parametrize("argv", [
    ["closeknit", "scan", "--levels", "12-13", "--r", "1/3"],
    ["closeknit", "scan", "--levels", "1-30000000", "--r", "1/3"],
    ["experiment", "link", "--levels", "12-13", "--payoffs", "2,1,0,0", "--trials", "1"],
    ["experiment", "threshold-sweep", "--levels", "12,13", "--n-values", "3"],
])
def test_a_level_past_the_cap_is_refused_before_any_gasket_is_built(argv, capsys, monkeypatch):
    """Every listed level is checked first, so no gasket (S12 takes about
    0.5 s and 129 MiB) is built; a range ends at its first level past the
    cap, so 1-30000000 is 13 levels, not a list of 3e7 ints."""
    built = []
    monkeypatch.setattr(cli.sierpinski, "build", lambda *a, **k: built.append(a))
    assert run_main(argv, capsys) == (
        1, "", "error: gasket level 13 exceeds the configured maximum 12; "
        "raise max_level to override\n")
    assert built == []
    assert list(cli._levels("1-30000000")) == list(range(1, 14))
    assert list(cli._levels("20-30000000,5")) == [20, 5]


@pytest.mark.parametrize("argv", [
    ["closeknit", "scan", "--levels", "3-1", "--r", "1/3"],
    ["closeknit", "scan", "--levels", "0--3", "--r", "1/3"],
    ["closeknit", "scan", "--levels", "1,3-2", "--r", "1/3"],
    ["experiment", "link", "--levels", "3-1", "--payoffs", "2,1,0,0", "--trials", "1"],
])
def test_a_level_range_that_ends_below_its_start_is_a_usage_error(argv, capsys):
    """Such a range once parsed as no levels, and the command succeeded on
    nothing."""
    code, out, err = run_main(argv, capsys)
    assert (code, out) == (2, "")
    part = argv[3].split(",")[-1]
    assert err.endswith(f"error: argument --levels: level range '{part}' ends below its start\n")


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


def test_no_horizon_is_200_n_from_flags_and_from_config(tmp_path, capsys):
    config = tmp_path / "diffusion.json"
    config.write_text("{}")
    base = ["diffuse", "run", "--graph", "S2", "--payoffs", "2,1,0,0"]  # nobody ever adopts
    for extra in (["--horizon", "0"], ["--config", str(config)]):
        code, out, _ = run_main(base + extra, capsys)
        assert code == 0 and json.loads(out)["revisions"] == 200 * 6


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
        (("ramsey", "crossover", "--c-d", "x"), "--c-d"),
        (("ramsey", "crossover", "--c-d", "1/0"), "--c-d"),
    ],
)
def test_malformed_list_arguments_are_usage_errors(args, option):
    result = run_cli(*args)
    assert result.returncode == 2
    assert "usage:" in result.stderr and f"argument {option}" in result.stderr
    assert "Traceback" not in result.stderr


# In-process calls of ``cli.main``: the parser is built once per process and
# reused, so these also check that one call leaves nothing behind for the next.

GOLDEN = Path(__file__).resolve().parent / "golden" / "closeknit_stdout.jsonl"


def run_main(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_plant_into_a_large_host_without_flags_builds_no_flags(capsys):
    # a named path keeps no canonical flags; planting must not build its
    # C(n, 2) flag bytes, which json output never reads
    argv = ["gen", "plant", "--graph", "P5000", "--pattern", "K3", "--subset", "1,2,3",
            "--format", "json"]
    tracemalloc.start()
    try:
        code, out, err = run_main(argv, capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "") and peak < comb(5000, 2)
    payload = json.loads(out)
    assert payload["n"] == 5000 and payload["edges"][:4] == [[1, 2], [1, 3], [2, 3], [3, 4]]


@pytest.mark.parametrize(
    "argv, report",
    [
        (["closeknit", "ratio", "--graph", "S3", "--group", "2,4,5"], GroupReport),
        (["ramsey", "split", "--graph", "E3", "--pattern", "K3"], SplitResult),
        (["ramsey", "bounds", "--pattern", "K5", "--c", "2.5", "--c-d", "2.5"], BoundsReport),
        (["experiment", "containment", "--n", "6", "--pattern", "K3", "--trials", "5"],
         ContainmentResult),
    ],
)
def test_report_json_keys_are_the_report_fields(argv, report, capsys):
    code, out, _ = run_main(argv, capsys)
    assert code == 0
    assert list(json.loads(out)) == sorted(f.name for f in dataclasses.fields(report))


@pytest.mark.parametrize(
    "argv",
    [["experiment", "threshold-sweep", "--levels", "3", "--n-values", "15,20", "--trials", "2"],
     ["experiment", "containment", "--n", "20", "--pattern", "S3", "--trials", "2"]],
)
def test_experiments_on_the_15_vertex_gasket_exit_0(argv, capsys):
    # their first-moment column needs |Aut(S3)|, a count on 15 vertices
    code, out, err = run_main(argv, capsys)
    assert (code, err) == (0, "") and out


def test_crossover_in_the_band_answers_in_under_a_second(capsys):
    start = time.perf_counter()
    code, out, _ = run_main(["ramsey", "crossover", "--c-d", "439252"], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 0 and '"max_level": 15' in out


def test_crossover_past_level_1000_is_not_cut_short(capsys):
    code, out, _ = run_main(["ramsey", "crossover", "--c-d", "1" + "0" * 1000], capsys)
    assert code == 0 and json.loads(out)["max_level"] == 2104


def test_gnp_past_the_vertex_cap_exits_1_at_once_with_one_error_line(capsys):
    start = time.perf_counter()
    code, out, err = run_main(["gen", "gnp", "--n", "100000", "--p", "0.5"], capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == "error: G(n, p) sample of n=100000 vertices exceeds the cap GNP_VERTEX_MAX = 4096\n"


def test_diffuse_run_past_the_trace_cap_exits_1_at_once_with_one_error_line(capsys):
    start = time.perf_counter()
    argv = ["diffuse", "run", "--graph", "K3", "--payoffs", "1,2,0,0", "--horizon", "2097153"]
    code, out, err = run_main(argv, capsys)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (1, "")
    assert err == "error: horizon 2097153 exceeds the trace cap TRACE_REVISIONS_MAX = 2097152\n"


def test_manifest_before_the_subcommand_is_a_usage_error(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    argv = ["--manifest", str(manifest), "gen", "gnp", "--n", "4", "--p", "0.5"]
    code, out, _ = run_main(argv, capsys)
    assert (code, out) == (2, "")
    assert not manifest.exists()


def test_closeknit_stdout_matches_frozen_golden(capsys):
    """``closeknit cert`` (S3-S5, r = 1/3, 2/5, 1/2, k = 6, 8) and ``closeknit
    scan --levels 1-4 --r 1/4`` stdout, witnesses and groups_examined
    included, byte for byte as frozen from the exact-minimum certifier."""
    cases = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    assert len(cases) == 19
    for case in cases:
        assert run_main(case["argv"], capsys) == (0, case["stdout"], ""), case["argv"]


README = Path(__file__).resolve().parent.parent / "README.md"
README_GOLDEN = Path(__file__).resolve().parent / "golden" / "readme_stdout.jsonl"
# Past the README block: a fixed link horizon, and diffuse stats at 200*n.
README_EXTRA_ARGVS = [
    ["experiment", "link", "--levels", "3", "--payoffs", "3,2,0,0", "--trials", "20",
     "--seed", "3", "--horizon", "500"],
    ["diffuse", "stats", "--graph", "S3", "--payoffs", "3,2,0,0", "--epsilon", "0.1",
     "--init", "1,2,3", "--schedule", "round-robin", "--trials", "30", "--seed", "11"],
]


def readme_cli_argvs() -> list[list[str]]:
    """The ``gasketlab`` command lines of the README's CLI block, in order,
    with continuations joined and comments dropped."""
    block = README.read_text().split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    argvs = [shlex.split(line, comments=True) for line in lines if line.strip()]
    assert all(argv[0] == "gasketlab" for argv in argvs)
    return [argv[1:] for argv in argvs]


def test_readme_cli_block_matches_frozen_golden(tmp_path, monkeypatch, capsys):
    """Every README CLI line, run in order in one directory, then the extra
    lines: exit code and stdout byte for byte as frozen."""
    cases = [json.loads(line) for line in README_GOLDEN.read_text().splitlines()]
    assert [case["argv"] for case in cases] == readme_cli_argvs() + README_EXTRA_ARGVS
    monkeypatch.chdir(tmp_path)
    for case in cases:
        code, out, _ = run_main(case["argv"], capsys)
        assert (code, out) == (case["code"], case["stdout"]), case["argv"]


def test_reused_parser_matches_fresh_parser(tmp_path, capsys):
    argvs = [
        ["closeknit", "ratio", "--graph", "S3", "--group", "2,4,5"],
        ["diffuse", "run", "--graph", "S2", "--payoffs", "2,1,0,0", "--init", "1,2,3",
         "--schedule", "round-robin", "--horizon", "12", "--manifest", str(tmp_path / "m1.json")],
        ["closeknit", "cert", "--graph", "S2", "--r", "1/2", "--k", "3"],
        ["closeknit", "ratio", "--graph", "S3", "--group", "1,x"],
        ["diffuse", "run", "--graph", "S2", "--payoffs", "2,1,0,0", "--horizon", "12",
         "--manifest", str(tmp_path / "m2.json")],
        ["gen", "sierpinski", "--level", "2", "--format", "json"],
        ["ramsey", "occurrences", "--graph", "K5", "--pattern", "K3", "--limit", "2"],
    ]

    def run_all(fresh: bool):
        results = []
        for argv in argvs:
            if fresh:
                cli.build_parser.cache_clear()
            result = run_main(argv, capsys)
            results.append((result, [p.read_text() for p in sorted(tmp_path.glob("m*.json"))]))
        for p in tmp_path.glob("m*.json"):
            p.unlink()
        return results

    fresh = run_all(fresh=True)
    cli.build_parser.cache_clear()
    reused = run_all(fresh=False)
    assert cli.build_parser() is cli.build_parser()
    assert [code for (code, _, _), _ in fresh] == [0, 0, 0, 2, 0, 0, 0]
    assert reused == fresh


@pytest.mark.parametrize(
    "payload,key",
    [
        ({"epsilon": "x"}, "epsilon"),
        ({"epsilon": True}, "epsilon"),
        ({"horizon": 1.5}, "horizon"),
        ({"seed": "3"}, "seed"),
        ({"init_adopters": [1, "2"]}, "init_adopters"),
        ({"init_adopters": 3}, "init_adopters"),
        ({"schedule": 1}, "schedule"),
        ([1, 2], "JSON object"),
    ],
)
def test_diffuse_config_type_errors_exit_1_naming_the_key(tmp_path, capsys, payload, key):
    config = tmp_path / "diffusion.json"
    config.write_text(json.dumps(payload))
    argv = ["diffuse", "run", "--graph", "S2", "--payoffs", "2,1,0,0", "--config", str(config)]
    code, out, err = run_main(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: diffusion config") and key in err


@pytest.mark.parametrize("command", ["run", "stats"])
def test_diffuse_init_adopters_outside_the_graph_exit_1_naming_their_source(
    tmp_path, capsys, command
):
    config = tmp_path / "diffusion.json"
    config.write_text(json.dumps({"init_adopters": [0]}))
    base = ["diffuse", command, "--graph", "S2", "--payoffs", "2,1,0,0"]
    if command == "stats":
        base += ["--trials", "2"]
    code, out, err = run_main(base + ["--config", str(config)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: diffusion config {config}: init_adopters")
    assert "1..6" in err
    code, out, err = run_main(base + ["--init", "0,7"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: --init") and "1..6" in err


@pytest.mark.parametrize("option", ["--out", "--manifest"])
def test_unwritable_output_path_exits_1_naming_it(tmp_path, option):
    target = tmp_path / "missing" / "x.json"
    result = run_cli("closeknit", "ratio", "--graph", "S3", "--group", "1,2,3", option, str(target))
    assert result.returncode == 1
    assert result.stderr.startswith("error:") and str(target) in result.stderr
    assert "Traceback" not in result.stderr


def test_decode_canonical_rejects_characters_other_than_bits(capsys):
    argv = ["decode", "canonical", "--bits", "1x0", "--n", "3", "--format", "json"]
    code, out, err = run_main(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "'0' and '1'" in err


@pytest.mark.parametrize(
    "name, content, field",
    [
        ("bad.g6", "éA".encode("utf-8"), "ASCII"),
        ("latin1.g6", b"\xe9A", "UTF-8"),
        ("short_edge.json", b'{"n": 3, "edges": [[1]]}', '"edges"[0]'),
        ("n_text.json", b'{"n": "3", "edges": []}', '"n"'),
        ("edges_number.json", b'{"n": 3, "edges": 5}', '"edges"'),
        ("n_float.json", b'{"n": 1e9, "edges": []}', '"n"'),
        ("edge_text.json", b'{"n": 3, "edges": [[1, "x"]]}', '"edges"[0][1]'),
        ("n_bool.json", b'{"n": true, "edges": []}', '"n"'),
        ("edge_bool.json", b'{"n": 3, "edges": [[true, 2]]}', '"edges"[0][0]'),
        ("not_object.json", b'{"n": 3}', '"edges"'),
        ("n_digits.json", b'{"n": ' + b"7" * 5000 + b', "edges": []}', "invalid JSON"),
        ("nesting.json", b'{"n": 3, "edges": ' + b"[" * 50_000, "invalid JSON"),
    ],
)
def test_malformed_graph_files_exit_1_naming_the_field(tmp_path, capsys, name, content, field):
    path = tmp_path / name
    path.write_bytes(content)
    code, out, err = run_main(["encode", "canonical", "--graph", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and field in err


@pytest.mark.parametrize(
    "content",
    [b'{"seed": ' + b"7" * 5000 + b"}", b"[" * 50_000, b'{"seed": \xe9}'],
    ids=["int-digits", "nesting", "non-utf8"],
)
def test_hostile_diffusion_config_exits_1_naming_the_path(tmp_path, capsys, content):
    config = tmp_path / "diffusion.json"
    config.write_bytes(content)
    argv = ["diffuse", "run", "--graph", "S2", "--payoffs", "2,1,0,0", "--config", str(config)]
    code, out, err = run_main(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and str(config) in err


def test_bounds_with_overflowing_constants_exit_1_naming_them(capsys):
    code, out, err = run_main(["ramsey", "bounds", "--pattern", "S2", "--c-d", "10000"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "c_d" in err
    code, out, err = run_main(["ramsey", "bounds", "--pattern", "S2", "--c", "1000"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "c=" in err


@pytest.mark.parametrize(
    "name, message",
    [
        ("K448", "graph 'K448' has 100128 edges, over the cap 100000"),
        ("E100001", "graph 'E100001' has 100001 vertices, over the cap 100000"),
        ("S13", "gasket level 13 exceeds the configured maximum 12"),
    ],
    ids=["K448", "E100001", "S13"],
)
def test_over_cap_graph_names_exit_1_naming_the_cap(tmp_path, monkeypatch, capsys, name, message):
    monkeypatch.chdir(tmp_path)  # no file of that name
    code, out, err = run_main(["closeknit", "ratio", "--graph", name, "--group", "1"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and message in err
    assert "neither a known graph name" not in err


def test_unknown_graph_name_without_a_file_exits_1_saying_so(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_main(["closeknit", "ratio", "--graph", "Q3", "--group", "1"], capsys)
    assert (code, out) == (1, "")
    assert "'Q3' is neither a known graph name nor an existing file" in err


@pytest.mark.parametrize(
    "gen, occ",
    [("complete:1", "1"), ("empty:0", "1"), ("complete:2", "1,2"), ("complete:3", "1,2"),
     ("sierpinski:1", "1,2,3")],
)
def test_encode_alt_reports_in_full_or_leaves_no_file(tmp_path, capsys, gen, occ):
    out = tmp_path / "x.bin"
    argv = ["encode", "alt", "--graph", "K3", "--occ", occ, "--gen", gen, "--out", str(out)]
    code, stdout, err = run_main(argv, capsys)
    if code == 0:
        assert set(json.loads(stdout)) == {"out", "canonical_bits", "encoded_bits", "gain"}
        assert out.exists()
    else:
        assert (code, stdout, out.exists()) == (1, "", False)
        assert err.startswith("error:")


def test_encode_alt_manifest_records_out_as_given(tmp_path, capsys):
    out, manifest = tmp_path / "x.bin", tmp_path / "m.json"
    argv = ["encode", "alt", "--graph", "S3", "--occ", "1,2,3", "--gen", "sierpinski:1",
            "--out", str(out)]
    code, plain, _ = run_main(argv, capsys)
    blob = out.read_bytes()
    out.unlink()
    assert run_main(argv + ["--manifest", str(manifest)], capsys) == (0, plain, "") and code == 0
    assert out.read_bytes() == blob and json.loads(plain)["out"] == str(out)
    payload = json.loads(manifest.read_text())
    assert payload["parameters"]["out"] == str(out)
    assert payload["output_paths"] == [str(out)]


@pytest.mark.parametrize(
    "args, message",
    [(("experiment", "threshold-sweep", "--levels", "8", "--n-values", "10", "--trials", "1",
       "--seed", "1"), "error: pattern size k=3282 makes its break-even bounds too large"),
     (("ramsey", "bounds", "--pattern", "S8"), "error: pattern size k=3282 makes 2^((k-1)/2)")],
)
def test_bounds_past_the_largest_float_exit_1_with_one_error_line(args, message):
    result = run_cli(*args)
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr.startswith(message) and result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr
