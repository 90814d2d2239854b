"""Fuzzed argv: every subcommand, called in process on hypothesis-built
argument lists, ends in exit code 0, 1 or 2 and never in a traceback.

Each flag draws its value from a vocabulary of valid and invalid text: graph
names (over-cap ones such as K448, E100001 and S13 included) and paths
(missing, non-UTF-8, malformed JSON, JSON with a 5000-digit integer, a
directory), integers including -1, 0 and 2^64, fractions such as 1/0, x,
nan and inf.  Flags are dropped at random and unknown ones added.  Size
arguments (``--n``, ``--level``, ``--max-level``, ``--trials``,
``--horizon``, ``--k``, ``--k-cap``, level lists and host sizes) stay
small: their cost grows with them by design.

``--config`` files are also built by hypothesis: every key takes a value of
every JSON type, and unknown keys ride along.  A config that names no
usable run ends in exit 1 with an error about the config, never in a
traceback.
"""

import contextlib
import io
import json
from collections import defaultdict
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gasketlab import cli

# Each vocabulary is (values argparse accepts, values it rejects with exit 2);
# a rejected value is drawn for one flag in ten, so most runs reach a handler.
BIG = str(2**64)
SIZES = (["-1", "0", "1", "2", "3"], ["x", ""])
INTS = (["-1", "0", "1", "7", BIG], ["x", "1.5", ""])
FRACTIONS = (["1/4", "1/2", "0", "-1/3", "3", "5/2", "1e400", BIG], ["1/0", "x", "nan", "inf", ""])
FLOATS = (["0", "0.02", "0.5", "1", "-1", "3", "nan", "inf", "-inf", "1e400", BIG], ["x", ""])
INT_LISTS = (["1,2,3", "2,4,5", "1", "", "-1", "0,1", "1,1", BIG], ["x", "1,,2"])
SIZE_LISTS = (["6,7", "2,3", "1", "", "0", "-1"], ["x"])
LEVELS = (["1", "1-2", "2,3", "0", "3-1"], ["-1", "1-", "x", ""])
PAYOFFS = (["2,1,0,0", "1,1,1,1", "1/2,0,0,1/3"], ["2,1,0", "x,1,0,0", "1/0,1,0,0", "nan,1,0,0"])
GENERATORS = ([
    "sierpinski:1", "sierpinski:2", "complete:3", "empty:2", "complete:1000",
    "sierpinski:100", "sierpinski:0", "x:1", "complete:", "complete:-1", "",
], [])
FORMATS = (["graph6", "json", "dot", "bits", "roles"], ["x"])
SCHEDULES = (["uniform-random", "round-robin"], ["x"])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Input files of every kind the vocabularies name, and output targets."""
    root = tmp_path_factory.mktemp("fuzz")

    def write(name, data):
        path = root / name
        path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
        return str(path)

    blob = root / "alt.bin"
    run_main(["encode", "alt", "--graph", "S3", "--occ", "1,2,3", "--gen", "sierpinski:1",
              "--out", str(blob)])
    return {
        "missing": str(root / "missing.g6"),
        "non_utf8": write("latin1.g6", b"\xe9\xff\x00A"),
        "bad_json": write("bad.json", '{"n": 3, "edges": [[1, 2'),
        "dir": str(root),
        "g6": write("g.g6", "GhdHKc"),
        "json": write("g.json", json.dumps({"n": 4, "edges": [[1, 2], [2, 3]]})),
        "bits": write("bits.txt", "101"),
        "alt": str(blob),
        "config": write("cfg.json", json.dumps({"epsilon": 0.01, "horizon": 20, "seed": 3})),
        "config_empty": write("empty.json", "{}"),
        "config_zero": write("zero.json", '{"horizon": 0}'),
        "config_bool": write("bool.json", '{"seed": true}'),
        "config_list": write("list.json", "[1, 2]"),
        "config_digits": write("digits.json", '{"seed": ' + "7" * 5000 + "}"),
        "json_digits": write("g_digits.json", '{"n": ' + "7" * 5000 + ', "edges": []}'),
        "out": str(root / "out.txt"),
        "out_missing_dir": str(root / "missing" / "out.txt"),
    }


def specs(f):
    """Per subcommand, each flag's vocabulary and whether it is usually kept
    (required flags, and sizes whose defaults are large)."""
    graphs = (["K3", "K4", "S2", "S3", "P3", "C5", "E2", "K0", "S0", "C2", "Q3", "", "\udcff",
               "K448", "E100001", "S13", f["missing"], f["non_utf8"], f["bad_json"], f["dir"],
               f["g6"], f["json"], f["json_digits"]], [])
    hosts = (["K2,K3,K4", "K3,,K4", "x", "", f["missing"]], [])
    bits = (["101", "", "1111", "10x", f["bits"], f["non_utf8"], f["dir"]], [])
    blobs = ([f["alt"], f["non_utf8"], f["bad_json"], f["missing"], f["dir"]], [])
    outputs = ([f["out"], f["dir"], f["out_missing_dir"]], [])
    configs = ([f[key] for key in ("config", "config_empty", "config_zero", "config_bool",
                                   "config_list", "config_digits", "bad_json", "non_utf8",
                                   "missing", "dir")], [])
    diffuse = {
        "--graph": (True, graphs), "--payoffs": (True, PAYOFFS), "--epsilon": (False, FLOATS),
        "--init": (False, INT_LISTS), "--horizon": (False, SIZES), "--seed": (False, INTS),
        "--schedule": (False, SCHEDULES), "--config": (False, configs),
    }
    table = {
        ("gen", "sierpinski"): {"--level": (True, SIZES), "--max-level": (False, SIZES),
                                "--format": (False, FORMATS), "--coords-out": (False, outputs)},
        ("gen", "gnp"): {"--n": (True, SIZES), "--p": (True, FLOATS), "--seed": (False, INTS),
                         "--format": (False, FORMATS)},
        ("gen", "plant"): {"--graph": (True, graphs), "--pattern": (True, graphs),
                           "--subset": (True, INT_LISTS), "--format": (False, FORMATS)},
        ("encode", "canonical"): {"--graph": (True, graphs)},
        ("encode", "alt"): {"--graph": (True, graphs), "--occ": (True, INT_LISTS),
                            "--gen": (True, GENERATORS),
                            "--ordering": (False, (["auto", "ordered", "unordered"], ["x"]))},
        ("decode", "canonical"): {
            "--bits": (True, bits), "--n": (True, SIZES), "--format": (False, FORMATS)},
        ("decode", "alt"): {"--alt": (True, blobs), "--format": (False, FORMATS)},
        ("closeknit", "ratio"): {"--graph": (True, graphs), "--group": (True, INT_LISTS)},
        ("closeknit", "cert"): {"--graph": (True, graphs), "--r": (True, FRACTIONS),
                                "--k": (True, SIZES)},
        ("closeknit", "scan"): {"--levels": (True, LEVELS), "--r": (True, FRACTIONS),
                                "--k-cap": (False, SIZES)},
        ("ramsey", "occurrences"): {"--graph": (True, graphs), "--pattern": (True, graphs),
                                    "--limit": (False, INTS)},
        ("ramsey", "host-check"): {"--host": (True, graphs), "--pattern": (True, graphs),
                                   "--max-edges": (False, INTS)},
        ("ramsey", "oracle"): {"--pattern": (True, graphs), "--hosts": (True, hosts),
                               "--max-edges": (False, INTS)},
        ("ramsey", "union"): {"--g1": (True, graphs), "--g2": (True, graphs),
                              "--format": (False, FORMATS)},
        ("ramsey", "split"): {"--graph": (True, graphs), "--pattern": (True, graphs),
                              "--mode": (False, (["fast", "proof-faithful"], ["x"])),
                              "--max-edges": (False, INTS)},
        ("ramsey", "bounds"): {"--pattern": (True, graphs), "--c": (False, FLOATS),
                               "--c-d": (False, FLOATS)},
        ("ramsey", "crossover"): {"--c-d": (True, FRACTIONS)},
        ("diffuse", "run"): {**diffuse, "--trace-out": (False, outputs)},
        ("diffuse", "stats"): {**diffuse, "--trials": (True, SIZES), "--jobs": (False, INTS)},
        ("experiment", "containment"): {
            "--n": (True, SIZES), "--pattern": (True, graphs), "--trials": (True, SIZES),
            "--seed": (False, INTS), "--p": (False, FLOATS), "--jobs": (False, INTS)},
        ("experiment", "threshold-sweep"): {
            "--levels": (True, LEVELS), "--n-values": (True, SIZE_LISTS),
            "--trials": (True, SIZES), "--seed": (False, INTS)},
        ("experiment", "link"): {
            "--levels": (True, LEVELS), "--payoffs": (True, PAYOFFS), "--epsilon": (False, FLOATS),
            "--horizon": (True, SIZES), "--trials": (True, SIZES), "--seed": (False, INTS),
            "--schedule": (False, SCHEDULES), "--jobs": (False, INTS)},
    }
    for command, flags in table.items():
        flags["--out"] = (command == ("encode", "alt"), outputs)
        flags["--manifest"] = (False, outputs)
    return table


def _subcommands():
    parser = cli.build_parser()
    (top,) = [a for a in parser._actions if a.dest == "command"]
    return {
        (name, sub)
        for name, sp in top.choices.items()
        for action in sp._actions
        if action.dest == "subcommand"
        for sub in action.choices
    }


def test_every_subcommand_is_fuzzed():
    assert set(specs(defaultdict(str))) == _subcommands()


def one_in(n, data, label):
    """True about once in ``n`` draws (hypothesis shrinks towards False)."""
    return data.draw(st.sampled_from([False] * (n - 1) + [True]), label=label)


def run_main(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse: usage error (2) or --help (0)
            return 0 if exc.code is None else exc.code


@pytest.mark.parametrize("command", sorted(_subcommands()), ids=" ".join)
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_argv_exits_0_1_or_2(files, command, data):
    argv = list(command)
    for flag, (usually_kept, (accepted, rejected)) in specs(files)[command].items():
        if not one_in(12 if usually_kept else 2, data, f"drop {flag}"):
            reject = rejected and one_in(10, data, f"reject {flag}")
            argv += [flag, data.draw(st.sampled_from(rejected if reject else accepted), label=flag)]
    if one_in(8, data, "unknown argument"):
        argv += data.draw(st.sampled_from([["--bogus"], ["--bogus", "1"], ["extra"]]))
    assert run_main(argv) in (0, 1, 2), argv


def test_negative_vertex_count_exits_1():
    assert run_main(["decode", "canonical", "--bits", "101", "--n", "-1"]) == 1


def test_non_utf8_diffusion_config_exits_1(files):
    argv = ["diffuse", "run", "--graph", "S2", "--payoffs", "2,1,0,0"]
    assert run_main(argv + ["--config", files["non_utf8"]]) == 1


# Per config key, values of its own JSON type, valid and not; every other
# JSON value is drawn as well, its integers <= 0.  Horizons stay small: a
# run's cost grows with its horizon.
CONFIG_VALUES = {
    "epsilon": st.sampled_from([0, 1, 0.0, 0.02, 0.5]),
    "horizon": st.none() | st.integers(1, 50),
    "seed": st.integers(0, 2**65),
    "schedule": st.sampled_from(["uniform-random", "round-robin"]),
    "init_adopters": st.lists(st.integers(-1, 8), max_size=6),
}
JSON_ANY = st.recursive(
    st.none() | st.booleans() | st.integers(max_value=0) | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=5,
)


@st.composite
def config_payloads(draw):
    """A config of any JSON values, ``init_adopters`` lists with labels
    outside the graph's 1..6 and duplicates among them."""
    payload = {}
    for key, valid in CONFIG_VALUES.items():
        if draw(st.booleans(), label=f"has {key}"):
            payload[key] = draw(valid | JSON_ANY, label=key)
    unknown = st.text(max_size=6).filter(lambda key: key not in CONFIG_VALUES)
    payload.update(draw(st.dictionaries(unknown, JSON_ANY, max_size=2), label="unknown keys"))
    return draw(st.sampled_from([payload, payload, payload, [payload], None]), label="outer")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(payload=config_payloads(), command=st.sampled_from(["run", "stats"]))
def test_fuzzed_diffusion_config_runs_or_names_the_config(payload, command):
    argv = ["diffuse", command, "--graph", "S2", "--payoffs", "2,1,0,0", "--config", "c.json"]
    if command == "stats":
        argv += ["--trials", "2"]
    stdout, stderr = io.StringIO(), io.StringIO()
    # the file's text is handed over in memory: the file reads are tested above
    with mock.patch.object(cli, "_read_text", lambda path: json.dumps(payload)), \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    err = stderr.getvalue()
    assert code in (0, 1) and "Traceback" not in err, (payload, err)
    if code == 1:
        assert err.startswith("error: diffusion config"), (payload, err)
