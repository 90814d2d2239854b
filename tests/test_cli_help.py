"""Frozen ``--help`` text and usage errors of the ``gasketlab`` parser.

``golden/cli_help.jsonl`` holds, for the top-level parser, each command
group and every subcommand, the exit code, stdout and stderr of ``--help``,
and the same for a few usage errors (exit 2).  Help text wraps at the
terminal width, so every record is made and checked with ``COLUMNS=80``.
Run this file as a script to print the records the current parser produces.
"""

import argparse
import contextlib
import io
import json
import os
import sys
from pathlib import Path

from gasketlab import cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_help.jsonl"
USAGE_ERRORS = [
    [],
    ["nope"],
    ["gen"],
    ["gen", "sierpinski"],
    ["gen", "gnp", "--n", "x", "--p", "0.5"],
    ["encode", "alt", "--graph", "K3", "--occ", "1", "--gen", "complete:1"],
    ["decode", "alt", "--alt", "x.bin", "--format", "dot6"],
    ["closeknit", "cert", "--graph", "S3", "--r", "1/0", "--k", "2"],
    ["closeknit", "ratio", "--graph", "S3", "--group", "1,,2"],
    ["diffuse", "run", "--graph", "S2", "--payoffs", "2,1,0"],
    ["experiment", "link", "--levels", "1-", "--payoffs", "2,1,0,0"],
    ["--manifest", "m.json", "gen", "gnp", "--n", "4", "--p", "0.5"],
]


def _commands(parser: argparse.ArgumentParser) -> list[list[str]]:
    """Every command path below ``parser``, groups before their subcommands."""
    paths = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                paths.append([name])
                paths.extend([name, *rest] for rest in _commands(sub))
    return paths


def help_argvs() -> list[list[str]]:
    return [["--help"]] + [[*path, "--help"] for path in _commands(cli.build_parser())]


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _records():
    for argv in help_argvs() + USAGE_ERRORS:
        yield _run(argv)


def test_help_covers_every_group_and_subcommand():
    argvs = help_argvs()
    assert len(argvs) == 1 + 7 + 22
    assert [case["argv"] for case in map(json.loads, GOLDEN.read_text().splitlines())] == (
        argvs + USAGE_ERRORS
    )


def test_help_and_usage_errors_match_frozen_golden(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for line in GOLDEN.read_text().splitlines():
        case = json.loads(line)
        assert _run(case["argv"]) == case, case["argv"]
        assert case["code"] == (0 if "--help" in case["argv"] else 2)


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    for record in _records():
        sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
