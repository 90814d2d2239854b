"""Every demo script, run as a subprocess: exit code and stdout byte for
byte as frozen in ``golden/demos_stdout.jsonl``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = {case["demo"]: case for case in map(
    json.loads, (ROOT / "tests" / "golden" / "demos_stdout.jsonl").read_text().splitlines())}
DEMOS = sorted(path.name for path in (ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden():
    assert DEMOS == sorted(GOLDEN)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_stdout_matches_frozen_golden(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=60,
    )
    assert (result.returncode, result.stdout) == (GOLDEN[demo]["code"], GOLDEN[demo]["stdout"])
