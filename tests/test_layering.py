"""Module layering and the CLI command table.

A module loads only the layers it uses: close-knit certification does not
load the diffusion dynamics, and isomorphism search, which holds the
embedding kernel, does not load the Ramsey host search built on it.  Each
check runs in a fresh interpreter, so no import made earlier in the test
process can hide a dependency.

Only ``graphs`` knows the canonical pair layout: no other module in
``src/`` reads or writes a graph's kept ``_flags``.  Only ``isomorphism``
works out a pattern's symmetry, and ``ramsey`` takes from it only the
embedding kernel and ``_symmetry``.

``cli.build_parser`` is built from ``cli._COMMANDS``; every handler must
have its row and every shared flag spec in ``cli._FLAGS`` a reader.

No class carries a method that ``dataclasses`` exec-compiled: the value
types take theirs from ``errors.Record``, written once.
"""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from gasketlab import cli

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize(
    "module, absent", [("closeknit", "diffusion"), ("isomorphism", "ramsey")]
)
def test_a_module_does_not_load_a_layer_above_it(module, absent):
    code = f"import sys, gasketlab.{module}; print('gasketlab.{absent}' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (result.returncode, result.stdout) == (0, "False\n"), result.stderr


def test_only_graphs_touches_the_kept_flags():
    touching = {
        path.name
        for path in (SRC / "gasketlab").glob("*.py")
        if re.search(r"\b_flags\b", path.read_text())
    }
    assert touching == {"graphs.py"}


SYMMETRY = {"_class_orbits", "_breaking_conditions", "_symmetry"}


def test_only_isomorphism_defines_the_symmetry_code():
    defining = {}
    for path in (SRC / "gasketlab").glob("*.py"):
        names = {node.name for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        if names & SYMMETRY:
            defining[path.name] = names & SYMMETRY
    assert defining == {"isomorphism.py": SYMMETRY}


def test_ramsey_takes_only_the_kernel_and_the_symmetry_from_isomorphism():
    taken = set()
    for node in ast.walk(ast.parse((SRC / "gasketlab" / "ramsey.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            assert "isomorphism" not in names  # no reach into the module itself
            if node.module in ("isomorphism", "gasketlab.isomorphism"):
                taken |= names
        elif isinstance(node, ast.Import):
            assert "gasketlab.isomorphism" not in {alias.name for alias in node.names}
    kernel = {"_allowed", "_embeddings", "_masks", "_plan", "PATTERN_SIZE_MAX"}
    assert taken == kernel | {"_symmetry"}


def test_no_class_carries_an_exec_compiled_method():
    compiled = []
    for path in sorted((SRC / "gasketlab").glob("*.py")):
        module = importlib.import_module(f"gasketlab.{path.stem}")
        for cls in vars(module).values():
            if not isinstance(cls, type) or cls.__module__ != module.__name__:
                continue
            for name, member in vars(cls).items():
                method = inspect.unwrap(getattr(member, "__func__", member))  # repr is wrapped
                code = getattr(method, "__code__", None)
                if code is not None and code.co_filename == "<string>":
                    compiled.append(f"{cls.__module__}.{cls.__name__}.{name}")
    assert compiled == []


def test_no_module_applies_a_dataclass_decorator():
    decorated = []
    for path in (SRC / "gasketlab").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            for deco in getattr(node, "decorator_list", ()):
                target = deco.func if isinstance(deco, ast.Call) else deco
                if ast.unparse(target) in ("dataclass", "dataclasses.dataclass"):
                    decorated.append(f"{path.name}:{node.lineno}")
    assert decorated == []


def _rows():
    return [row for _, _, rows in cli._COMMANDS for row in rows]


def test_every_handler_has_exactly_one_command_row():
    handlers = {name for name in vars(cli) if name.startswith("_cmd_")}
    rows = Counter(func.__name__ for _, func, _ in _rows())
    assert rows == Counter(handlers)


def test_every_shared_flag_spec_is_named_by_some_row():
    named = {flag for _, _, flags in _rows() for flag in flags if isinstance(flag, str)}
    assert named == set(cli._FLAGS)
