"""The runtime is pure standard library: every absolute import in the
package names a standard-library module or the package itself, and none
names a private one (a leading underscore, ``__future__`` aside), whose
name may change between interpreter versions: 3.11's ``_sha256`` is
``_sha2`` from 3.12."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gasketlab"


def test_package_imports_only_the_standard_library():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                private = top.startswith("_") and top != "__future__"
                if private or top != "gasketlab" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}: {name}")
    assert outside == []
