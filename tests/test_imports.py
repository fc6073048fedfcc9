"""Every module-level import in the package is used by its own module.

`__init__.py` re-exports by importing, and a line marked `# noqa: F401`
binds a name on purpose (the benchmark tracer wraps it there), so both are
exempt.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "poseconf"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by a top-level import of `source` that nothing reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_the_check_finds_a_dead_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import json\n"
        "from typing import (\n    Iterable,\n    Sequence,\n)\n"
        "from .fileio import atomic_open  # noqa: F401\n"
        "def f(x: Sequence) -> str:\n"
        "    return json.dumps(x)\n"
    )
    assert unused_imports(source) == ["os", "osp", "Iterable"]
