"""Every module-level import in the package is used by its own module, and
every module-level private name is read somewhere in the package.

`__init__.py` re-exports by importing, and a line marked `# noqa: F401`
binds a name on purpose (the benchmark tracer wraps it there), so both are
exempt from the import check.
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


def imported_modules(source: str) -> set[str]:
    """Every absolute module an import statement of `source` names, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


@pytest.mark.parametrize("module", ["__init__.py", *MODULES])
def test_no_module_imports_dataclasses(module):
    # building dataclasses costs every process most of the package's import
    names = imported_modules((PACKAGE / module).read_text(encoding="utf-8"))
    assert not {name for name in names if name.split(".")[0] == "dataclasses"}


def test_the_check_finds_dataclasses_imports():
    source = (
        "import os, dataclasses as dc\n"
        "from dataclasses import field\n"
        "from . import dataclasses\n"
        "def f():\n    import dataclasses.x\n"
    )
    assert imported_modules(source) == {"os", "dataclasses", "dataclasses.x"}


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


def _bound_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines or assigns."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else []
    if isinstance(node, ast.AnnAssign):
        targets = [node.target]
    names = []
    for target in targets:
        elements = target.elts if isinstance(target, ast.Tuple) else [target]
        names += [t.id for t in elements if isinstance(t, ast.Name)]
    return names


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """`module:name` for each module-level private name (one leading
    underscore) of `sources` (module -> text) that no other top-level
    statement of any module reads, as a name or as an attribute."""
    defined = []
    readers: dict[str, set] = {}
    for module, source in sources.items():
        for i, node in enumerate(ast.parse(source).body):
            defined += [
                (module, i, name) for name in _bound_names(node)
                if name.startswith("_") and not name.startswith("__")
            ]
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
                    readers.setdefault(sub.id, set()).add((module, i))
                elif isinstance(sub, ast.Attribute):
                    readers.setdefault(sub.attr, set()).add((module, i))
    return [
        f"{module}:{name}" for module, i, name in defined
        if not readers.get(name, set()) - {(module, i)}
    ]


def test_package_reads_every_private_name():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []


def test_the_check_finds_an_unread_private_name():
    sources = {
        "a.py": (
            "__all__ = ['f']\n"
            "_LIMIT = 3\n"
            "_UNUSED = 4\n"
            "_x, _y = 1, 2\n"
            "def _helper(n):\n    return n < _LIMIT\n"
            "def _recursive(n):\n    return _recursive(n - 1)\n"
            "class _Self:\n    def copy(self) -> _Self:\n        return self\n"
            "def f(n: int) -> bool:\n    return _helper(n + _x)\n"
        ),
        "b.py": "from . import a\ndef _shared():\n    pass\n",
        "c.py": "from . import b\nb._shared()\n",
    }
    unread = ["a.py:_UNUSED", "a.py:_y", "a.py:_recursive", "a.py:_Self"]
    assert unread_private_names(sources) == unread
