"""Every imported name in the package and its tests is used.

No linter ships with the project's dependencies, so this scans the syntax
trees directly: a name bound by an import statement must appear as a
name somewhere in the module, or be listed in its `__all__` (a re-export).
`from __future__` imports are directives, not bindings, and are skipped.
"""

import ast
import pathlib
import subprocess
import sys

import wgherald

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/*.py")])


def unused_imports(source: str) -> list[str]:
    """Imported names of a module that it never references."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported.add(alias.asname or alias.name)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(elt.value for elt in ast.walk(node.value)
                        if isinstance(elt, ast.Constant) and isinstance(elt.value, str))
    return sorted(imported - used)


def test_scanner_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, sys as system\n"
              "from math import pi, tau\n"
              "from .mod import exported\n"
              "__all__ = ['exported']\n"
              "print(system.argv, tau)\n")
    assert unused_imports(source) == ["os", "pi"]


def test_no_unused_imports():
    found = {str(path.relative_to(ROOT)): unused_imports(path.read_text()) for path in FILES}
    assert {path: names for path, names in found.items() if names} == {}


def test_cli_import_leaves_out_scipy_integrate():
    # scipy.integrate costs a quarter second or more at every process start;
    # the expm fallback's Simpson rule is written out in numpy instead
    src = str(pathlib.Path(wgherald.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import wgherald.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
