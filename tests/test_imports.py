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


SRC = str(pathlib.Path(wgherald.__file__).resolve().parent.parent)


def run_fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run code in a new interpreter that imports wgherald from this tree."""
    return subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1])\n"
                           + code, SRC, *args], capture_output=True, text=True)


def test_cli_import_leaves_out_scipy_and_yaml():
    # scipy.linalg is half of a process start, and step, accumulate, sweep,
    # fit and compare never call it; yaml is read only for a --config file
    out = run_fresh("import wgherald.cli\n"
                    "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'yaml')))")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


LAZY_PATHS = """
import numpy as np
from wgherald import linalg
from wgherald.basis import HPMode
from wgherald.dissipative import DissipativeParams, optimal_time
from wgherald.protocol import _model

def scipy_loaded():
    return any(m.split('.')[0] == 'scipy' for m in sys.modules)

assert not scipy_loaded()
p = DissipativeParams.from_purcell(200, 3, 10.0)
model, t = _model(p, HPMode.EXACT), optimal_time(p)
ops = model.ops
eig = linalg.Propagator(model.g, model.psi0, t)
assert eig.method == 'eig'
linalg.EIGBASIS_MAX_CONDITION = 0
fallback = linalg.Propagator(model.g, model.psi0, t)
assert fallback.method == 'expm' and not scipy_loaded()
psi = fallback.apply(t)
assert np.abs(psi - eig.apply(t)).max() <= 1e-12
assert scipy_loaded()
losses = fallback.integrated_expectation(ops, t)
assert np.abs(losses - eig.integrated_expectation(ops, t)).max() <= 1e-12
"""


def test_deferred_scipy_imports_resolve_where_first_needed():
    # the expm fallback (apply and the loss density) imports scipy inside
    # the function
    out = run_fresh(LAZY_PATHS)
    assert out.returncode == 0, out.stderr


TRANSFER = """
from wgherald.bandgap import BandgapParams, run_transfer
from wgherald.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')

masked = 'numpy.ma' in sys.modules  # numpy 1.x imports it with numpy, 2.x on first use
rec = run_transfer(BandgapParams(40, 40.0, gamma_star=0.1))
assert rec.krylov_steps > 1 and 0 < rec.infidelity < 1
assert ('numpy.ma' in sys.modules) == masked
print(scipy_modules())
assert main(['bandgap', '--N', '100', '--xi', '100', '--out', sys.argv[2]]) == 0
assert ('numpy.ma' in sys.modules) == masked
print(scipy_modules())
"""


def test_bandgap_transfer_leaves_out_scipy(tmp_path):
    # the blocked Kac-Murdock-Szego product and the Ritz pairs from numpy's
    # eigh keep the whole transfer, library call and CLI, on numpy alone; nor
    # does it import numpy.ma where importing numpy leaves it out (np.unique
    # does, through np.ma.is_masked, on numpy 2.4)
    out = run_fresh(TRANSFER, str(tmp_path / "series.csv"))
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["[]", "[]"]


def test_invalid_yaml_config_exits_1_in_a_fresh_process(tmp_path):
    # yaml is first imported by the config loader, whose error path names it
    path = tmp_path / "bad.yaml"
    path.write_text("axes: [unclosed\n")
    out = run_fresh("from wgherald.cli import main; sys.exit(main(sys.argv[2:]))",
                    "sweep", "--config", str(path))
    assert out.returncode == 1
    assert "is not valid YAML" in out.stderr


def test_failing_hypothesis_example_reports_one_failure(tmp_path):
    # a failing @given example has Hypothesis's patch writer import libcst,
    # which warns on import; under the project's warning filters that must
    # be one failed test (exit 1), not an INTERNALERROR (exit 3) that ends
    # the run before the remaining tests report
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n")
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
                          "test_fails.py"], cwd=tmp_path, capture_output=True, text=True)
    assert out.returncode == 1, out.stdout + out.stderr
    assert "1 failed" in out.stdout
