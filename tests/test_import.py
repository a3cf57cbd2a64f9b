"""What the package imports.  Start-up cost: every `twillsim` command
pays the package import in a fresh process, so the import loads no
module it does not need.  Seams: the package needs only the standard
library, and the trace and policy modules stay apart from the engine."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import twillsim

PACKAGE = Path(twillsim.__file__).resolve().parent
SRC = str(PACKAGE.parent)

CHILD = """\
import importlib, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
for name in sys.argv[2:]:
    importlib.import_module(name)
print(" ".join(sorted(set(sys.modules) - before)))
"""


def _added_by_import(*modules: str) -> set[str]:
    """The modules a fresh interpreter loads to import `modules`, by
    default the package and its command line."""
    modules = modules or ("twillsim", "twillsim.cli")
    done = subprocess.run([sys.executable, "-I", "-c", CHILD, SRC, *modules],
                          capture_output=True, text=True, check=True,
                          timeout=60)
    added = set(done.stdout.split())
    assert set(modules) <= added
    return added


def test_import_loads_neither_dataclasses_nor_inspect():
    # dataclasses, and the inspect it loads, once took a quarter of the
    # import; the value types are named tuples and plain classes
    assert not {"dataclasses", "inspect"} & _added_by_import()


def test_import_loads_no_numbers():
    # the field readers take int and float, not the numbers ABCs, whose
    # import once cost about 0.8 ms
    assert "numbers" not in _added_by_import()


def test_only_the_cli_loads_csv():
    # the trace writers format their own lines; comparison.csv, which
    # only the command line writes, goes through csv
    assert "csv" not in _added_by_import("twillsim")
    assert "csv" in _added_by_import()


def _imports(module: str) -> tuple[set[str], set[str]]:
    """The top-level packages a twillsim module imports absolutely, and
    the sibling modules it imports relatively ("" for the package)."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    absolute, relative = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            absolute.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level:
            relative.add(node.module or "")
        elif isinstance(node, ast.ImportFrom):
            absolute.add(node.module.split(".")[0])
    return absolute, relative


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_module_imports_only_the_standard_library(module):
    absolute, _ = _imports(module)
    assert absolute <= sys.stdlib_module_names, absolute - sys.stdlib_module_names


def test_trace_imports_no_twillsim_module():
    absolute, relative = _imports("trace")
    assert not relative
    assert "twillsim" not in absolute


def test_policy_imports_only_hardware():
    absolute, relative = _imports("policy")
    assert relative == {"hardware"}
    assert "twillsim" not in absolute
