"""What the package imports.  Start-up cost: every `twillsim` command
pays the package import in a fresh process, so the import loads no
module it does not need, and the value types are `collections` named
tuples that keep their public shape.  Seams: the package needs only the
standard library, and the trace and policy modules stay apart from the
engine."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import twillsim
from twillsim import (ClusterState, ControllerEvent, ControllerView, Decision,
                      DecisionKind, SignatureMap, TaskView)
from twillsim.trace import DecisionRecord, PowerRecord, RequestRecord

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
    default the package and its command line.  The interpreter runs
    without `site` (-S), whose .pth files may load modules before the
    child starts and so hide them from it."""
    modules = modules or ("twillsim", "twillsim.cli")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", CHILD, SRC,
                           *modules],
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


def test_import_loads_no_typing_pathlib_random_or_graphlib():
    # together over a third of a plain interpreter's import: typing for
    # NamedTuple's annotations, pathlib (with urllib.parse, ipaddress and
    # fnmatch) to join paths, random for random_mix alone, and graphlib
    # to name a dependency cycle in an error
    assert not ({"typing", "pathlib", "random", "graphlib"}
                & _added_by_import("twillsim"))
    # the command line keeps pathlib for its path checks
    assert not {"typing", "random", "graphlib"} & _added_by_import()


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


# the value types whose constructors check nothing: their fields, in
# order, and their defaults
UNCHECKED_TYPES = [
    (ClusterState, ("spec", "current_level", "occupant"),
     {"current_level": 0, "occupant": None}),
    (SignatureMap, ("dla_flops_fraction", "preferred_clusters",
                    "layer_feasible"), {}),
    (ControllerEvent, ("kind", "request_id", "cluster_id"),
     {"request_id": None, "cluster_id": None}),
    (Decision, ("kind", "request_id", "cluster_id", "level", "part",
                "work_gflops", "native"),
     {"request_id": None, "cluster_id": None, "level": None, "part": None,
      "work_gflops": None, "native": False}),
    (TaskView, ("key", "request_id", "part", "model", "priority", "state",
                "cluster_id", "work_gflops", "arrival_ms", "preferred_kinds",
                "dla_fraction", "native"), {}),
    (ControllerView, ("now", "platform", "states", "tasks",
                      "dla_fallback_penalty"), {}),
    (DecisionRecord, ("time_ms", "kind", "request_id", "part", "cluster_id",
                      "level", "freq_mhz"), {}),
    (RequestRecord, ("request_id", "model", "priority", "arrival_ms",
                     "first_map_ms", "completed_ms", "waiting_ms",
                     "latency_ms", "work_gflops"), {}),
    (PowerRecord, ("time_ms", "power_mw", "freqs_mhz", "utils"), {}),
]


@pytest.mark.parametrize("cls, fields, defaults", [
    pytest.param(*case, id=case[0].__name__) for case in UNCHECKED_TYPES])
def test_unchecked_value_type_keeps_its_public_shape(cls, fields, defaults):
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    # by keyword, the defaulted fields left out: e.g. Decision(kind=...)
    # has native False
    given = {f: f"<{f}>" for f in fields if f not in defaults}
    value = cls(**given)
    assert value == tuple({**given, **defaults}[f] for f in fields)
    for field, default in defaults.items():
        assert getattr(value, field) is default
    # immutable, and with no __dict__ to take a new attribute: a subclass
    # that drops `__slots__ = ()` fails the second check
    with pytest.raises(AttributeError):
        setattr(value, fields[0], None)
    with pytest.raises(AttributeError):
        value.extra = None

