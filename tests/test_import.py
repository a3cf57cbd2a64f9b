"""Start-up cost: every `twillsim` command pays the package import in a
fresh process, so the import loads no module it does not need."""

import subprocess
import sys
from pathlib import Path

import twillsim

SRC = str(Path(twillsim.__file__).resolve().parents[1])

CHILD = """\
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import twillsim, twillsim.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def _added_by_import() -> set[str]:
    done = subprocess.run([sys.executable, "-I", "-c", CHILD, SRC],
                          capture_output=True, text=True, check=True,
                          timeout=60)
    added = set(done.stdout.split())
    assert "twillsim.cli" in added
    return added


def test_import_loads_neither_dataclasses_nor_inspect():
    # dataclasses, and the inspect it loads, once took a quarter of the
    # import; the value types are named tuples and plain classes
    assert not {"dataclasses", "inspect"} & _added_by_import()


def test_import_loads_no_numbers():
    # the field readers take int and float, not the numbers ABCs, whose
    # import once cost about 0.8 ms
    assert "numbers" not in _added_by_import()
