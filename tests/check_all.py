"""Run every check that lies outside the test suite, and report each.

    python3 tests/check_all.py

It runs tests/check_pins.py, tests/check_coverage.py and
bench/selftest.py one after another, each in its own interpreter.  The
pin check runs once under each of python3.10 to python3.13 that is on
PATH and starts; the others run under the interpreter that runs this
script.  It prints the output of each check that failed, then one line
per check and interpreter: its name, and its exit status and the
seconds it took, or "not found" for a missing interpreter.  It exits 1
if any check failed, else 0; a missing interpreter fails nothing.  It
needs the standard library only, though tests/check_coverage.py needs
pytest.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHECKS = ("tests/check_pins.py", "tests/check_coverage.py",
          "bench/selftest.py")
PINS = "tests/check_pins.py"
VERSIONS = ("3.10", "3.11", "3.12", "3.13")


def interpreter(version: str) -> str | None:
    """The path of python<version> on PATH if it starts, else None: a
    pyenv shim is on PATH for a version that is not selected, and fails."""
    path = shutil.which(f"python{version}")
    if path is not None and subprocess.run(
            [path, "-c", ""], stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL).returncode == 0:
        return path
    return None


def runs() -> list[tuple[str, str | None, str]]:
    """(label, interpreter or None if not found, check) for each run."""
    out = []
    for check in CHECKS:
        if check != PINS:
            out.append((check, sys.executable, check))
            continue
        for version in VERSIONS:
            out.append((f"{check} under python{version}",
                        interpreter(version), check))
    return out


def main() -> int:
    results = []
    for label, python, check in runs():
        if python is None:
            results.append((label, None, 0.0))
            continue
        start = time.perf_counter()
        done = subprocess.run([python, check], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        results.append((label, done.returncode,
                        time.perf_counter() - start))
        if done.returncode:
            print(f"--- {label} ---")
            print(done.stdout, end="")
    for label, status, seconds in results:
        print(f"{label}: not found" if status is None
              else f"{label}: exit {status} in {seconds:.1f} s")
    return 1 if any(status for _, status, _ in results) else 0


if __name__ == "__main__":
    sys.exit(main())
