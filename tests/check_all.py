"""Run every check that lies outside the test suite, and report each.

    python3 tests/check_all.py

It runs tests/check_pins.py, tests/check_coverage.py and
bench/selftest.py one after another, each in its own interpreter.  It
prints the output of each check that failed, then one line per check:
its name, its exit status and the seconds it took.  It exits 1 if any
check failed, else 0.  It needs the standard library only, though
tests/check_coverage.py needs pytest.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHECKS = ("tests/check_pins.py", "tests/check_coverage.py",
          "bench/selftest.py")


def main() -> int:
    results = []
    for check in CHECKS:
        start = time.perf_counter()
        done = subprocess.run([sys.executable, check], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        results.append((check, done.returncode,
                         time.perf_counter() - start))
        if done.returncode:
            print(f"--- {check} ---")
            print(done.stdout, end="")
    for check, status, seconds in results:
        print(f"{check}: exit {status} in {seconds:.1f} s")
    return 1 if any(status for _, status, _ in results) else 0


if __name__ == "__main__":
    sys.exit(main())
