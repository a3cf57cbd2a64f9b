"""Run the test suite under a line tracer; list each statement inside a
function of src/twillsim that never ran.

It needs pytest and the standard library only, no coverage package:

    python3 tests/check_coverage.py [pytest arguments]

Paths among the arguments are relative to the repository root.

It prints one line per never-run statement, "<file>:<line> <function>:
<source>", then the totals.  The tracer makes each test several times
slower, so a test with a time bound may fail under it: each test that
failed under the tracer is run once more, untraced, in a subprocess,
and its id printed with that outcome.  The tool exits 1 if a statement
never ran, if a test failed in both runs, or if pytest failed for any
other reason (a collection error, a usage error); else 0.  Code run in a
subprocess is not traced.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "twillsim"


def _children(node: ast.AST):
    """The statements directly inside compound statement `node`."""
    for field in ("body", "orelse", "finalbody"):
        yield from getattr(node, field, ())
    for handler in getattr(node, "handlers", ()):
        yield from handler.body
    for case in getattr(node, "cases", ()):
        yield from case.body


def _span(node: ast.stmt) -> set[int]:
    return set(range(node.lineno, node.end_lineno + 1))


def function_statements(path: Path) -> list[tuple[int, str, set[int]]]:
    """Each statement inside a function of the module at `path`, as (its
    first line, the function's qualified name, the lines that are its
    own and not a nested statement's), in source order.  A function's
    docstring is no statement."""
    found = []

    def visit(stmts, scope: str, in_function: bool):
        for node in stmts:
            is_def = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            if is_def or isinstance(node, ast.ClassDef):
                name = f"{scope}.{node.name}" if scope else node.name
                if in_function:
                    own = _span(node) - set().union(
                        *(_span(n) for n in node.body))
                    found.append((node.lineno, scope, own))
                body = node.body
                if is_def and isinstance(body[0], ast.Expr) and isinstance(
                        body[0].value, ast.Constant) and isinstance(
                        body[0].value.value, str):
                    body = body[1:]  # the docstring
                visit(body, name, in_function or is_def)
                continue
            if in_function:
                own = _span(node)
                for child in _children(node):
                    own -= _span(child)
                found.append((node.lineno, scope, own))
            visit(_children(node), scope, in_function)

    visit(ast.parse(path.read_text(), str(path)).body, "", False)
    return sorted(found, key=lambda s: s[0])


class _Failures:
    """A pytest plugin that collects the ids of the tests that failed, in
    any phase, and counts the collection errors."""

    def __init__(self):
        self.tests: list[str] = []
        self.collect_errors = 0

    def pytest_runtest_logreport(self, report):
        if report.failed and report.nodeid not in self.tests:
            self.tests.append(report.nodeid)

    def pytest_collectreport(self, report):
        if report.failed:
            self.collect_errors += 1


def traced_run(pytest_args: list[str]
               ) -> tuple[int, _Failures, dict[str, set[int]]]:
    """Run pytest in this process under a line tracer; its exit status,
    its failures and, for each module of the package, the lines that
    ran."""
    hits = {str(p): set() for p in PACKAGE.glob("*.py")}
    failures = _Failures()

    def trace_call(frame, event, arg):
        lines = hits.get(frame.f_code.co_filename)
        if lines is None:
            return None
        add = lines.add

        def trace_line(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return trace_line
        return trace_line

    threading.settrace(trace_call)
    sys.settrace(trace_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args],
                             plugins=[failures])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), failures, hits


def passes_untraced(test_id: str) -> bool:
    """Whether the test passes when run alone in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         test_id], cwd=ROOT, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    return done.returncode == 0


def main(argv: list[str]) -> int:
    os.chdir(ROOT)  # so that pytest reads its settings and test paths
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    # the suite's subprocesses import the same package, untraced
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))
    status, failures, hits = traced_run(argv)

    total = unrun = 0
    print()
    for path in sorted(PACKAGE.glob("*.py")):
        ran = hits[str(path)]
        lines = path.read_text().splitlines()
        for lineno, scope, own in function_statements(path):
            total += 1
            if own & ran:
                continue
            unrun += 1
            print(f"{path.name}:{lineno} {scope}: "
                  f"{lines[lineno - 1].strip()}")
    print(f"{unrun} of {total} statements inside src/twillsim's functions "
          f"never ran (pytest exit status {status})")

    failed = 0
    for test_id in failures.tests:
        passed = passes_untraced(test_id)
        failed += not passed
        print(f"re-ran untraced: {test_id}: {'passed' if passed else 'FAILED'}")
    if failures.tests:
        print(f"{failed} of {len(failures.tests)} tests that failed under "
              f"the tracer failed untraced too")
    # pytest exits 1 when tests failed: that is forgiven when each passed
    # untraced and nothing else failed (a collection error, a usage error)
    forgiven = (status == 1 and failures.tests and not failed
                and not failures.collect_errors)
    return 1 if unrun or (status and not forgiven) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
