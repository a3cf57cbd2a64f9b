"""Each demo script runs to completion in a fresh interpreter, and the
policy face-off prints what a build per run gives."""

import os
import pathlib
import subprocess
import sys

import pytest

from twillsim import POLICIES, presets, simulate

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(demo) -> str:
    env = dict(os.environ, PYTHONPATH="src")
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    run_demo(demo)


def test_the_faceoff_prints_what_a_build_per_run_gives():
    # the demo runs each mix's policies from one build; each row must
    # read as a run that simulate() built on its own
    rows = {}
    for line in run_demo(ROOT / "demos" / "04_policy_faceoff.py").splitlines():
        if line.startswith("--- "):
            mix = line.strip("- ")
        elif line.split(" ", 1)[0] in POLICIES:
            policy, *cells = line.split()
            rows[mix, policy] = cells
    assert len(rows) == len(presets.available_mixes()) * len(POLICIES)
    for (mix, policy), cells in rows.items():
        trace = simulate(mix, policy)
        waiting = sum(r.waiting_ms for r in trace.requests)
        assert cells == [f"{trace.makespan_ms:.1f}", f"{waiting:.1f}",
                         f"{trace.violation_fraction:.1%}",
                         f"{trace.energy_mj:.1f}"], (mix, policy)
