"""Each fenced `python` block of README.md runs in a fresh interpreter,
and the quick start prints what its comment says."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                    (ROOT / "README.md").read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def run_block(code, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_readme_has_the_three_examples():
    assert len(BLOCKS) == 3
    assert "twillsim.simulate(" in BLOCKS[0]
    assert "Simulation(" in BLOCKS[1]
    assert "class Policy" in BLOCKS[2]


# the quick start, BLOCKS[0], runs in the test below
@pytest.mark.parametrize("index", range(1, len(BLOCKS)))
def test_readme_block_runs(index, tmp_path):
    run_block(BLOCKS[index], tmp_path)


def test_quick_start_prints_the_makespan_its_comment_gives(tmp_path):
    quick = BLOCKS[0]
    assert re.search(r"makespan_ms\"\]\) +# 1344\.372843$", quick,
                     re.MULTILINE)
    assert run_block(quick, tmp_path).splitlines()[0] == "1344.372843"
