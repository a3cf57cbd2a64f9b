"""The fixed reference for "same behaviour": the trace files of the 20
packaged runs (five mixes under four policies) hash to the digests the
benchmark pins in bench/digests.json."""

import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twillsim
from twillsim import POLICIES, presets, simulate, write_trace

ROOT = Path(__file__).resolve().parents[1]
PINNED = json.loads((ROOT / "bench" / "digests.json").read_text())["zoo"]["outputs"]
MIXES = ["mix1", "mix2", "mix3", "mix4", "mix5"]
TRACE_FILES = ["decisions.csv", "requests.csv", "power.csv", "summary.json"]


def test_every_packaged_run_is_pinned():
    assert sorted(PINNED) == sorted(f"{m}/{p}" for m in MIXES for p in POLICIES)


@pytest.mark.parametrize("mix,policy", itertools.product(MIXES, sorted(POLICIES)))
def test_trace_files_match_the_pinned_digests(mix, policy, tmp_path):
    simulate(mix, policy, out_dir=tmp_path)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in TRACE_FILES}
    assert got == {name: PINNED[f"{mix}/{policy}"][name] for name in TRACE_FILES}


@pytest.mark.parametrize("mix,policy", itertools.product(MIXES, sorted(POLICIES)))
def test_rewriting_over_longer_files_matches_the_pinned_digests(mix, policy,
                                                                 tmp_path):
    trace = simulate(mix, policy, out_dir=tmp_path)
    for name in TRACE_FILES:
        path = tmp_path / name
        path.write_bytes(path.read_bytes() * 2)
    write_trace(trace, tmp_path)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in TRACE_FILES}
    assert got == {name: PINNED[f"{mix}/{policy}"][name] for name in TRACE_FILES}


SEEDED_CHILD = """\
import sys
from twillsim import POLICIES, simulate
for mix in sys.argv[2:]:
    for policy in sorted(POLICIES):
        simulate(mix, policy, out_dir=f"{sys.argv[1]}/{mix}/{policy}")
"""


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_digests_do_not_depend_on_the_hash_seed(hash_seed, tmp_path):
    # str hashes, and so set and dict-of-str orders that follow them,
    # change with PYTHONHASHSEED; no trace byte may
    env = {k: v for k, v in os.environ.items() if k != presets.CONFIG_ENV_VAR}
    env.update(PYTHONHASHSEED=hash_seed,
               PYTHONPATH=str(Path(twillsim.__file__).resolve().parents[1]))
    mixes = ["mix3", "mix5"]
    subprocess.run([sys.executable, "-c", SEEDED_CHILD, str(tmp_path), *mixes],
                   env=env, check=True, timeout=120)
    for mix, policy in itertools.product(mixes, sorted(POLICIES)):
        out = tmp_path / mix / policy
        got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in TRACE_FILES}
        assert got == {name: PINNED[f"{mix}/{policy}"][name]
                       for name in TRACE_FILES}, (mix, policy)
