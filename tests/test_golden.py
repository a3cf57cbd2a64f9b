"""The fixed reference for "same behaviour": the trace files of the 20
packaged runs (five mixes under four policies), and of the benchmark's
steady and burst scenarios under twill, hash to the digests the
benchmark pins in bench/digests.json.  A wider corpus, pinned in
tests/corpus_digests.json, puts every policy under load: steady and
burst under the three baselines, and six 300-request scenarios with
dependencies under all four policies.  check_pins.py re-runs them all
with any interpreter, without pytest."""

import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import check_pins
import twillsim
from check_pins import TRACE_FILES, pinned_runs, trace_digests
from twillsim import POLICIES, EngineError, presets, simulate, write_trace

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = json.loads((ROOT / "bench" / "digests.json").read_text())
PINNED = DIGESTS["zoo"]["outputs"]
CORPUS = json.loads((ROOT / "tests" / "corpus_digests.json").read_text())
CORPUS_SEEDS = range(6)
MIXES = ["mix1", "mix2", "mix3", "mix4", "mix5"]
RUNS = pinned_runs()


def test_every_packaged_run_is_pinned():
    assert sorted(PINNED) == sorted(f"{m}/{p}" for m in MIXES for p in POLICIES)


def test_every_corpus_run_is_pinned():
    baselines = sorted(set(POLICIES) - {"twill"})
    expected = [f"{w}-0/{p}" for w in ("steady", "burst") for p in baselines]
    expected += [f"corpus-{seed}/{p}"
                 for seed in CORPUS_SEEDS for p in sorted(POLICIES)]
    assert sorted(CORPUS) == sorted(expected)


def test_the_pin_check_lists_every_pinned_run():
    pinned = {**CORPUS, **{label: digests for w in DIGESTS.values()
                           for label, digests in w["outputs"].items()}}
    assert sorted(RUNS) == sorted(pinned)
    assert all(RUNS[label][2] == pinned[label] for label in pinned)
    assert len(RUNS) == 20 + 2 + len(CORPUS)
    assert RUNS["steady/twill"][:2] == (f"steady-{DIGESTS['steady']['seed']}",
                                        "twill")
    assert RUNS["mix1/gpu_queue"][:2] == ("mix1", "gpu_queue")


def test_a_run_that_raises_is_reported_and_the_rest_are_checked(
        monkeypatch, capsys):
    # the first run that raised once ended the check in a traceback that
    # named no run, and no later run was checked
    digests = dict.fromkeys(TRACE_FILES, "0" * 64)
    runs = {"a/twill": ("a", "twill", digests),
            "b/twill": ("b", "twill", digests),
            "c/twill": ("c", "twill", {**digests, "power.csv": "1" * 64})}
    checked = []

    def digests_of(name, policy):
        checked.append(name)
        if name == "a":
            raise EngineError("event queue drained with unfinished requests")
        return digests

    monkeypatch.setattr(sys, "path", list(sys.path))  # main prepends src/
    monkeypatch.setattr(check_pins, "pinned_runs", lambda: runs)
    monkeypatch.setattr(check_pins, "trace_digests", digests_of)
    assert check_pins.main() == 1
    assert checked == ["a", "b", "c"]
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == [
        "ERROR a/twill: EngineError: event queue drained with unfinished "
        "requests", "MISMATCH c/twill: power.csv"]
    # the mismatch's current digests, then the count
    assert json.loads("{" + "".join(out[2:-1]) + "}") == {"c/twill": digests}
    assert out[-1].startswith("1 of 3 pinned runs match (Python ")
    assert len(out) == 3 + 2 + len(TRACE_FILES)


def test_a_mismatched_run_prints_the_entry_to_copy_in(monkeypatch, capsys):
    # a deliberate re-pin copies the digests the check printed, in the
    # layout of tests/corpus_digests.json, instead of recomputing them
    label = "corpus-0/twill"
    runs = {label: ("corpus-0", "twill", dict.fromkeys(TRACE_FILES, "0" * 64))}
    monkeypatch.setattr(sys, "path", list(sys.path))  # main prepends src/
    monkeypatch.setattr(check_pins, "pinned_runs", lambda: runs)
    monkeypatch.setattr(check_pins, "trace_digests",
                        lambda name, policy: CORPUS[label])
    assert check_pins.main() == 1
    mismatch, *entry, count = capsys.readouterr().out.splitlines()
    assert mismatch == f"MISMATCH {label}: {', '.join(TRACE_FILES)}"
    assert entry[0] == f' "{label}": {{'
    assert ("\n".join(entry) + ",\n"
            in (ROOT / "tests" / "corpus_digests.json").read_text())
    assert count.startswith("0 of 1 pinned runs match (Python ")


# Every pinned run is run and hashed by check_pins.trace_digests, the
# path check_pins.py takes under any interpreter; the three tests below
# split the pins by where they come from.

def check_pinned_run(label):
    name, policy, pinned = RUNS[label]
    assert trace_digests(name, policy) == pinned


@pytest.mark.parametrize("mix,policy", itertools.product(MIXES, sorted(POLICIES)))
def test_trace_files_match_the_pinned_digests(mix, policy):
    check_pinned_run(f"{mix}/{policy}")


@pytest.mark.parametrize("workload", ["steady", "burst"])
def test_bench_scenarios_match_the_pinned_digests(workload):
    # 400 requests with a long view of DONE tasks, and 300 with a deep
    # freeze queue and dependency releases: paths no packaged mix reaches
    check_pinned_run(f"{workload}/twill")


@pytest.mark.parametrize("run", sorted(CORPUS))
def test_corpus_runs_match_the_pinned_digests(run):
    # a baseline under real load, and dependency releases under every
    # policy: orders that the packaged mixes are too small to tell apart
    check_pinned_run(run)


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
    assert got == PINNED[f"{mix}/{policy}"]


SEEDED_CHILD = """\
import json, sys
from check_pins import pinned_runs, trace_digests
runs = pinned_runs()
print(json.dumps({label: trace_digests(*runs[label][:2])
                  for label in sys.argv[1:]}))
"""


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_digests_do_not_depend_on_the_hash_seed(hash_seed):
    # str hashes, and so set and dict-of-str orders that follow them,
    # change with PYTHONHASHSEED; no trace byte may.  The engine iterates
    # sets of task keys, which the bench scenarios' long runs exercise.
    env = {k: v for k, v in os.environ.items() if k != presets.CONFIG_ENV_VAR}
    env.update(PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(
        [str(Path(twillsim.__file__).resolve().parents[1]),
         str(ROOT / "tests")]))
    labels = [f"{mix}/{policy}"
              for mix in ("mix3", "mix5") for policy in sorted(POLICIES)]
    labels += ["steady/twill", "burst/twill"]
    child = subprocess.run([sys.executable, "-c", SEEDED_CHILD, *labels],
                           env=env, check=True, timeout=120,
                           capture_output=True, text=True)
    assert json.loads(child.stdout) == {label: RUNS[label][2]
                                        for label in labels}
