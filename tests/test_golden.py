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
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import twillsim
from check_pins import pinned_runs, scenario_text
from twillsim import (POLICIES, build_simulation, load_mix, presets, simulate,
                      write_trace)

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = json.loads((ROOT / "bench" / "digests.json").read_text())
PINNED = DIGESTS["zoo"]["outputs"]
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
import runpy, sys
from twillsim import (POLICIES, build_simulation, load_mix, presets, simulate,
                      write_trace)
out, scenarios, *jobs = sys.argv[1:]
generators = runpy.run_path(scenarios)
for job in jobs:
    name, _, seed = job.partition(":")
    if seed:  # a bench scenario under twill, as the bench pins it
        scenario = load_mix(generators[name](int(seed)),
                            known_models=presets.available_models())
        write_trace(build_simulation(scenario, "twill").run(),
                    f"{out}/{name}/twill")
        continue
    for policy in sorted(POLICIES):
        simulate(name, policy, out_dir=f"{out}/{name}/{policy}")
"""


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_digests_do_not_depend_on_the_hash_seed(hash_seed, tmp_path):
    # str hashes, and so set and dict-of-str orders that follow them,
    # change with PYTHONHASHSEED; no trace byte may.  The engine iterates
    # sets of task keys, which the bench scenarios' long runs exercise.
    env = {k: v for k, v in os.environ.items() if k != presets.CONFIG_ENV_VAR}
    env.update(PYTHONHASHSEED=hash_seed,
               PYTHONPATH=str(Path(twillsim.__file__).resolve().parents[1]))
    mixes = ["mix3", "mix5"]
    workloads = ["steady", "burst"]
    jobs = mixes + [f"{w}:{DIGESTS[w]['seed']}" for w in workloads]
    subprocess.run([sys.executable, "-c", SEEDED_CHILD, str(tmp_path),
                    str(ROOT / "bench" / "scenarios.py"), *jobs],
                   env=env, check=True, timeout=120)
    expected = {(mix, policy): PINNED[f"{mix}/{policy}"]
                for mix, policy in itertools.product(mixes, sorted(POLICIES))}
    expected.update({(w, "twill"): DIGESTS[w]["outputs"][f"{w}/twill"]
                     for w in workloads})
    for (name, policy), pinned in expected.items():
        out = tmp_path / name / policy
        got = {file: hashlib.sha256((out / file).read_bytes()).hexdigest()
               for file in TRACE_FILES}
        assert got == {file: pinned[file] for file in TRACE_FILES}, (name,
                                                                    policy)


@pytest.mark.parametrize("workload", ["steady", "burst"])
def test_bench_scenarios_match_the_pinned_digests(workload, tmp_path):
    # 400 requests with a long view of DONE tasks, and 300 with a deep
    # freeze queue and dependency releases: paths no packaged mix reaches.
    # run_path reads the generator without writing bytecode into bench/.
    generate = runpy.run_path(str(ROOT / "bench" / "scenarios.py"))[workload]
    pinned = DIGESTS[workload]
    scenario = load_mix(generate(pinned["seed"]),
                        known_models=presets.available_models())
    write_trace(build_simulation(scenario, "twill").run(), tmp_path)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in TRACE_FILES}
    assert got == pinned["outputs"][f"{workload}/twill"]


CORPUS = json.loads((ROOT / "tests" / "corpus_digests.json").read_text())
CORPUS_SEEDS = range(6)


def test_every_corpus_run_is_pinned():
    baselines = sorted(set(POLICIES) - {"twill"})
    expected = [f"{w}-0/{p}" for w in ("steady", "burst") for p in baselines]
    expected += [f"corpus-{seed}/{p}"
                 for seed in CORPUS_SEEDS for p in sorted(POLICIES)]
    assert sorted(CORPUS) == sorted(expected)


def test_the_pin_check_lists_every_pinned_run():
    # listed, not run: check_pins.py is run by hand under each interpreter
    runs = pinned_runs()
    pinned = {**CORPUS, **{label: digests for w in DIGESTS.values()
                           for label, digests in w["outputs"].items()}}
    assert sorted(runs) == sorted(pinned)
    assert all(runs[label][2] == pinned[label] for label in pinned)
    assert len(runs) == 20 + 2 + len(CORPUS)
    assert runs["steady/twill"][:2] == (f"steady-{DIGESTS['steady']['seed']}",
                                        "twill")
    assert runs["mix1/gpu_queue"][:2] == ("mix1", "gpu_queue")


@pytest.mark.parametrize("run", sorted(CORPUS))
def test_corpus_runs_match_the_pinned_digests(run, tmp_path):
    # a baseline under real load, and dependency releases under every
    # policy: orders that the packaged mixes are too small to tell apart
    name, _, policy = run.partition("/")
    scenario = load_mix(scenario_text(name),
                        known_models=presets.available_models())
    write_trace(build_simulation(scenario, policy).run(), tmp_path)
    got = {file: hashlib.sha256((tmp_path / file).read_bytes()).hexdigest()
           for file in TRACE_FILES}
    assert got == CORPUS[run]
