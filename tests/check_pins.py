"""Re-run every pinned run and compare its trace files with the pins.

The pins are bench/digests.json (the 20 packaged runs, and the steady
and burst scenarios under twill) and tests/corpus_digests.json.  This
script uses the standard library only and needs no pytest, so that any
interpreter the package supports can run it from a source checkout:

    python3 tests/check_pins.py

It prints one line per run whose trace files differ from their pins,
naming the run and the files, followed by the run's current digests as
an entry of tests/corpus_digests.json, to copy in when a change of
behaviour is meant; and one line per run that raises, naming the run
and the exception.  Every run is checked either way.  It exits 1 if any
run differs or raises, else 0.

A packaged mix runs through `simulate`, as users run it.  A generated
scenario is prepared once, and each of its pinned policies runs from
that one build, as `twillsim compare` runs each mix: so the pins also
show that runs sharing a build write the same bytes as runs that each
build their own.
"""

from __future__ import annotations

import functools
import hashlib
import json
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACE_FILES = ("decisions.csv", "requests.csv", "power.csv", "summary.json")


def pinned_runs() -> dict[str, tuple[str, str, dict[str, str]]]:
    """Each pinned run by label: its scenario (a packaged mix, or a
    generated scenario as "<generator>-<seed>"), its policy, and the
    sha256 of each of its trace files."""
    runs = {}
    bench = json.loads((ROOT / "bench" / "digests.json").read_text())
    for workload, pinned in bench.items():
        for label, digests in pinned["outputs"].items():
            name, _, policy = label.partition("/")
            if workload != "zoo":  # "steady/twill" runs at the pinned seed
                name = f"{workload}-{pinned['seed']}"
            runs[label] = (name, policy, digests)
    corpus = json.loads((ROOT / "tests" / "corpus_digests.json").read_text())
    for label, digests in corpus.items():
        name, _, policy = label.partition("/")
        runs[label] = (name, policy, digests)
    return runs


@functools.cache
def scenario_text(name: str) -> str:
    """The scenario JSON of a generated run, "<generator>-<seed>", from
    the benchmark's generator, so that no change to the package can
    move the reference; "corpus-<seed>" is 300 requests in 500 ms, 15%
    of them dependent."""
    generators = runpy.run_path(str(ROOT / "bench" / "scenarios.py"))
    workload, _, seed = name.rpartition("-")
    if workload == "corpus":
        return generators["generate"]("corpus", int(seed), 300, 500.0, 0.15)
    return generators[workload](int(seed))


@functools.cache
def prepared(name: str):
    """Generated scenario `name`, prepared once for all its runs."""
    from twillsim import load_mix, prepare_mix, presets
    return prepare_mix(load_mix(scenario_text(name),
                                known_models=presets.available_models()))


def trace_digests(name: str, policy: str) -> dict[str, str]:
    """Run scenario `name` under `policy`; the sha256 of each trace file
    it writes."""
    from twillsim import Simulation, make_policy, presets, simulate, write_trace
    with tempfile.TemporaryDirectory() as out:
        if name in presets.available_mixes():
            simulate(name, policy, out_dir=out)
        else:
            write_trace(Simulation(prepared(name), make_policy(policy)).run(),
                        out)
        return {file: hashlib.sha256((Path(out) / file).read_bytes())
                .hexdigest() for file in TRACE_FILES}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    runs = pinned_runs()
    failed = 0
    for label, (name, policy, pinned) in runs.items():
        try:
            got = trace_digests(name, policy)
        except Exception as e:
            failed += 1
            print(f"ERROR {label}: {type(e).__name__}: {e}")
            continue
        wrong = [file for file in TRACE_FILES if got[file] != pinned[file]]
        if wrong:
            failed += 1
            print(f"MISMATCH {label}: {', '.join(wrong)}")
            # the entry's lines, without the braces around them
            print(json.dumps({label: got}, indent=1, sort_keys=True)[2:-2])
    print(f"{len(runs) - failed} of {len(runs)} pinned runs match "
          f"(Python {sys.version.split()[0]})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
