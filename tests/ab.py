#!/usr/bin/env python3
"""Paired A/B benchmark: this checkout against a git revision.

    python3 tests/ab.py --base REV [--workload W] [--pairs N] \
        [--seconds S] [--seed S]

It extracts REV with `git archive` into a temporary directory and runs
each side's own `bench/run.py --workload W --seconds S --seed S`, N
pairs per workload (`all`, the default, is every workload of
BENCHMARK.json), alternating which side runs first.  Runs are serial,
so the two sides never compete for the CPU.

For each end-to-end metric of BENCHMARK.json and each workload it
prints both medians over the pairs, each side's q1-q3, the ratio of the
medians (this checkout over REV), the pairs this checkout wins (lower,
or higher where higher is better) and the metric's bound.  A ratio
worse than 1 by more than the bound is marked WORSE.  Every run's
result goes to .bench_out/ab-<commit>-<time>.json; a run that exits
non-zero ends the comparison there, after the runs so far are written.
It exits 1 if a run failed or a metric is WORSE, else 0.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"

# q1, median and q3 as bench/run.py reports them
sys.path.insert(0, str(ROOT / "bench"))
from run import quartiles  # noqa: E402


def summarise(runs: list[dict], specs: list[dict]) -> list[dict]:
    """One row per metric of `specs` from paired results: `runs` holds
    {"head": result, "base": result} per pair, a result as the last line
    of bench/run.py prints it."""
    rows = []
    for spec in specs:
        name, lower = spec["name"], spec["better"] == "lower"
        head = [r["head"]["metrics"][name]["value"] for r in runs]
        base = [r["base"]["metrics"][name]["value"] for r in runs]
        hq, bq = quartiles(head), quartiles(base)
        ratio = hq[1] / bq[1] if bq[1] else float("inf")
        wins = sum((h < b) if lower else (h > b) for h, b in zip(head, base))
        worse = ratio - 1 if lower else 1 - ratio
        rows.append({"metric": name, "unit": spec["unit"], "head": hq,
                     "base": bq, "ratio": ratio, "wins": wins,
                     "pairs": len(runs), "bound": spec["bound"],
                     "worse": worse > spec["bound"]})
    return rows


def extract(rev: str, into: Path) -> str:
    """Write the tree of `rev` under `into`; return its commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            cwd=ROOT, check=True, capture_output=True,
                            text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit],
                             cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return commit


def bench(root: Path, workload: str, args) -> dict:
    """The result line of one run of `root`'s bench/run.py, or, if the
    run exits non-zero, {"error": its exit status and stderr}."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seconds", str(args.seconds), "--seed", str(args.seed)],
        cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"error": f"bench/run.py exited {proc.returncode}:\n"
                         f"{proc.stderr}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def save(args, commit: str, runs: dict) -> Path:
    """Write every run so far to .bench_out/; return the file's path."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"ab-{commit[:12]}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps({"base": args.base, "commit": commit,
                                "args": vars(args), "runs": runs},
                               indent=1, sort_keys=True))
    return path


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="git revision")
    parser.add_argument("--workload", default="all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"--workload must be all or one of {names}")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    workloads = names if args.workload == "all" else [args.workload]

    tmp = Path(tempfile.mkdtemp(prefix="twillsim-ab-"))
    try:
        commit = extract(args.base, tmp)
        sides = {"head": ROOT, "base": tmp}
        runs: dict[str, list[dict]] = {w: [] for w in workloads}
        for i in range(args.pairs):
            order = ("head", "base") if i % 2 == 0 else ("base", "head")
            for w in workloads:
                pair = {side: bench(sides[side], w, args) for side in order}
                pair["first"] = order[0]
                runs[w].append(pair)
                for side in order:
                    if "error" in pair[side]:
                        path = save(args, commit, runs)
                        print(f"error: a {side} run of {w} failed; raw runs: "
                              f"{path}\n{pair[side]['error']}", file=sys.stderr)
                        return 1
                print(f"pair {i + 1}/{args.pairs} {w} done", file=sys.stderr)
    finally:
        shutil.rmtree(tmp)

    failed = False
    print(f"this checkout vs {args.base} ({commit[:12]}), {args.pairs} "
          f"pairs of --seconds {args.seconds:g} --seed {args.seed}")
    print(f"{'workload':<8} {'metric':<12} {'head median':>12} "
          f"{'head q1-q3':>19} {'base median':>12} {'base q1-q3':>19} "
          f"{'ratio':>7} {'wins':>6} {'bound':>6}")
    for w in workloads:
        for pair in runs[w]:
            for side in ("head", "base"):
                if not pair[side]["correct"] or pair[side]["failed"]:
                    failed = True
                    print(f"  {w}: a {side} run failed "
                          f"{pair[side]['failed']} simulations")
        for row in summarise(runs[w], declared["end_to_end"]):
            failed |= row["worse"]
            hq, bq = row["head"], row["base"]
            print(f"{w:<8} {row['metric']:<12} {_fmt(hq[1]):>12} "
                  f"{_fmt(hq[0]) + '-' + _fmt(hq[2]):>19} {_fmt(bq[1]):>12} "
                  f"{_fmt(bq[0]) + '-' + _fmt(bq[2]):>19} "
                  f"{row['ratio']:>7.4f} {row['wins']:>3}/{row['pairs']:<2} "
                  f"{row['bound']:>6g}{'  WORSE' if row['worse'] else ''}")
    path = save(args, commit, runs)
    print(f"raw runs: {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
