#!/usr/bin/env python3
"""Host-time benchmark for twillsim: stdlib only, one process, no threads.

    python3 bench/run.py --workload {zoo,steady,burst,all} --seed N \
        --seconds S --trace {0,1}

It imports twillsim from the checkout's src/ and times calls into its
public functions from outside.  Each workload is a batch pass (build,
run and serialise every simulation in it), repeated for --seconds; every
simulation's trace files are checked (see `check`).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics of a traced run with --trace 1 (names and units
from BENCHMARK.json; what each should move is in bench/README.md).  The
lines before it give every metric with its sample count and the run's
conditions.  A copy of the result, and a traced run's spans, are
written to .bench_out/.

--pin re-records bench/digests.json from the current program; do that
only in a change that alters simulated behaviour on purpose.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import calibration
import scenarios
import spans

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = Path(__file__).with_name("digests.json")
BENCHMARK = ROOT / "BENCHMARK.json"

WORKLOADS = ("zoo", "steady", "burst")
TRACE_FILES = ("decisions.csv", "requests.csv", "power.csv", "summary.json")
PINNED_SEED = 0
CONSERVATION_TOL = 1e-6
# fresh interpreters per setup_s figure; the first, which may compile
# bytecode, is dropped
SETUP_SAMPLES = 16
CHILD_TIMEOUT_S = 150

SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import twillsim
twillsim.load_platform(twillsim.presets.platform_text())
twillsim.load_matrix(twillsim.presets.matrix_text())
print(time.perf_counter() - t0)
"""


@dataclass(frozen=True)
class Job:
    """One simulation: a packaged mix run through twillsim.simulate, or a
    generated scenario run through build_simulation."""

    label: str
    policy: str
    requests: int
    mix: str | None = None
    text: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    primary: tuple[Job, ...]
    # the pass growth_x compares with: 1/4 the requests over 1/4 the
    # horizon for steady and burst, each mix tiled 4x for zoo
    reference: tuple[Job, ...]
    inputs: dict[str, str]  # input label -> sha256 of its JSON text

    @property
    def larger(self) -> tuple[Job, ...]:
        return max(self.primary, self.reference, key=_requests)

    @property
    def smaller(self) -> tuple[Job, ...]:
        return min(self.primary, self.reference, key=_requests)


def _requests(jobs) -> int:
    return sum(j.requests for j in jobs)


def _count(text: str) -> int:
    return len(json.loads(text)["requests"])


def make_workload(name: str, seed: int, scale: float, presets) -> Workload:
    if name == "zoo":
        texts = {m: presets.mix_text(m) for m in scenarios.MIXES}
        tiles = {m: scenarios.tiled(t) for m, t in texts.items()}
        primary = tuple(Job(f"{m}/{p}", p, _count(texts[m]), mix=m)
                        for m in scenarios.MIXES for p in scenarios.POLICIES)
        reference = tuple(Job(f"{m}x4/{p}", p, _count(tiles[m]), text=tiles[m])
                          for m in scenarios.MIXES for p in scenarios.POLICIES)
        inputs = {**{m: scenarios.sha256(t) for m, t in texts.items()},
                  **{f"{m}x4": scenarios.sha256(t) for m, t in tiles.items()}}
        return Workload(name, primary, reference, inputs)
    generate = getattr(scenarios, name)
    full, quarter = generate(seed, scale), generate(seed, scale / 4)
    return Workload(
        name,
        (Job(f"{name}/twill", "twill", _count(full), text=full),),
        (Job(f"{name}-quarter/twill", "twill", _count(quarter), text=quarter),),
        {name: scenarios.sha256(full),
         f"{name}-quarter": scenarios.sha256(quarter)},
    )


def pinned_digests(workload: Workload, seed: int, scale: float) -> dict:
    """label -> pinned file digests that apply to this run ({} if none)."""
    if not DIGESTS.is_file():
        return {}
    doc = json.loads(DIGESTS.read_text()).get(workload.name, {})
    if workload.name != "zoo" and (seed != doc.get("seed") or scale != 1):
        return {}
    return doc.get("outputs", {})


# ---------------------------------------------------------------------------
# passes


def run_job(twillsim, job: Job, out_dir: Path, tracer=None):
    """Build, run and serialise one simulation; (trace, sim, seconds).

    sim is None for packaged mixes, which go through twillsim.simulate
    as users run them.
    """
    root = tracer.begin_sim() if tracer is not None else -1
    t0 = time.perf_counter()
    try:
        policy = (job.policy if tracer is None
                  else spans.TracedPolicy(tracer,
                                          twillsim.make_policy(job.policy)))
        if job.mix is not None:
            sim = None
            trace = twillsim.simulate(job.mix, policy, out_dir=out_dir)
        else:
            scenario = twillsim.load_mix(
                job.text, known_models=twillsim.presets.available_models())
            sim = twillsim.build_simulation(scenario, policy)
            trace = sim.run()
            twillsim.write_trace(trace, out_dir)
    finally:
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(root)
    return trace, sim, seconds


def file_digests(out_dir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in TRACE_FILES}


def check(job: Job, trace, sim, digests: dict, expected: dict | None):
    """Why this simulation's output is wrong, or None.

    Every request must complete; a generated scenario must conserve
    work; and the four trace files must match the pinned digests where
    there are some, else the first run of the same simulation.
    """
    done = [r for r in trace.requests if r.completed_ms is not None]
    if len(done) != job.requests:
        return f"{len(done)} of {job.requests} requests completed"
    if sim is not None and sim.conservation_error() > CONSERVATION_TOL:
        return f"conservation error {sim.conservation_error():.3g}"
    if expected is not None and digests != expected:
        differ = sorted(n for n in TRACE_FILES if digests[n] != expected.get(n))
        return f"trace files differ from the reference: {differ}"
    return None


class Runner:
    """Runs passes, checks every simulation, counts failures."""

    def __init__(self, twillsim, workload: Workload, pinned: dict):
        self.twillsim = twillsim
        self.out = OUT / "work" / f"{workload.name}-{os.getpid()}"
        self.expected = dict(pinned)
        self.first: dict[str, object] = {}  # label -> first Trace
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run_pass(self, jobs, tracer=None) -> float:
        """Seconds spent building, running and serialising `jobs`."""
        gc.collect()
        total = 0.0
        for job in jobs:
            out_dir = self.out / job.label.replace("/", "_")
            self.attempted += 1
            try:
                trace, sim, seconds = run_job(self.twillsim, job, out_dir,
                                              tracer)
            except Exception as e:  # a failing simulation is a result
                self._fail(job, f"{type(e).__name__}: {e}")
                continue
            total += seconds
            digests = file_digests(out_dir)
            error = check(job, trace, sim, digests,
                          self.expected.get(job.label))
            if error is not None:
                self._fail(job, error)
                continue
            self.expected.setdefault(job.label, digests)
            self.first.setdefault(job.label, trace)
        return total

    def _fail(self, job: Job, error: str):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{job.label}: {error}")

    def close(self):
        shutil.rmtree(self.out, ignore_errors=True)


# ---------------------------------------------------------------------------
# modelled-board outputs (simulated time, exact)


def output_metrics(traces) -> dict[str, float]:
    """Simulated outputs of the twill runs; a perf-only change keeps them."""
    traces = [t for t in traces if t.policy == "twill"]
    makespan = sum(t.makespan_ms for t in traces)
    waits = [r.waiting_ms for t in traces for r in t.requests]
    prio3 = [r.waiting_ms for t in traces for r in t.requests
             if r.priority == 3]
    return {
        "sim_makespan_ms": makespan,
        "sim_wait_mean_ms": statistics.fmean(waits) if waits else 0.0,
        "sim_wait_prio3_ms": statistics.fmean(prio3) if prio3 else 0.0,
        "sim_over_budget_frac": (sum(t.time_over_budget_ms() for t in traces)
                                 / makespan if makespan else 0.0),
        "sim_energy_mj": sum(t.energy_mj for t in traces),
    }


def board_metrics(runs, kinds: dict[str, str]) -> dict[str, float]:
    """Decision counts, wasted work and cluster use of the twill runs.

    runs holds (trace, sim) pairs; kinds maps cluster id to GPU/DLA.
    Busy fractions and mean GPU clock are weighted by time over each
    run's makespan, from power.csv's records.
    """
    runs = [(t, s) for t, s in runs if t.policy == "twill"]
    m: dict[str, float] = {}
    decisions = Counter(d.kind for t, _ in runs for d in t.decisions)
    for kind in ("MAP", "MIGRATE", "FREEZE", "UNFREEZE", "SET_FREQ"):
        m[f"sim.decisions.{kind}"] = decisions[kind]
    rolled = sum(s.rolled_back_gflops() for _, s in runs if s is not None)
    work = sum(r.work_gflops for t, _ in runs for r in t.requests)
    m["sim.rolled_back_gflops"] = rolled
    m["sim.useful_work_ratio"] = work / (work + rolled) if work else 0.0
    busy: Counter = Counter()
    span: Counter = Counter()
    gpu_mhz_ms = 0.0
    for trace, _ in runs:
        end = trace.makespan_ms
        records = trace.power
        for rec, nxt in zip(records, records[1:] + [None]):
            dt = min(end, nxt.time_ms if nxt is not None else end) - rec.time_ms
            if dt <= 0:
                continue
            for cid, mhz, util in zip(trace.cluster_ids, rec.freqs_mhz,
                                      rec.utils):
                busy[kinds[cid]] += util * dt
                span[kinds[cid]] += dt
                if kinds[cid] == "GPU":
                    gpu_mhz_ms += mhz * dt
    m["sim.gpu_busy_frac"] = busy["GPU"] / span["GPU"] if span["GPU"] else 0.0
    m["sim.dla_busy_frac"] = busy["DLA"] / span["DLA"] if span["DLA"] else 0.0
    m["sim.gpu_mean_freq_mhz"] = gpu_mhz_ms / span["GPU"] if span["GPU"] else 0.0
    return m


def captured_runs(tracer) -> list[tuple]:
    """(trace, sim) pairs the engine.build / engine.run hooks saw."""
    sims, traces = {}, {}
    for sid, (_, sim_id, name, _, _) in enumerate(tracer.spans):
        if sid in tracer.facts and name == "engine.build":
            sims[sim_id] = tracer.facts[sid]
        elif sid in tracer.facts and name == "engine.run":
            traces[sim_id] = tracer.facts[sid]
    return [(traces[k], sims.get(k)) for k in sorted(traces)]


# ---------------------------------------------------------------------------
# measurements


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def setup_seconds(clock: calibration.Clock) -> tuple[list, list]:
    """Import twillsim and load the packaged platform and matrix, each
    time in a fresh interpreter; (raw, scaled) seconds."""
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CHILD, str(SRC)],
            capture_output=True, text=True, check=True,
            timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        raw.append(float(done.stdout.strip().splitlines()[-1]))
        scaled.append(clock.scale(raw[-1]))
    return raw[1:], scaled[1:]


def rss_child(name: str, args) -> dict:
    """Run one primary pass in a child process; its peak RSS and counts."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--rss-child",
         "--workload", name, "--seed", str(args.seed),
         "--scale", repr(args.scale)],
        capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S,
        cwd=ROOT)
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure_untraced(twillsim, wl: Workload, runner: Runner, args):
    """End-to-end figures and the samples behind them.

    Times are scaled by the calibration kernel run around each sample
    (see calibration.py); the raw seconds are kept in the samples.
    """
    setup_raw, setup = setup_seconds(calibration.Clock())
    runner.run_pass(wl.smaller)  # warm-up, checked but not timed
    raw = {"primary": [], "reference": []}
    scaled = {"primary": [], "reference": []}
    clock = calibration.Clock()
    deadline = time.perf_counter() + args.seconds
    # four fifths of the time go to the primary pass, whose median is
    # wall_s; both medians make growth_x
    while not (scaled["primary"] and scaled["reference"]
               and time.perf_counter() >= deadline):
        which = ("primary" if sum(raw["primary"]) <= 4 * sum(raw["reference"])
                 else "reference")
        raw[which].append(runner.run_pass(getattr(wl, which)))
        scaled[which].append(clock.scale(raw[which][-1]))
    child = rss_child(wl.name, args)
    runner.attempted += child["attempted"]
    runner.failed += child["failed"]
    runner.errors += child["errors"]
    per_request = {k: statistics.median(v) / _requests(getattr(wl, k))
                   for k, v in scaled.items()}
    larger, smaller = (("primary", "reference") if wl.larger is wl.primary
                       else ("reference", "primary"))
    metrics = {
        "wall_s": statistics.median(scaled["primary"]),
        # 0 only when every simulation of a pass failed
        "growth_x": (per_request[larger] / per_request[smaller]
                     if per_request[smaller] else 0.0),
        "peak_rss_mb": child["peak_rss_mb"],
        "setup_s": statistics.median(setup),
    }
    samples = {"wall_s": scaled["primary"], "wall_raw_s": raw["primary"],
               "growth_reference_s": scaled["reference"],
               "growth_reference_raw_s": raw["reference"],
               "setup_s": setup, "setup_raw_s": setup_raw,
               "kernel_s": clock.kernel}
    return metrics, samples


def measure_traced(twillsim, wl: Workload, runner: Runner, args):
    """Per-layer figures from traced passes alternated with untraced ones."""
    tracer = spans.Tracer()
    kinds = {c.cluster_id: c.kind.name for c in
             twillsim.load_platform(twillsim.presets.platform_text()).clusters}
    runner.run_pass(wl.smaller)  # warm-up, checked but not timed
    untraced, traced, recorded = [], [], []
    board = None
    deadline = time.perf_counter() + args.seconds
    while True:
        untraced.append(runner.run_pass(wl.primary) * 1e3)
        tracer.reset()
        tracer.install()
        try:
            runner.run_pass(wl.primary, tracer)
        finally:
            tracer.uninstall()
        traced.append(spans.layer_metrics(tracer))
        if board is None:
            board = board_metrics(captured_runs(tracer), kinds)
        recorded.append(tracer.spans)
        tracer.reset()
        if time.perf_counter() >= deadline:
            break
    walls = [m["trace.wall_ms"] for m in traced]
    # every figure comes from the one pass with the median wall time, so
    # the self times still add up to its wall
    metrics = dict(sorted(traced, key=lambda m: m["trace.wall_ms"])
                   [(len(traced) - 1) // 2])
    metrics.update(board)
    metrics["trace.untraced_wall_ms"] = statistics.median(untraced)
    # each traced pass runs right after an untraced one; the difference
    # within a pair is steadier than a difference of medians
    metrics["trace.overhead_ms"] = statistics.median(
        t - u for t, u in zip(walls, untraced))
    metrics["trace.passes"] = len(traced)
    OUT.mkdir(exist_ok=True)
    spans.write_spans(OUT / f"{wl.name}-seed{args.seed}.spans.csv", recorded)
    samples = {"trace.wall_ms": walls, "trace.untraced_wall_ms": untraced,
               "absent": tracer.absent}
    return metrics, samples


# ---------------------------------------------------------------------------
# reporting


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def conditions() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(ROOT),
    }


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads(BENCHMARK.read_text())
    return spec["per_layer" if trace else "end_to_end"]


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def describe(name: str, samples: dict, wl: Workload) -> str:
    """How a metric was sampled, for the human-readable lines."""
    if name in ("wall_s", "setup_s"):
        values = samples[name]
        q1, _, q3 = quartiles(values)
        raw = statistics.median(samples[name.replace("_s", "_raw_s")])
        what = "passes" if name == "wall_s" else "fresh interpreters"
        return (f"median of {len(values)} {what}, q1 {_fmt(q1)} q3 {_fmt(q3)};"
                f" unscaled median {_fmt(raw)}")
    if name == "growth_x":
        return (f"us/request, {_requests(wl.larger)} vs {_requests(wl.smaller)}"
                f" requests, medians of {len(samples['wall_s'])} and "
                f"{len(samples['growth_reference_s'])} passes")
    if name == "peak_rss_mb":
        return "1 child process, one pass"
    return ""


def run_workload(twillsim, name: str, args) -> dict:
    load_start = os.getloadavg()
    wl = make_workload(name, args.seed, args.scale, twillsim.presets)
    runner = Runner(twillsim, wl, pinned_digests(wl, args.seed, args.scale))
    try:
        measure = measure_traced if args.trace else measure_untraced
        computed, samples = measure(twillsim, wl, runner, args)
        outputs = output_metrics(runner.first[j.label] for j in wl.primary
                                 if j.label in runner.first)
    finally:
        runner.close()
    if args.trace:
        computed.update(outputs)
    metrics = {}
    print(f"workload {name}  seed {args.seed}  scale {args.scale:g}  "
          f"trace {args.trace}  seconds {args.seconds:g}")
    if args.trace:
        print(f"  figures of the traced pass with the median wall among "
              f"{computed['trace.passes']}; sim* are exact, twill runs only")
    for spec in declared_metrics(bool(args.trace)):
        value = computed[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"  {spec['name']:<28} {_fmt(value):>14} {spec['unit']:<6} "
              f"{describe(spec['name'], samples, wl)}")
    failed_frac = runner.failed / runner.attempted
    print(f"  {'failed_frac':<28} {_fmt(failed_frac):>14} {'ratio':<6} "
          f"{runner.failed} of {runner.attempted} simulations")
    if not args.trace:
        for key, value in outputs.items():
            print(f"  {key:<28} {_fmt(value):>14} {'':<6} "
                  "simulated, exact, twill runs")
    elif samples["absent"]:
        print(f"  absent hooks (metrics read 0): {samples['absent']}")
    for error in runner.errors:
        print(f"  FAILED {error}")
    meta = {**conditions(), "workload": name, "seed": args.seed,
            "scale": args.scale, "seconds": args.seconds, "trace": args.trace,
            "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
            "inputs_sha256": wl.inputs, "failed_frac": failed_frac}
    print("  conditions " + json.dumps(meta, sort_keys=True))
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "conditions": meta, "samples": samples,
                    "errors": runner.errors}, indent=1, sort_keys=True))
    return result


def rss_child_main(twillsim, args) -> dict:
    wl = make_workload(args.workload, args.seed, args.scale, twillsim.presets)
    runner = Runner(twillsim, wl, pinned_digests(wl, args.seed, args.scale))
    try:
        runner.run_pass(wl.primary)
    finally:
        runner.close()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"peak_rss_mb": peak_kib / 1024.0, "attempted": runner.attempted,
            "failed": runner.failed, "errors": runner.errors}


def pin(twillsim) -> None:
    """Record the trace digests of zoo, and of steady and burst at
    PINNED_SEED, into bench/digests.json."""
    doc = {}
    for name in WORKLOADS:
        wl = make_workload(name, PINNED_SEED, 1.0, twillsim.presets)
        runner = Runner(twillsim, wl, {})
        try:
            runner.run_pass(wl.primary)
        finally:
            runner.close()
        if runner.failed:
            raise SystemExit(f"cannot pin {name}: {runner.errors}")
        entry = {"outputs": {j.label: runner.expected[j.label]
                             for j in wl.primary}}
        if name != "zoo":
            entry["seed"] = PINNED_SEED
        doc[name] = entry
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def import_twillsim():
    """twillsim from this checkout's src/, never an installed copy."""
    if not (SRC / "twillsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no twillsim package under {SRC}")
    # the benchmark runs the packaged data only
    os.environ.pop("TWILLSIM_CONFIG_DIR", None)
    sys.path.insert(0, str(SRC))
    import twillsim
    if Path(twillsim.__file__).resolve().parent != SRC / "twillsim":
        raise SystemExit(f"error: imported twillsim from {twillsim.__file__}")
    return twillsim


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="request-count factor for steady and burst "
                             "(the self-test runs them small)")
    parser.add_argument("--rss-child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--pin", action="store_true",
                        help="re-record bench/digests.json and exit")
    args = parser.parse_args(argv)
    if not BENCHMARK.is_file():
        raise SystemExit(f"error: no {BENCHMARK.name} at {ROOT}")
    twillsim = import_twillsim()
    if args.pin:
        pin(twillsim)
        return 0
    if args.rss_child:
        print(json.dumps(rss_child_main(twillsim, args)))
        return 0
    if args.workload != "all":
        print(json.dumps(run_workload(twillsim, args.workload, args)))
        return 0
    results = {name: run_workload(twillsim, name, args) for name in WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
