"""Traced passes: in-memory spans around calls into twillsim's names.

Layers are timed from outside the program.  `Tracer.install` swaps each
hooked module attribute (or Simulation method) for a wrapper that
records a span, and `uninstall` puts the originals back.  A span is
(parent span, simulation id, name, start ns, end ns); spans of one
simulation share its id.  Facts the layer metrics need (bytes read,
descriptor identity, view sizes, queue depth) are gathered right after
each call inside a `trace.bookkeeping` span, so the tracer's own work
is subtracted from its parent's self time instead of inflating it.

A hooked name that no longer exists is recorded as absent; its metrics
read 0 and the run goes on.
"""

from __future__ import annotations

import importlib
import math
import os
import time

# (owner, attribute, span name).  "module:Class" names a class attribute.
# The span name's first part is the layer it is charged to.
HOOKS = (
    ("twillsim.presets", "platform_text", "presets.platform_text"),
    ("twillsim.presets", "matrix_text", "presets.matrix_text"),
    ("twillsim.presets", "model_text", "presets.model_text"),
    ("twillsim.presets", "mix_text", "presets.mix_text"),
    ("twillsim.presets", "scenario_text", "presets.scenario_text"),
    ("twillsim", "load_mix", "workload.load_mix"),
    ("twillsim", "load_platform", "hardware.load_platform"),
    ("twillsim", "load_matrix", "models.load_matrix"),
    ("twillsim.engine", "parse_model", "models.parse"),
    ("twillsim.engine", "layer_affinity", "models.affinity"),
    ("twillsim.engine", "power_draw", "hardware.power_draw"),
    ("twillsim.engine:Simulation", "__init__", "engine.build"),
    ("twillsim.engine:Simulation", "run", "engine.run"),
    ("twillsim", "write_trace", "engine.serialise"),
)

ROOT_SPAN = "sim"
BOOKKEEPING_SPAN = "trace.bookkeeping"

# Metric that each span's self time is charged to, by span name or by
# layer.  Together with other.ms these partition a traced pass's wall.
SELF_METRIC = {
    "presets": "presets.ms",
    "workload.load_mix": "workload.load_mix.ms",
    "hardware.load_platform": "hardware.load_platform.ms",
    "hardware.power_draw": "hardware.power_draw.ms",
    "models.load_matrix": "models.load_matrix.ms",
    "models.parse": "models.parse.ms",
    "models.affinity": "models.affinity.ms",
    "engine.build": "engine.build.self_ms",
    "engine.run": "engine.loop.self_ms",
    "engine.serialise": "engine.serialise.ms",
    "twill.decide": "twill.decide.ms",
    "twill.dvfs": "twill.dvfs.ms",
    "baselines.decide": "baselines.decide.ms",
    "baselines.dvfs": "baselines.dvfs.ms",
    BOOKKEEPING_SPAN: "trace.self_ms",
    ROOT_SPAN: "other.ms",
}
SELF_TIME_METRICS = tuple(dict.fromkeys(SELF_METRIC.values()))


def self_metric(name: str) -> str:
    return (SELF_METRIC.get(name)
            or SELF_METRIC.get(name.split(".")[0], SELF_METRIC[ROOT_SPAN]))


def _text_bytes(args, kwargs, result):
    return len(result.encode())


def _parse_facts(args, kwargs, result):
    text = args[0] if args else kwargs["descriptor_text"]
    return hash(text), len(text.encode())


def _affinity_facts(args, kwargs, result):
    threshold = args[2] if len(args) > 2 else kwargs.get("threshold")
    return getattr(args[0], "name", None), threshold


def _serialised_bytes(args, kwargs, result):
    out = args[1] if len(args) > 1 else kwargs["out_dir"]
    return sum(e.stat().st_size for e in os.scandir(out) if e.is_file())


OBSERVERS = {
    **{name: _text_bytes for _, _, name in HOOKS if name.startswith("presets.")},
    "models.parse": _parse_facts,
    "models.affinity": _affinity_facts,
    "engine.build": lambda args, kwargs, result: args[0],
    "engine.run": lambda args, kwargs, result: result,
    "engine.serialise": _serialised_bytes,
}


class Tracer:
    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.absent: list[str] = []
        self._saved: list[tuple] = []
        self.reset()

    def reset(self):
        self.spans: list[list] = []
        self.facts: dict[int, object] = {}
        self._stack: list[int] = []
        self.sim = -1

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([parent, self.sim, name, time.perf_counter_ns(), 0])
        self._stack.append(sid)
        return sid

    def close(self, sid: int):
        self.spans[sid][4] = time.perf_counter_ns()
        self._stack.pop()

    def begin_sim(self) -> int:
        self.sim += 1
        return self.open(ROOT_SPAN)

    def wrap(self, name, fn, observe=None):
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if observe is not None:
                book = self.open(BOOKKEEPING_SPAN)
                self.facts[sid] = observe(args, kwargs, result)
                self.close(book)
            return result
        return traced

    # -- hooks ---------------------------------------------------------------

    def install(self):
        self.absent = []
        for owner_path, attr, name in self.hooks:
            module_name, _, class_name = owner_path.partition(":")
            try:
                owner = importlib.import_module(module_name)
                if class_name:
                    owner = getattr(owner, class_name)
            except (ImportError, AttributeError):
                owner = None
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, OBSERVERS.get(name)))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class TracedPolicy:
    """Delegates to a policy, timing decide and dvfs_update.

    The spans are charged to the module the policy class lives in
    (`twill` or `baselines`).  After each decide it records the number
    of events, tasks in the view, tasks not DONE, and the policy's queue
    depth when it has a `queue`.
    """

    def __init__(self, tracer: Tracer, inner):
        self.tracer = tracer
        self.inner = inner
        self.name = inner.name
        layer = type(inner).__module__.rsplit(".", 1)[-1]
        self.decide_span = f"{layer}.decide"
        self.dvfs_span = f"{layer}.dvfs"

    def decide(self, view, events):
        tracer = self.tracer
        sid = tracer.open(self.decide_span)
        try:
            result = self.inner.decide(view, events)
        finally:
            tracer.close(sid)
        book = tracer.open(BOOKKEEPING_SPAN)
        tasks = view.tasks
        live = sum(1 for t in tasks.values() if t.state.name != "DONE")
        queue = getattr(self.inner, "queue", None)
        tracer.facts[sid] = (len(events), len(tasks), live,
                             None if queue is None else len(queue))
        tracer.close(book)
        return result

    def dvfs_update(self, view, p_before_mw, p_after_mw, handled_events):
        sid = self.tracer.open(self.dvfs_span)
        try:
            return self.inner.dvfs_update(view, p_before_mw, p_after_mw,
                                          handled_events)
        finally:
            self.tracer.close(sid)


# ---------------------------------------------------------------------------
# metrics of one traced pass


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _reuse(keys) -> float:
    return len(set(keys)) / len(keys) if keys else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of the pass recorded in `tracer`.

    Self time is a span's duration minus the time its child spans
    cover.  The SELF_TIME_METRICS sum to trace.wall_ms, the summed
    duration of the per-simulation root spans.
    """
    spans, facts = tracer.spans, tracer.facts
    child_ns = [0] * len(spans)
    for parent, _, _, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    m: dict[str, float] = dict.fromkeys(SELF_TIME_METRICS, 0.0)
    wall_ns = 0
    by_name: dict[str, list[int]] = {}
    for sid, (parent, _, name, start, end) in enumerate(spans):
        m[self_metric(name)] += (end - start - child_ns[sid]) / 1e6
        by_name.setdefault(name, []).append(sid)
        if name == ROOT_SPAN:
            wall_ns += end - start

    def ids(name):
        # a call that raised has no facts
        return [s for s in by_name.get(name, []) if s in facts]

    preset_ids = [s for n in by_name if n.startswith("presets.")
                  for s in ids(n)]
    m["presets.calls"] = len(preset_ids)
    m["presets.bytes"] = sum(facts[s] for s in preset_ids)

    m["hardware.power_draw.calls"] = len(by_name.get("hardware.power_draw", []))

    parses = [facts[s] for s in ids("models.parse")]
    m["models.parse.calls"] = len(parses)
    m["models.parse.bytes"] = sum(size for _, size in parses)
    m["models.parse.reuse"] = _reuse([key for key, _ in parses])
    affinities = [facts[s] for s in ids("models.affinity")]
    m["models.affinity.calls"] = len(affinities)
    m["models.affinity.reuse"] = _reuse(affinities)

    m["engine.run.ms"] = sum(spans[s][4] - spans[s][3]
                             for s in by_name.get("engine.run", [])) / 1e6
    m["engine.serialise.bytes"] = sum(facts[s] for s in ids("engine.serialise"))

    decide_ids = ids("twill.decide") + ids("baselines.decide")
    cycles = [facts[s] for s in decide_ids]
    m["engine.cycles"] = len(cycles)
    m["engine.events_per_cycle"] = _mean([c[0] for c in cycles])
    m["engine.view.tasks_mean"] = _mean([c[1] for c in cycles])
    in_view = sum(c[1] for c in cycles)
    m["engine.view.live_ratio"] = (sum(c[2] for c in cycles) / in_view
                                   if in_view else 0.0)
    cycle_us = _cycle_intervals_us(spans, decide_ids, ids("engine.run"))
    m["engine.cycle_us.p50"] = percentile(cycle_us, 0.50)
    m["engine.cycle_us.p99"] = percentile(cycle_us, 0.99)
    m["engine.cycle_us.count"] = len(cycle_us)

    twill_us = [(spans[s][4] - spans[s][3]) / 1e3 for s in ids("twill.decide")]
    m["twill.decide_us.p50"] = percentile(twill_us, 0.50)
    m["twill.decide_us.p99"] = percentile(twill_us, 0.99)
    depths = [facts[s][3] for s in ids("twill.decide")
              if facts[s][3] is not None]
    m["twill.queue.depth_mean"] = _mean(depths)
    m["twill.queue.depth_max"] = max(depths, default=0)

    m["trace.wall_ms"] = wall_ns / 1e6
    return m


def _cycle_intervals_us(spans, decide_ids, run_ids) -> list[float]:
    """Time from each decide start to the next one in the same
    simulation, or to the end of its run for the last cycle."""
    run_end = {spans[s][1]: spans[s][4] for s in run_ids}
    starts: dict[int, list[int]] = {}
    for s in decide_ids:
        starts.setdefault(spans[s][1], []).append(spans[s][3])
    out = []
    for sim, times in starts.items():
        times.sort()
        times.append(run_end.get(sim, times[-1]))
        out += [(b - a) / 1e3 for a, b in zip(times, times[1:])]
    return out


def write_spans(path, passes):
    """Write the recorded spans of every traced pass as CSV."""
    with open(path, "w") as f:
        f.write("pass,span,parent,sim,name,start_ns,end_ns\n")
        for k, spans in enumerate(passes):
            for sid, (parent, sim, name, start, end) in enumerate(spans):
                f.write(f"{k},{sid},{parent},{sim},{name},{start},{end}\n")
