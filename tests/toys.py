"""Hand-sized platforms, models, scripted policies and trace helpers for
engine tests.

The production platform and model library live in twillsim.data; the
fixtures here are deliberately small, with round-number rates, so that
expected completion times can be worked out on paper next to the
assertion that checks them.  `two_gpu_platform` is the exception: the
packaged board with one more GPU, for the paths that choose between two
clusters of one kind.
"""

import json

from twillsim import ClusterSpec, PlatformSpec, Policy, load_platform, presets
from twillsim.workload import InferenceRequest, WorkloadScenario

# gpu0: 400 MHz -> 1.2 GF/ms, 800 -> 2.0, 1000 -> 2.5; dla0: 1.0 GF/ms
_TINY_PLATFORM = {
    "name": "toy-board",
    "tdp_mw": 1_000_000.0,
    "base_power_mw": 1000.0,
    "clusters": [
        {
            "cluster_id": "gpu0",
            "kind": "GPU",
            "freq_levels_mhz": [400, 800, 1000],
            "throughput_gflops": [1200.0, 2000.0, 2500.0],
            "idle_power_mw": 100.0,
            "active_power_slope_mw_per_mhz": 1.0,
        },
        {
            "cluster_id": "dla0",
            "kind": "DLA",
            "freq_levels_mhz": [800],
            "throughput_gflops": [1000.0],
            "idle_power_mw": 50.0,
            "active_power_slope_mw_per_mhz": 0.5,
        },
    ],
}


def tiny_platform(tdp_mw=1_000_000.0, **cluster_overrides):
    doc = json.loads(json.dumps(_TINY_PLATFORM))
    doc["tdp_mw"] = tdp_mw
    for cid, fields in cluster_overrides.items():
        for c in doc["clusters"]:
            if c["cluster_id"] == cid:
                c.update(fields)
    return load_platform(json.dumps(doc))


def two_gpu_platform():
    """The packaged board with a second GPU, `gpu1`, a copy of `gpu0`."""
    board = load_platform(presets.platform_text())
    return PlatformSpec(board.name, board.tdp_mw, board.base_power_mw, (
        *board.clusters,
        ClusterSpec(**{**board.clusters[0]._asdict(), "cluster_id": "gpu1"})))


def floor_mw(board):
    """The draw with every cluster busy at its lowest level: below it,
    the budget cannot hold while every engine runs."""
    return board.base_power_mw + sum(
        c.idle_power_mw + c.active_power_slope_mw_per_mhz * c.freq_levels_mhz[0]
        for c in board.clusters)


def _descriptor(name, layers):
    return json.dumps({
        "name": name,
        "reference_workload": 1,
        "total_flops": sum(l["flops"] for l in layers),
        "layers": layers,
    })


def conv_text(name="toy-conv", n_layers=10, gflops_each=30.0):
    """Fully DLA-feasible model: n equal Conv layers (affinity 1.0)."""
    layer = {
        "op_type": "Conv", "precision": "FP16",
        "flops": int(gflops_each * 1e9),
        "in_shape": [1, 8, 32, 32], "out_shape": [1, 8, 32, 32],
        "kernel": [3, 3], "stride": [1, 1], "padding": [1, 1],
    }
    return _descriptor(name, [dict(layer) for _ in range(n_layers)])


def matmul_text(name="toy-matmul", n_layers=7, gflops_each=50.0):
    """DLA-infeasible model: n equal MatMul layers (affinity 0.0)."""
    layer = {
        "op_type": "MatMul", "precision": "FP16",
        "flops": int(gflops_each * 1e9),
        "in_shape": [1, 64, 64], "out_shape": [1, 64, 64],
    }
    return _descriptor(name, [dict(layer) for _ in range(n_layers)])


def mixed_text(name="toy-mixed", n_each=5, gflops_each=30.0):
    """Half-and-half model: conv then matmul layers (affinity 0.5)."""
    conv = json.loads(conv_text(n_layers=n_each, gflops_each=gflops_each))
    mm = json.loads(matmul_text(n_layers=n_each, gflops_each=gflops_each))
    layers = conv["layers"] + mm["layers"]
    return _descriptor(name, layers)


def crumb_text(name="toy-crumb"):
    """Mostly DLA-infeasible model: one Conv layer then 20 MatMul layers of
    the same size (affinity 1/21, under the 5% offload bar)."""
    conv = json.loads(conv_text(n_layers=1))
    mm = json.loads(matmul_text(n_layers=20, gflops_each=30.0))
    return _descriptor(name, conv["layers"] + mm["layers"])


TOY_DESCRIPTORS = {
    "toy-conv": conv_text(),
    "toy-matmul": matmul_text(),
    "toy-mixed": mixed_text(),
}


def request(request_id, model, priority=1, arrival_ms=0.0, size=1, deps=()):
    return InferenceRequest(request_id=request_id, model=model,
                            priority=priority, arrival_ms=arrival_ms,
                            workload_size=size, depends_on=tuple(deps))


def scenario(*requests, name="toy", overrides=None):
    return WorkloadScenario(name=name, requests=tuple(requests),
                            platform_overrides=dict(overrides or {}))


def decisions_at(trace, time_ms, tol=1e-6):
    return [d for d in trace.decisions if abs(d.time_ms - time_ms) <= tol]


def power_samples(trace, period_ms=5.0):
    """Sample the trace's piecewise-constant power profile at a fixed
    cadence over [0, makespan]."""
    if not trace.power:
        return []
    end = trace.makespan_ms
    samples = []
    idx = 0
    t = 0.0
    while t <= end:
        while idx + 1 < len(trace.power) and trace.power[idx + 1].time_ms <= t:
            idx += 1
        samples.append((t, trace.power[idx].power_mw))
        t += period_ms
    return samples


class ScriptedPolicy(Policy):
    """Policy driven by test-supplied callbacks.

    decide_fn(view, events) and dvfs_fn(view, p_before, p_after,
    handled) each return a decision list; either may be omitted.
    """

    name = "scripted"

    def __init__(self, decide_fn=None, dvfs_fn=None):
        self.decide_fn = decide_fn
        self.dvfs_fn = dvfs_fn

    def decide(self, view, events):
        return self.decide_fn(view, events) if self.decide_fn else []

    def dvfs_update(self, view, p_before_mw, p_after_mw, handled_events):
        if self.dvfs_fn is None:
            return []
        return self.dvfs_fn(view, p_before_mw, p_after_mw, handled_events)
