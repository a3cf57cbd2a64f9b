"""Baseline schedulers: placement rules, FIFO discipline, and the ways
each one deliberately leaves performance or safety on the table."""

import pytest

from twillsim import (
    GpuQueuePolicy,
    Simulation,
    StaticDvfsPolicy,
    StaticSubgraphPolicy,
    TwillPolicy,
    build_simulation,
    load_matrix,
    make_policy,
    prepare,
    presets,
)
from twillsim.baselines import POLICIES
from toys import (TOY_DESCRIPTORS, crumb_text, request, scenario,
                  tiny_platform, two_gpu_platform)

MATRIX = load_matrix(presets.matrix_text())


def run_policy(policy, *reqs):
    sim = Simulation(prepare(tiny_platform(), scenario(*reqs),
                             TOY_DESCRIPTORS, MATRIX), policy)
    return sim, sim.run()


def tape(trace):
    return [(round(d.time_ms, 6), d.kind, d.request_id, d.cluster_id)
            for d in trace.decisions]


# -- gpu_queue ----------------------------------------------------------------


def test_gpu_queue_is_strict_fifo_on_one_cluster():
    _, trace = run_policy(GpuQueuePolicy(),
                          request("a", "toy-conv"),
                          request("b", "toy-conv", arrival_ms=10.0),
                          request("c", "toy-matmul", arrival_ms=20.0))

    assert tape(trace) == [
        (0.0, "MAP", "a", "gpu0"),
        (0.0, "SET_FREQ", None, "gpu0"),
        (135.0, "MAP", "b", "gpu0"),
        (270.0, "MAP", "c", "gpu0"),
    ]
    by_id = {r.request_id: r for r in trace.requests}
    assert by_id["b"].waiting_ms == pytest.approx(125.0)
    assert by_id["c"].waiting_ms == pytest.approx(250.0)
    assert trace.makespan_ms == pytest.approx(425.0)
    # the DLA sat free the whole time and was never touched
    assert all(d.cluster_id == "gpu0" for d in trace.decisions)


def test_gpu_queue_never_needs_the_power_budget():
    # one engine at its top bin fits the cap on the production board
    sim = build_simulation("mix1", policy="gpu_queue")
    trace = sim.run()
    assert trace.violation_fraction == 0.0
    assert all(d.cluster_id == "gpu0" for d in trace.decisions)
    assert {d.kind for d in trace.decisions} == {"MAP", "SET_FREQ"}


# -- static_dvfs ---------------------------------------------------------------


def test_static_dvfs_places_once_and_keeps_transformers_off_the_dla():
    _, trace = run_policy(StaticDvfsPolicy(),
                          request("a", "toy-matmul"),
                          request("b", "toy-conv", arrival_ms=10.0),
                          request("c", "toy-matmul", arrival_ms=20.0),
                          request("d", "toy-conv", arrival_ms=30.0),
                          request("e", "toy-matmul", arrival_ms=40.0))

    assert tape(trace) == [
        (0.0, "MAP", "a", "gpu0"),
        (0.0, "SET_FREQ", None, "gpu0"),
        (10.0, "MAP", "b", "dla0"),       # DLA-suited model, DLA free
        (155.0, "MAP", "c", "gpu0"),      # FIFO head takes the freed GPU
        (310.0, "MAP", "d", "gpu0"),      # conv is GPU-suited too: FIFO wins
        (445.0, "MAP", "e", "gpu0"),
    ]
    # the DLA freed at t=325 but e (0% supported) must not take it
    by_id = {r.request_id: r for r in trace.requests}
    assert by_id["e"].waiting_ms == pytest.approx(405.0)
    assert trace.makespan_ms == pytest.approx(600.0)
    kinds = {d.kind for d in trace.decisions}
    assert "MIGRATE" not in kinds and "FREEZE" not in kinds


@pytest.mark.parametrize("threshold,placed", [(0.9, "gpu0"), (0.5, "dla0")])
def test_static_dvfs_reads_suitability_from_the_signature(threshold, placed):
    # toy-mixed is half supported: DLA-suited only under a threshold of 0.5
    sim = Simulation(prepare(tiny_platform(),
                             scenario(request("a", "toy-matmul"),
                                      request("b", "toy-mixed",
                                              arrival_ms=10.0)),
                             TOY_DESCRIPTORS, MATRIX,
                             affinity_threshold=threshold),
                     StaticDvfsPolicy())
    maps = {d.request_id: d.cluster_id for d in sim.run().decisions
            if d.kind == "MAP"}
    assert maps == {"a": "gpu0", "b": placed}


def test_static_dvfs_overshoots_a_shared_budget():
    # race-to-idle on both engines at once blows through the cap
    sim = build_simulation("priority_freeze", policy="static_dvfs")
    trace = sim.run()
    assert trace.time_over_budget_ms() > 0.0
    assert trace.violation_fraction > 0.1
    # every sample over budget is a both-busy interval at the top bin
    over = [p for p in trace.power if p.power_mw > trace.tdp_mw]
    assert over and all(p.freqs_mhz[0] == 1173.0 for p in over)


# -- static_subgraph -----------------------------------------------------------


def test_subgraph_splits_supported_work_to_the_dla():
    sim, trace = run_policy(StaticSubgraphPolicy(),
                            request("a", "toy-mixed"))

    assert tape(trace) == [
        (0.0, "MAP", "a", "dla0"),
        (0.0, "MAP", "a", "gpu0"),
    ]
    parts = {d.part for d in trace.decisions}
    assert parts == {"dla", "gpu"}
    assert sim.tasks["a#dla"].native is True
    assert sim.tasks["a#dla"].work == pytest.approx(150.0)
    assert sim.tasks["a#gpu"].work == pytest.approx(150.0)
    # clocks stay at the boot level: the GPU slice runs at 1.2 GF/ms
    rec = trace.requests[0]
    assert rec.completed_ms == pytest.approx(15.0 + 150.0 / 1.0)
    assert not any(d.kind == "SET_FREQ" for d in trace.decisions)


def test_subgraph_split_is_decided_only_at_arrival():
    sim, trace = run_policy(StaticSubgraphPolicy(),
                            request("a", "toy-mixed"),
                            request("b", "toy-mixed", arrival_ms=10.0))

    # b arrived while the DLA was taken: it runs whole on the GPU even
    # though the DLA freed up again at t=165
    assert "b" in sim.tasks and "b#dla" not in sim.tasks
    by_id = {r.request_id: r for r in trace.requests}
    assert by_id["b"].first_map_ms == pytest.approx(140.0)
    assert by_id["b"].completed_ms == pytest.approx(155.0 + 300.0 / 1.2)
    late = [d for d in trace.decisions if d.time_ms > 140.0]
    assert late == []


def test_subgraph_skips_offload_crumbs():
    _, trace = run_policy(StaticSubgraphPolicy(),
                          request("a", "toy-matmul"))
    assert tape(trace) == [(0.0, "MAP", "a", "gpu0")]

    # about 4.8% of the work is supported: under the bar, so no split
    sim = Simulation(prepare(tiny_platform(),
                             scenario(request("a", "toy-crumb")),
                             {"toy-crumb": crumb_text()}, MATRIX),
                     StaticSubgraphPolicy())
    assert 0.0 < sim.prepared.signatures["toy-crumb"].dla_flops_fraction < 0.05
    assert tape(sim.run()) == [(0.0, "MAP", "a", "gpu0")]


def test_subgraph_on_the_production_board_only_maps():
    trace = build_simulation("mix2", policy="static_subgraph").run()
    assert {d.kind for d in trace.decisions} == {"MAP"}
    assert all(r.completed_ms is not None for r in trace.requests)
    assert trace.violation_fraction == 0.0


# -- two GPUs ------------------------------------------------------------------

TWO_GPUS = two_gpu_platform()
DESCRIPTORS = {m: presets.model_text(m) for m in ("vgg-19", "vit-base")}


def run_two_gpus(policy, *models):
    """One request of each model, r0, r1, ..., a millisecond apart, on
    the packaged board with a second GPU; the trace and its MAPs."""
    reqs = [request(f"r{i}", m, arrival_ms=float(i))
            for i, m in enumerate(models)]
    trace = Simulation(prepare(TWO_GPUS, scenario(*reqs), DESCRIPTORS,
                               MATRIX), policy).run()
    return trace, [(d.request_id, d.part, d.cluster_id)
                   for d in trace.decisions if d.kind == "MAP"]


def test_gpu_queue_maps_in_arrival_order_onto_both_gpus():
    trace, maps = run_two_gpus(GpuQueuePolicy(), *["vit-base"] * 5)
    assert maps == [("r0", None, "gpu0"), ("r1", None, "gpu1"),
                    ("r2", None, "gpu0"), ("r3", None, "gpu1"),
                    ("r4", None, "gpu0")]
    starts = [r.first_map_ms for r in trace.requests]
    assert starts == sorted(starts) and starts[2] > 0.0


def test_static_dvfs_keeps_gpu_only_models_off_a_freed_dla():
    trace, maps = run_two_gpus(StaticDvfsPolicy(), *["vit-base"] * 3,
                               "vgg-19", *["vit-base"] * 3)
    # the VGG finds both GPUs busy and takes the DLA; each ViT waits
    assert maps == [("r0", None, "gpu0"), ("r1", None, "gpu1"),
                    ("r3", None, "dla0"), ("r2", None, "gpu0"),
                    ("r4", None, "gpu1"), ("r5", None, "gpu0"),
                    ("r6", None, "gpu1")]
    by_id = {r.request_id: r for r in trace.requests}
    # the DLA freed while r5 and r6 still waited
    assert by_id["r3"].completed_ms < by_id["r5"].first_map_ms


def test_subgraph_splits_onto_the_dla_and_queues_the_rest_for_either_gpu():
    trace, maps = run_two_gpus(StaticSubgraphPolicy(), "vgg-19", "vgg-19",
                               *["vit-base"] * 4)
    # the second VGG finds the DLA taken and runs whole on gpu1
    assert maps == [("r0", "dla", "dla0"), ("r0", "gpu", "gpu0"),
                    ("r1", None, "gpu1"), ("r2", None, "gpu0"),
                    ("r3", None, "gpu1"), ("r4", None, "gpu0"),
                    ("r5", None, "gpu1")]
    by_id = {r.request_id: r for r in trace.requests}
    # the DLA freed while r5 still waited
    assert by_id["r0"].completed_ms < by_id["r5"].first_map_ms


# -- registry ------------------------------------------------------------------


def test_policy_registry_builds_each_scheduler():
    assert sorted(POLICIES) == ["gpu_queue", "static_dvfs",
                                "static_subgraph", "twill"]
    assert isinstance(make_policy("twill"), TwillPolicy)
    assert isinstance(make_policy("gpu_queue"), GpuQueuePolicy)
    assert isinstance(make_policy("static_dvfs"), StaticDvfsPolicy)
    assert isinstance(make_policy("static_subgraph"), StaticSubgraphPolicy)
    assert make_policy("twill") is not make_policy("twill")


def test_unknown_policy_names_the_choices():
    with pytest.raises(ValueError, match="gpu_queue.*twill"):
        make_policy("round_robin")
