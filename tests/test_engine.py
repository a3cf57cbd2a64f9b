"""Event loop semantics: timing arithmetic, overheads, and the decision
protocol, checked against hand-computed schedules on a toy platform."""

import csv
import errno
import io
import json
import os
import random
import signal

import pytest

import twillsim
from twillsim import (
    POLICIES,
    Decision,
    DecisionKind,
    EngineError,
    EventKind,
    ModelError,
    PlatformError,
    Policy,
    Simulation,
    TaskState,
    WorkloadError,
    build_simulation,
    effective_rate,
    layer_affinity,
    load_matrix,
    load_platform,
    make_policy,
    parse_model,
    power_draw,
    prepare,
    presets,
    random_mix,
    write_trace,
)
from twillsim.trace import (
    DecisionRecord,
    PowerRecord,
    RequestRecord,
    Trace,
    _number,
    decisions_csv,
    power_csv,
    requests_csv,
    summary_json,
)
from toys import (
    TOY_DESCRIPTORS,
    ScriptedPolicy,
    conv_text,
    decisions_at,
    matmul_text,
    power_samples,
    request,
    scenario,
    tiny_platform,
)

MATRIX = load_matrix(presets.matrix_text())


def run_toy(scn, decide_fn=None, dvfs_fn=None, descriptors=None, **kwargs):
    sim = Simulation(prepare(tiny_platform(), scn,
                             descriptors or TOY_DESCRIPTORS, MATRIX, **kwargs),
                     ScriptedPolicy(decide_fn, dvfs_fn))
    return sim, sim.run()


def map_on_arrival(plan):
    """decide_fn that applies the planned decisions at each request arrival."""
    def decide(view, events):
        out = []
        for ev in events:
            if ev.kind is EventKind.ARRIVAL:
                out.extend(plan.get(ev.request_id, []))
        return out
    return decide


def MAP(rid, cid, **kw):
    return Decision(kind=DecisionKind.MAP, request_id=rid, cluster_id=cid, **kw)


# -- timing arithmetic -------------------------------------------------------


def test_single_task_latency_and_energy():
    # 300 GF at 1.2 GF/ms after a 15 ms mapping hold
    scn = scenario(request("a", "toy-conv"))
    sim, trace = run_toy(scn, map_on_arrival({"a": [MAP("a", "gpu0")]}))

    rec = trace.requests[0]
    assert rec.first_map_ms == 0.0
    assert rec.waiting_ms == 0.0
    assert rec.completed_ms == pytest.approx(15.0 + 300.0 / 1.2)
    assert rec.latency_ms == rec.completed_ms
    assert trace.makespan_ms == pytest.approx(265.0)
    # the cluster draws active power from the MAP on, including the hold
    assert trace.energy_mj == pytest.approx(265.0 * 1550.0 / 1000.0)
    assert trace.violation_fraction == 0.0
    assert sim.conservation_error() <= 1e-9


def test_power_samples_follow_breakpoints():
    scn = scenario(request("a", "toy-conv"))
    _, trace = run_toy(scn, map_on_arrival({"a": [MAP("a", "gpu0")]}))

    samples = power_samples(trace, period_ms=5.0)
    assert len(samples) == 54  # 0, 5, ..., 265
    assert samples[0] == (0.0, 1550.0)
    assert all(p == 1550.0 for t, p in samples if t < 265.0)
    assert samples[-1] == (265.0, 1150.0)  # idle again at makespan


def test_mid_flight_frequency_change_arithmetic():
    # a: 85 ms at 1.2 GF/ms, then the remainder at 2.5 GF/ms
    scn = scenario(request("a", "toy-conv"),
                   request("b", "toy-matmul", arrival_ms=100.0))
    plan = {"a": [MAP("a", "gpu0")], "b": [MAP("b", "dla0")]}

    def dvfs(view, p_before, p_after, handled):
        if view.now == 100.0:
            return [Decision(kind=DecisionKind.SET_FREQ,
                             cluster_id="gpu0", level=2)]
        return []

    sim, trace = run_toy(scn, map_on_arrival(plan), dvfs)

    done_at_switch = (100.0 - 15.0) * 1.2
    expect_a = 100.0 + (300.0 - done_at_switch) / 2.5
    assert trace.requests[0].completed_ms == pytest.approx(expect_a)  # 179.2

    # b runs the whole model on the DLA: every layer falls back, 8x slower
    assert trace.requests[1].completed_ms == pytest.approx(115.0 + 350.0 / 0.125)
    assert trace.requests[1].latency_ms == pytest.approx(2815.0)

    (sf,) = [d for d in trace.decisions if d.kind == "SET_FREQ"]
    assert (sf.time_ms, sf.cluster_id, sf.level, sf.freq_mhz) == (100.0, "gpu0", 2, 1000.0)
    assert sim.conservation_error() <= 1e-9


def test_migration_restarts_from_segment_boundary():
    # four units of 300 GF each; migration at 38.5% restarts unit 2
    scn = scenario(request("a", "toy-conv", size=4),
                   request("b", "toy-matmul", arrival_ms=400.0))
    plan = {
        "a": [MAP("a", "gpu0")],
        "b": [Decision(kind=DecisionKind.MIGRATE, request_id="a",
                       cluster_id="dla0"),
              MAP("b", "gpu0")],
    }
    sim, trace = run_toy(scn, map_on_arrival(plan))

    # done = 385 ms * 1.2 = 462 GF -> back to the 0.25 boundary (300 GF)
    assert sim.rolled_back_gflops() == pytest.approx(162.0)
    resume = 400.0 + 15.0 + 30.0
    assert trace.requests[0].completed_ms == pytest.approx(resume + 900.0 / 1.0)

    mig, mapped = decisions_at(trace, 400.0)
    assert (mig.kind, mig.request_id, mig.cluster_id) == ("MIGRATE", "a", "dla0")
    assert (mapped.kind, mapped.request_id) == ("MAP", "b")
    assert trace.requests[1].completed_ms == pytest.approx(415.0 + 350.0 / 1.2)


def freeze_then_thaw(thaw_cluster):
    scn = scenario(request("a", "toy-conv"),
                   request("b", "toy-matmul", arrival_ms=100.0))

    def decide(view, events):
        out = []
        for ev in events:
            if ev.kind is EventKind.ARRIVAL and ev.request_id == "a":
                out.append(MAP("a", "gpu0"))
            elif ev.kind is EventKind.ARRIVAL and ev.request_id == "b":
                out.append(Decision(kind=DecisionKind.FREEZE, request_id="a"))
                out.append(MAP("b", "gpu0"))
            elif (ev.kind is EventKind.CLUSTER_FREED
                  and view.tasks["a"].state.value == "frozen"):
                out.append(Decision(kind=DecisionKind.UNFREEZE, request_id="a",
                                    cluster_id=thaw_cluster))
        return out

    return run_toy(scn, decide)


def test_freeze_thaw_same_cluster_pays_both_ends():
    sim, trace = freeze_then_thaw("gpu0")

    b_done = 115.0 + 350.0 / 1.2
    # frozen with 102 GF done, no rollback on the home cluster;
    # thaw charge = control overhead + freeze cost on both ends
    resume = b_done + 15.0 + 2.0 * 10.0
    assert trace.requests[0].completed_ms == pytest.approx(resume + 198.0 / 1.2)
    assert sim.rolled_back_gflops() == 0.0

    (frozen,) = [d for d in trace.decisions if d.kind == "FREEZE"]
    assert frozen.cluster_id == "gpu0"  # records the vacated cluster
    assert frozen.time_ms == 100.0
    assert trace.requests[0].waiting_ms == 0.0  # first map was at t=0


def test_freezing_a_task_that_never_ran_logs_no_cluster():
    # deferred admission: the record names the cluster the engine
    # vacated, none here, not the one the policy filled in
    def decide(view, events):
        if view.now == 0.0:
            return [MAP("a", "gpu0"),
                    Decision(kind=DecisionKind.FREEZE, request_id="b",
                             cluster_id="dla0")]
        if view.tasks["b"].state is TaskState.FROZEN:
            return [Decision(kind=DecisionKind.UNFREEZE, request_id="b",
                             cluster_id=events[0].cluster_id)]
        return []

    _, trace = run_toy(scenario(request("a", "toy-conv"),
                                request("b", "toy-conv")), decide)
    (frozen,) = [d for d in trace.decisions if d.kind == "FREEZE"]
    assert (frozen.request_id, frozen.cluster_id) == ("b", None)
    assert "b,,,," in decisions_csv(trace)  # request, part, cluster, level
    assert all(r.completed_ms is not None for r in trace.requests)


def test_freeze_thaw_elsewhere_also_rolls_back():
    sim, trace = freeze_then_thaw("dla0")

    b_done = 115.0 + 350.0 / 1.2
    # 102/300 done -> back to the 0.3 layer boundary (90 GF)
    assert sim.rolled_back_gflops() == pytest.approx(12.0)
    resume = b_done + 15.0 + 2.0 * 10.0
    assert trace.requests[0].completed_ms == pytest.approx(resume + 210.0 / 1.0)


def test_a_view_follows_one_task_through_freezes_and_thaws():
    # a is admitted frozen, thawed on the DLA, evicted, and thawed again
    # on the GPU; each cycle's views before and after its decisions
    # show a's state and where it is
    scn = scenario(request("a", "toy-conv"), request("b", "toy-matmul"),
                   request("c", "toy-matmul", arrival_ms=100.0))
    seen = []

    def look(when, view):
        a = view.tasks.get("a")
        if a is not None:
            seen.append((view.now, when, a.state, a.cluster_id))

    def decide(view, events):
        look("before", view)
        if view.now == 0.0:
            return [Decision(kind=DecisionKind.FREEZE, request_id="a"),
                    MAP("b", "gpu0")]
        if view.now == 100.0:
            return [Decision(kind=DecisionKind.UNFREEZE, request_id="a",
                             cluster_id="dla0")]
        if view.tasks["c"].state is TaskState.PENDING:
            return [Decision(kind=DecisionKind.FREEZE, request_id="a"),
                    MAP("c", "gpu0")]
        if view.tasks["a"].state is TaskState.FROZEN:
            return [Decision(kind=DecisionKind.UNFREEZE, request_id="a",
                             cluster_id="gpu0")]
        return []

    def dvfs(view, p_before, p_after, handled):
        look("after", view)
        return []

    sim, trace = run_toy(scn, decide, dvfs)

    P, R, F, D = (TaskState.PENDING, TaskState.RUNNING, TaskState.FROZEN,
                  TaskState.DONE)
    b_done = 15.0 + 350.0 / 1.2
    c_done = b_done + 15.0 + 350.0 / 1.2
    # 191.67 GF done on the DLA, rolled back to the 0.6 boundary on the
    # GPU: 120 GF left after the thaw hold
    a_done = c_done + 15.0 + 2.0 * 10.0 + 120.0 / 1.2
    assert [row[1:] for row in seen] == [
        ("before", P, None), ("after", F, None),
        ("before", F, None), ("after", R, "dla0"),
        ("before", R, "dla0"), ("after", F, None),
        ("before", F, None), ("after", R, "gpu0"),
        ("before", D, None), ("after", D, None),
    ]
    assert [row[0] for row in seen] == pytest.approx(
        [0.0, 0.0, 100.0, 100.0, b_done, b_done, c_done, c_done,
         a_done, a_done])
    rec = trace.requests[0]
    assert rec.first_map_ms == 100.0  # the deferred admission's thaw
    assert rec.completed_ms == pytest.approx(a_done)
    assert sim.rolled_back_gflops() == pytest.approx(b_done - 115.0 - 180.0)


def test_a_clock_change_inside_a_thaw_hold_applies_from_its_end():
    # a is frozen at 100 ms with 102 GF done and thawed on its home GPU
    # when b completes; c's arrival 10 ms into the 35 ms thaw hold
    # raises the GPU clock before a has resumed
    scn = scenario(request("a", "toy-conv"),
                   request("b", "toy-matmul", arrival_ms=100.0),
                   request("c", "toy-conv", arrival_ms=420.0))
    b_done = 115.0 + 350.0 / 1.2  # 406.67
    hold_end = b_done + 15.0 + 2.0 * 10.0  # 441.67
    assert b_done < 420.0 < hold_end

    plan = {"a": [MAP("a", "gpu0")],
            "b": [Decision(kind=DecisionKind.FREEZE, request_id="a"),
                  MAP("b", "gpu0")],
            "c": [MAP("c", "dla0")]}

    def decide(view, events):
        out = map_on_arrival(plan)(view, events)
        if view.now == pytest.approx(b_done):
            out.append(Decision(kind=DecisionKind.UNFREEZE, request_id="a",
                                cluster_id="gpu0"))
        return out

    def dvfs(view, p_before, p_after, handled):
        if view.now == 420.0:
            return [SET_FREQ(2)]
        return []

    sim, trace = run_toy(scn, decide, dvfs)
    assert trace.requests[0].completed_ms == pytest.approx(
        hold_end + 198.0 / 2.5)
    assert sim.conservation_error() <= 1e-9


def test_control_overhead_is_configurable():
    scn = scenario(request("a", "toy-conv"))
    _, trace = run_toy(scn, map_on_arrival({"a": [MAP("a", "gpu0")]}),
                       ctrl_overhead_ms=25.0)
    assert trace.requests[0].completed_ms == pytest.approx(275.0)


# -- request splitting -------------------------------------------------------


def test_split_request_completes_when_all_parts_do():
    plan = {"a": [
        MAP("a", "dla0", part="na", work_gflops=180.0, native=True),
        MAP("a", "gpu0", part="fb", work_gflops=120.0),
    ]}
    sim, trace = run_toy(scenario(request("a", "toy-conv")),
                         map_on_arrival(plan))

    assert set(sim.tasks) == {"a#na", "a#fb"}
    # native part runs at full DLA throughput, no fallback penalty
    assert trace.requests[0].completed_ms == pytest.approx(15.0 + 180.0 / 1.0)
    assert trace.requests[0].work_gflops == pytest.approx(300.0)
    assert trace.requests[0].waiting_ms == 0.0
    assert trace.summary()["decision_counts"] == {"MAP": 2}
    parts = sorted(d.part for d in trace.decisions)
    assert parts == ["fb", "na"]


def test_parts_may_not_exceed_the_request():
    plan = {"a": [
        MAP("a", "dla0", part="na", work_gflops=200.0, native=True),
        MAP("a", "gpu0", part="fb", work_gflops=150.0),
    ]}
    with pytest.raises(EngineError, match="exceed"):
        run_toy(scenario(request("a", "toy-conv")), map_on_arrival(plan))


@pytest.mark.parametrize("work", [float("nan"), float("inf"), -1.0])
def test_part_work_must_be_finite_and_non_negative(work):
    plan = {"a": [MAP("a", "gpu0", part="p", work_gflops=work)]}
    with pytest.raises(EngineError, match="a#p: work_gflops must be finite"):
        run_toy(scenario(request("a", "toy-conv")), map_on_arrival(plan))


def test_underfilled_split_is_reported_as_unfinished():
    plan = {"a": [
        MAP("a", "dla0", part="na", work_gflops=180.0, native=True),
        MAP("a", "gpu0", part="fb", work_gflops=60.0),
    ]}
    with pytest.raises(EngineError, match="unfinished.*a"):
        run_toy(scenario(request("a", "toy-conv")), map_on_arrival(plan))


# -- dependencies ------------------------------------------------------------


def test_dependents_release_at_completion_or_arrival():
    scn = scenario(
        request("a", "toy-conv"),
        request("b", "toy-matmul", deps=["a"]),
        request("c", "toy-conv", arrival_ms=50.0, deps=["a"]),
        request("d", "toy-conv", arrival_ms=1000.0, deps=["a"]),
    )
    plan = {"a": [MAP("a", "gpu0")], "b": [MAP("b", "gpu0")],
            "c": [MAP("c", "dla0")], "d": [MAP("d", "gpu0")]}
    _, trace = run_toy(scn, map_on_arrival(plan))

    by_id = {r.request_id: r for r in trace.requests}
    a_done = by_id["a"].completed_ms
    assert a_done == pytest.approx(265.0)
    # released the instant the producer finished, waiting counted from
    # each request's own arrival time
    assert by_id["b"].first_map_ms == pytest.approx(a_done)
    assert by_id["b"].waiting_ms == pytest.approx(265.0)
    assert by_id["c"].arrival_ms == 50.0
    assert by_id["c"].waiting_ms == pytest.approx(215.0)
    # a dependent that arrives after its producer finished is not early
    assert by_id["d"].first_map_ms == pytest.approx(1000.0)
    assert by_id["d"].waiting_ms == 0.0


def test_no_dependent_is_released_before_its_producers_last_part():
    # a split whose second part, held back until the first is DONE, is
    # under the 1e-6 x work a completion may miss its work by: that part
    # is work all the same, and b once started before it had run
    remainder = 1e-4
    assert remainder < 1e-6 * 300.0

    def decide(view, events):
        out = []
        for ev in events:
            if ev.kind is EventKind.ARRIVAL and ev.request_id == "a":
                out.append(MAP("a", "dla0", part="na",
                               work_gflops=300.0 - remainder, native=True))
            elif ev.kind is EventKind.ARRIVAL:
                out.append(MAP(ev.request_id, "dla0"))
            elif "a#fb" not in view.tasks:
                out.append(MAP("a", "gpu0", part="fb", work_gflops=remainder))
        return out

    scn = scenario(request("a", "toy-conv"),
                   request("b", "toy-conv", deps=["a"]))
    _, trace = run_toy(scn, decide)
    by_id = {r.request_id: r for r in trace.requests}
    # the remainder takes its control overhead on the GPU after the DLA part
    assert by_id["a"].completed_ms == pytest.approx(15.0 + 300.0 + 15.0)
    assert by_id["b"].first_map_ms == by_id["a"].completed_ms


# -- protocol violations -----------------------------------------------------


def two_arrivals():
    # staggered so plan entries for a and b land in separate cycles
    return scenario(request("a", "toy-conv"),
                    request("b", "toy-matmul", arrival_ms=100.0))


VIOLATIONS = [
    ("map_onto_occupied",
     {"a": [MAP("a", "gpu0")], "b": [MAP("b", "gpu0")]}, "occupied"),
    ("two_decisions_one_cycle",
     {"a": [MAP("a", "gpu0"),
            Decision(kind=DecisionKind.MIGRATE, request_id="a",
                     cluster_id="dla0")]}, "two decisions"),
    ("set_freq_from_decide",
     {"a": [Decision(kind=DecisionKind.SET_FREQ, cluster_id="gpu0",
                     level=1)]}, "dvfs_update"),
    ("unknown_cluster", {"a": [MAP("a", "gpu9")]}, "unknown cluster"),
    ("migrate_pending_task",
     {"b": [Decision(kind=DecisionKind.MIGRATE, request_id="b",
                     cluster_id="gpu0")]}, "not running"),
    ("unfreeze_running_task",
     {"a": [MAP("a", "gpu0")],
      "b": [Decision(kind=DecisionKind.UNFREEZE, request_id="a",
                     cluster_id="dla0")]}, "not frozen"),
    ("unknown_task",
     {"a": [Decision(kind=DecisionKind.MIGRATE, request_id="zzz",
                     cluster_id="gpu0")]}, "unknown task"),
    ("map_twice",
     {"a": [MAP("a", "gpu0")], "b": [MAP("a", "dla0")]}, "already ran"),
    ("part_without_work",
     {"a": [MAP("a", "gpu0", part="x")]}, "work_gflops"),
    # each used to end in a raw TypeError or AttributeError
    ("list_cluster_id", {"a": [MAP("a", ["gpu0"])]},
     r"scripted: decide\(\) returned a decision with cluster_id \['gpu0'\]"),
    ("list_request_id", {"a": [MAP(["a"], "gpu0")]},
     r"scripted: .* with request_id \['a'\], not a string"),
    ("str_work", {"a": [MAP("a", "gpu0", part="x", work_gflops="1")]},
     r"scripted: a#x: work_gflops must be a number, not '1'"),
    # each used to run to DONE: True as a 1-GFLOP part, "no" as native
    ("bool_work", {"a": [MAP("a", "gpu0", part="x", work_gflops=True)]},
     r"scripted: a#x: work_gflops must be a number, not True"),
    ("str_native", {"a": [MAP("a", "dla0", part="na", work_gflops=1.0,
                              native="no")]},
     r"scripted: a#na: native must be a bool, not 'no'"),
    ("returns_none", lambda view, events: None,
     r"scripted: decide\(\) returned None, not a list of decisions"),
    ("item_not_a_decision", {"a": ["MAP"]},
     r"scripted: decide\(\) returned 'MAP', which is not a Decision"),
    # each used to run to DONE and write a "['p']" or "[2]" cell
    ("list_part", {"a": [MAP("a", "gpu0", part=["p"], work_gflops=1.0)]},
     r"scripted: decide\(\) returned a decision with part \['p'\], "
     r"not a string"),
    ("list_level", {"a": [MAP("a", "gpu0", level=[2])]},
     r"scripted: decide\(\) returned a decision with level \[2\]; "
     r"only a SET_FREQ carries one"),
    ("map_with_level", {"a": [MAP("a", "gpu0", level=2)]},
     r"with level 2; only a SET_FREQ carries one"),
    ("freeze_with_level",
     {"a": [Decision(kind=DecisionKind.FREEZE, request_id="a", level=0)]},
     r"with level 0; only a SET_FREQ carries one"),
    ("map_without_cluster", {"a": [MAP("a", None)]},
     r"^mapping decision without a target cluster$"),
    ("migrate_onto_its_own_cluster",
     {"a": [MAP("a", "gpu0")],
      "b": [Decision(kind=DecisionKind.MIGRATE, request_id="a",
                     cluster_id="gpu0")]}, r"^a: MIGRATE onto its own cluster$"),
    ("freeze_frozen_task",
     {"a": [Decision(kind=DecisionKind.FREEZE, request_id="a")],
      "b": [Decision(kind=DecisionKind.FREEZE, request_id="a")]},
     r"^a: FREEZE on a frozen task$"),
    # a kind that is not a DecisionKind used to reach an "unknown decision
    # kind" error without the policy's name, or an "unknown task" one
    ("str_kind",
     {"a": [Decision(kind="MAP", request_id="a", cluster_id="gpu0")]},
     r"^scripted: decide\(\) returned a decision with kind 'MAP', "
     r"not a DecisionKind$"),
    ("str_kind_new_part",
     {"a": [Decision(kind="MAP", request_id="a", cluster_id="gpu0",
                     part="x", work_gflops=1.0)]},
     r"^scripted: decide\(\) returned a decision with kind 'MAP', "
     r"not a DecisionKind$"),
    ("no_kind", {"a": [Decision(kind=None, request_id="a")]},
     r"^scripted: decide\(\) returned a decision with kind None, "
     r"not a DecisionKind$"),
]


@pytest.mark.parametrize("plan,match",
                         [v[1:] for v in VIOLATIONS],
                         ids=[v[0] for v in VIOLATIONS])
def test_decision_protocol_violations(plan, match):
    decide = plan if callable(plan) else map_on_arrival(plan)
    with pytest.raises(EngineError, match=match):
        run_toy(two_arrivals(), decide)


def test_an_error_inside_a_policy_generator_is_not_blamed_on_a_decision():
    def decide(view, events):
        raise TypeError("policy bug")
        yield
    with pytest.raises(TypeError, match="policy bug"):
        run_toy(two_arrivals(), decide)


def SET_FREQ(level, cid="gpu0"):
    return Decision(kind=DecisionKind.SET_FREQ, cluster_id=cid, level=level)


# what dvfs_update returns at each cycle of two_arrivals(), with "a" on
# gpu0 from the first cycle to past the second
DVFS_VIOLATIONS = [
    ("float_level", [[SET_FREQ(1.0)]], "SET_FREQ on gpu0 to level 1.0"),
    ("str_level", [[SET_FREQ("1")]], "SET_FREQ on gpu0 to level '1'"),
    # True == 1, so at level 1 it used to be dropped as no change
    ("bool_level", [[SET_FREQ(1)], [SET_FREQ(True)]],
     "SET_FREQ on gpu0 to level True"),
    ("negative_level", [[SET_FREQ(-1)]], r"level -1, .* in \[0, 2\]"),
    ("level_past_the_table", [[SET_FREQ(99)]], r"level 99, .* in \[0, 2\]"),
    ("dla_level", [[SET_FREQ(1, "dla0")]], r"dla0 to level 1, .* in \[0, 0\]"),
    ("list_cluster_id", [[SET_FREQ(1, ["gpu0"])]],
     r"scripted: dvfs_update\(\) returned a decision with cluster_id \['gpu0'\]"),
    ("returns_none", [None],
     r"scripted: dvfs_update\(\) returned None, not a list of decisions"),
    ("item_not_a_decision", [["SET_FREQ"]],
     r"scripted: dvfs_update\(\) returned 'SET_FREQ', which is not a Decision"),
    # a SET_FREQ names a cluster and a level; these were logged or ignored
    ("request_id", [[SET_FREQ(1)._replace(request_id="a")]],
     r"^scripted: dvfs_update\(\) returned a SET_FREQ with request_id 'a'; "
     r"it names only a cluster and a level$"),
    ("part", [[SET_FREQ(1)._replace(part="p")]],
     r"returned a SET_FREQ with part 'p';"),
    ("list_part", [[SET_FREQ(1)._replace(part=["p"])]],
     r"returned a SET_FREQ with part \['p'\];"),
    ("work_gflops", [[SET_FREQ(1)._replace(work_gflops=5.0)]],
     r"returned a SET_FREQ with work_gflops 5.0;"),
    ("native", [[SET_FREQ(1)._replace(native=True)]],
     r"returned a SET_FREQ with native True;"),
    # refused even where the level is no change
    ("request_id_at_the_current_level",
     [[SET_FREQ(0)._replace(request_id="a")]],
     r"returned a SET_FREQ with request_id 'a';"),
    ("no_level", [[SET_FREQ(None)]], r"^SET_FREQ needs cluster_id and level$"),
    ("no_cluster", [[SET_FREQ(1, None)]],
     r"^SET_FREQ needs cluster_id and level$"),
    ("unknown_cluster", [[SET_FREQ(1, "gpu9")]], r"^unknown cluster 'gpu9'$"),
]


@pytest.mark.parametrize("returns,match",
                         [v[1:] for v in DVFS_VIOLATIONS],
                         ids=[v[0] for v in DVFS_VIOLATIONS])
def test_set_freq_protocol_violations(returns, match):
    calls = iter(returns)

    def dvfs(view, p_before, p_after, handled):
        return next(calls, [])
    with pytest.raises(EngineError, match=match):
        run_toy(two_arrivals(), map_on_arrival({"a": [MAP("a", "gpu0")]}),
                dvfs)


@pytest.mark.parametrize("scn,plan", [
    # b arrives at 100 ms: mapped at 0 it used to run early and report a
    # negative wait
    (two_arrivals(), {"a": [MAP("a", "gpu0"), MAP("b", "dla0")]}),
    # b waits on a, which is still running
    (scenario(request("a", "toy-conv"), request("b", "toy-conv", deps=["a"])),
     {"a": [MAP("a", "gpu0"), MAP("b", "dla0")]}),
    (two_arrivals(), {"a": [MAP("zzz", "gpu0")]}),
], ids=["future_arrival", "unmet_dependency", "unknown_request"])
def test_map_before_the_request_arrives_is_rejected(scn, plan):
    with pytest.raises(EngineError, match="has not arrived"):
        run_toy(scn, map_on_arrival(plan))


def test_an_error_inside_a_dvfs_generator_is_not_blamed_on_a_decision():
    def dvfs(view, p_before, p_after, handled):
        raise TypeError("governor bug")
        yield
    with pytest.raises(TypeError, match="governor bug"):
        run_toy(two_arrivals(), map_on_arrival({"a": [MAP("a", "gpu0")]}),
                dvfs)


def test_set_freq_to_the_current_level_writes_no_row():
    scn = scenario(request("a", "toy-conv"))
    plan = map_on_arrival({"a": [MAP("a", "gpu0")]})
    _, plain = run_toy(scn, plan)
    _, same = run_toy(scn, plan, lambda view, *_: [
        SET_FREQ(view.states["gpu0"].current_level)])
    assert same.decisions == plain.decisions
    assert same.power == plain.power


def test_a_generator_decide_reads_the_cycle_start_after_each_decision():
    # a generator runs to its end before any decision is applied, so the
    # view is the tasks as the cycle began: a task a yielded MAP placed
    # still reads PENDING, and so does a request a yielded split
    # replaced, whose part is not in it
    seen = []

    def decide(view, events):
        if view.now:
            return
        yield MAP("a", "dla0")
        seen.append(view.tasks["a"].state)
        yield MAP("b", "gpu0", part="p", work_gflops=350.0)
        seen.append((view.tasks["b"].state, "b#p" in view.tasks,
                     list(view.tasks), len(view.tasks)))

    _, trace = run_toy(scenario(request("a", "toy-conv"),
                                request("b", "toy-matmul")), decide)
    assert seen == [TaskState.PENDING,
                    (TaskState.PENDING, False, ["a", "b"], 2)]
    assert all(r.completed_ms is not None for r in trace.requests)


def test_a_generator_decide_that_raises_applies_none_of_its_decisions():
    def decide(view, events):
        yield MAP("a", "gpu0")
        raise TypeError("policy bug")

    sim = Simulation(prepare(tiny_platform(),
                             scenario(request("a", "toy-conv")),
                             TOY_DESCRIPTORS, MATRIX), ScriptedPolicy(decide))
    with pytest.raises(TypeError, match="policy bug"):
        sim.run()
    assert sim.tasks["a"].state is TaskState.PENDING
    assert sim.trace.decisions == []


def test_a_part_left_frozen_after_its_request_completed_is_refused():
    # "a#p" does all of a's work, so a is complete once it is done; the
    # zero-work "a#q" mapped then is frozen when b arrives, never thawed
    def decide(view, events):
        if view.now == 0.0:
            return [MAP("a", "gpu0", part="p", work_gflops=300.0)]
        if "a#q" not in view.tasks:
            return [MAP("a", "gpu0", part="q", work_gflops=0.0)]
        if view.tasks["a#q"].state is TaskState.RUNNING:
            return [Decision(kind=DecisionKind.FREEZE, request_id="a",
                             part="q"), MAP("b", "dla0")]
        return []

    with pytest.raises(EngineError, match=r"unfinished requests: "
                       r"a \[a#p:done, a#q:frozen\]$"):
        run_toy(scenario(request("a", "toy-conv"),
                         request("b", "toy-conv", arrival_ms=270.0)), decide)


def test_the_base_policy_maps_nothing_and_sets_no_clock():
    prepared = prepare(tiny_platform(), scenario(request("a", "toy-conv")),
                       TOY_DESCRIPTORS, MATRIX)
    with pytest.raises(EngineError,
                       match=r"unfinished requests: a \[a:pending\]$"):
        Simulation(prepared, Policy()).run()

    class DecideOnly(Policy):
        def decide(self, view, events):
            return [MAP(e.request_id, "gpu0") for e in events
                    if e.kind is EventKind.ARRIVAL]

    trace = Simulation(prepared, DecideOnly()).run()
    assert [(d.kind, d.request_id) for d in trace.decisions] == [("MAP", "a")]


def test_a_completion_that_disagrees_with_the_work_done_is_an_error():
    # only an engine fault can make the integrated progress of a task
    # disagree with its completion time: here the test removes 10 GFLOPs
    # of "a" between its mapping and its completion
    def decide(view, events):
        if view.now == 0.0:
            return [MAP("a", "gpu0")]
        sim.tasks["a"].done -= 10.0
        return [MAP("b", "dla0")]

    sim = Simulation(prepare(tiny_platform(), two_arrivals(),
                             TOY_DESCRIPTORS, MATRIX), ScriptedPolicy(decide))
    with pytest.raises(EngineError, match=r"^a: completion fired with "
                       r"290\.000000000 of 300\.000000000 GFLOPs done$"):
        sim.run()


def test_an_arrival_that_reuses_a_part_key_is_refused():
    # "a" is split into part "p", whose task key is "a#p": the request
    # named "a#p" cannot have a task of its own
    scn = scenario(request("a", "toy-conv"),
                   request("a#p", "toy-conv", arrival_ms=100.0))
    plan = {"a": [MAP("a", "gpu0", part="p", work_gflops=300.0)]}
    with pytest.raises(EngineError, match=r"^task 'a#p' already exists$"):
        run_toy(scn, map_on_arrival(plan))


def test_dvfs_update_may_only_set_frequencies():
    def dvfs(view, p_before, p_after, handled):
        return [MAP("a", "gpu0")]
    with pytest.raises(EngineError, match="SET_FREQ"):
        run_toy(scenario(request("a", "toy-conv")), None, dvfs)


def test_cannot_split_a_request_that_already_ran():
    scn = scenario(request("a", "toy-conv"),
                   request("b", "toy-matmul", arrival_ms=100.0))
    plan = {"a": [MAP("a", "gpu0")],
            "b": [MAP("a", "dla0", part="late", work_gflops=50.0)]}
    with pytest.raises(EngineError, match="already ran|split"):
        run_toy(scn, map_on_arrival(plan))


def test_simulation_runs_only_once():
    scn = scenario(request("a", "toy-conv"))
    sim, _ = run_toy(scn, map_on_arrival({"a": [MAP("a", "gpu0")]}))
    with pytest.raises(EngineError, match="once"):
        sim.run()


def test_unknown_platform_override_is_rejected():
    with pytest.raises(WorkloadError, match="bogus"):
        scenario(request("a", "toy-conv"), overrides={"bogus": 1.0})


def test_missing_descriptor_is_rejected():
    scn = scenario(request("a", "mystery-model"))
    with pytest.raises(ModelError,
                       match="^no descriptor for model 'mystery-model'$"):
        prepare(tiny_platform(), scn, TOY_DESCRIPTORS, MATRIX)


@pytest.mark.parametrize("argument, value, error, message", [
    ("platform", None, PlatformError,
     "platform must be a PlatformSpec, not NoneType"),
    ("platform", {"name": "toy-board"}, PlatformError,
     "platform must be a PlatformSpec, not dict"),
    ("scenario", None, WorkloadError,
     "scenario must be a WorkloadScenario, not NoneType"),
    ("scenario", {"requests": []}, WorkloadError,
     "scenario must be a WorkloadScenario, not dict"),
    ("descriptors", None, ModelError,
     "descriptors must be a Mapping, not NoneType"),
    ("descriptors", ["toy-conv"], ModelError,
     "descriptors must be a Mapping, not list"),
    ("matrix", None, ModelError,
     "matrix must be a CompatibilityMatrix, not NoneType"),
    ("matrix", {}, ModelError, "matrix must be a CompatibilityMatrix, not dict"),
], ids=[f"{argument}-{kind}" for argument in ("platform", "scenario",
                                              "descriptors", "matrix")
        for kind in ("none", "wrong_type")])
def test_prepare_refuses_a_wrong_typed_argument(argument, value, error,
                                                message):
    # each once raised a raw AttributeError, or an EngineError naming a
    # model whose descriptor was there all along
    arguments = {"platform": tiny_platform(),
                 "scenario": scenario(request("a", "toy-conv")),
                 "descriptors": TOY_DESCRIPTORS, "matrix": MATRIX,
                 argument: value}
    with pytest.raises(error, match=f"^{message}$"):
        prepare(**arguments)


class _Unnamed(Policy):
    name = None


@pytest.mark.parametrize("prepared, policy, message", [
    (None, "twill", "prepared must be a Prepared, not NoneType"),
    ("mix1", "twill", "prepared must be a Prepared, not str"),
    (True, 5, "policy must be a Policy.*, not int"),
    (True, None, "policy must be a Policy.*, not NoneType"),
    (True, ["twill"], "policy must be a Policy.*, not list"),
    (True, _Unnamed(), "policy must be a Policy.*, not _Unnamed"),
], ids=["prepared-none", "prepared-name", "policy-int", "policy-none",
        "policy-list", "policy-without-a-name"])
def test_simulation_refuses_a_wrong_typed_argument(prepared, policy, message):
    # each once raised a raw AttributeError; True stands for a good one
    if prepared is True:
        prepared = prepare(tiny_platform(), scenario(request("a", "toy-conv")),
                           TOY_DESCRIPTORS, MATRIX)
    if policy == "twill":
        policy = make_policy(policy)
    with pytest.raises(ValueError, match=f"^{message}$"):
        Simulation(prepared, policy)
    if not isinstance(policy, Policy):
        # build_simulation and simulate build through Simulation
        with pytest.raises(ValueError, match=f"^{message}$"):
            twillsim.simulate("mix1", policy)


def test_a_descriptor_that_is_not_text_is_refused():
    scn = scenario(request("a", "toy-conv"))
    with pytest.raises(ModelError,
                       match="^model descriptor must be JSON text, not int$"):
        prepare(tiny_platform(), scn, {"toy-conv": 5}, MATRIX)


def test_idle_policy_reports_stuck_requests():
    with pytest.raises(EngineError, match="unfinished.*a.*pending"):
        run_toy(scenario(request("a", "toy-conv")))


def test_unreleased_dependent_names_its_producers():
    scn = scenario(request("a", "toy-conv"),
                   request("b", "toy-conv", deps=["a"]))
    # a never mapped -> b never released
    with pytest.raises(EngineError, match="never released"):
        run_toy(scn)


def test_stuck_requests_are_all_named_and_none_is_recorded():
    # b is never released, a is left pending and x completes: the run
    # names b and a in scenario order, and records not even x
    scn = scenario(request("b", "toy-conv", deps=["a"]),
                   request("x", "toy-conv"), request("a", "toy-conv"))
    sim = Simulation(prepare(tiny_platform(), scn, TOY_DESCRIPTORS, MATRIX),
                     ScriptedPolicy(map_on_arrival({"x": [MAP("x", "gpu0")]})))
    with pytest.raises(EngineError) as e:
        sim.run()
    assert str(e.value) == (
        "event queue drained with unfinished requests: "
        "b [never released (waiting on ['a'])]; a [a:pending]")
    assert sim.tasks["x"].state is TaskState.DONE
    assert sim.trace.requests == []


def test_runaway_simulation_is_cut_off():
    plan = {"a": [MAP("a", "dla0")]}  # whole model, 8x fallback: 2415 ms
    with pytest.raises(EngineError, match="stuck|past"):
        run_toy(scenario(request("a", "toy-matmul", size=1)),
                map_on_arrival(plan), max_time_ms=100.0)


def test_request_that_cannot_finish_by_the_horizon_is_bad_input():
    # toy-matmul is 350 GFLOP and the whole board at its top levels runs
    # 3.5 GFLOP/ms, so no policy can end b before 5 + 100 ms; a runaway
    # that only the clock would catch used to be an EngineError
    scn = scenario(request("a", "toy-conv"),
                   request("b", "toy-matmul", arrival_ms=5.0))
    with pytest.raises(WorkloadError, match=r"^b: cannot finish before "
                       r"105\.0 ms, past the simulation's 100\.0 ms horizon$"):
        prepare(tiny_platform(), scn, TOY_DESCRIPTORS, MATRIX,
                max_time_ms=100.0)
    # ending exactly at the horizon is possible, so it is no input error
    prepare(tiny_platform(), scn, TOY_DESCRIPTORS, MATRIX, max_time_ms=105.0)


def test_a_dependent_request_cannot_finish_before_its_producers():
    # c starts no earlier than b's bound, and b no earlier than a's: a
    # (300 GFLOP) by 300 / 3.5 ms, b by 100 ms more, c by 100 ms more,
    # though each alone would end inside the horizon
    scn = scenario(request("c", "toy-matmul", deps=["b", "a"]),
                   request("b", "toy-matmul", arrival_ms=50.0, deps=["a"]),
                   request("a", "toy-conv"))
    with pytest.raises(WorkloadError, match=r"^c: cannot finish before "
                       r"285\.7 ms, past the simulation's 250\.0 ms horizon$"):
        prepare(tiny_platform(), scn, TOY_DESCRIPTORS, MATRIX,
                max_time_ms=250.0)
    # a later arrival bounds a dependent instead: b arrives after a's bound
    late = scenario(request("a", "toy-conv"),
                    request("b", "toy-matmul", arrival_ms=90.0, deps=["a"]))
    with pytest.raises(WorkloadError, match=r"^b: cannot finish before "
                       r"190\.0 ms"):
        prepare(tiny_platform(), late, TOY_DESCRIPTORS, MATRIX,
                max_time_ms=150.0)


@pytest.mark.parametrize("max_time_ms", [0.0, -1.0, float("nan")])
def test_horizon_must_be_positive(max_time_ms):
    # -1 used to be blamed on the first request, and NaN never cut off
    with pytest.raises(PlatformError, match="max_time_ms must be finite and > 0"):
        prepare(tiny_platform(), scenario(request("a", "toy-conv")),
                TOY_DESCRIPTORS, MATRIX, max_time_ms=max_time_ms)


@pytest.mark.parametrize("gpu_top,max_time_ms,refused", [
    # one 2**-29 ms step of a 1e7 ms clock holds the 1e-6 GFLOP the
    # completion check forgives at 536,870.912 GFLOPS, the dla0's 1,000
    # of them included
    (535_870.911, 1e7, False),
    (535_870.913, 1e7, True),
    # the toy board's 3,500 GFLOPS against steps of 2**-22 ms below 2**31
    # ms and 2**-21 ms from there
    (2500.0, 2.0 ** 31 - 1, False),
    (2500.0, 2.0 ** 31, True),
], ids=["rate_below", "rate_above", "horizon_below", "horizon_above"])
def test_a_board_too_fast_for_the_clock_is_refused(gpu_top, max_time_ms,
                                                   refused):
    # a task's end is a clock reading; past the bound, a completion used
    # to fire short of the task's work, an internal error
    platform = tiny_platform(gpu0={"throughput_gflops": [1200.0, 2000.0,
                                                         gpu_top]})
    scn = scenario(request("a", "toy-matmul"),
                   request("b", "toy-conv", arrival_ms=3.0, size=4))
    def build():
        return prepare(platform, scn, TOY_DESCRIPTORS, MATRIX,
                       max_time_ms=max_time_ms)
    if refused:
        with pytest.raises(PlatformError, match=r"^toy-board: clusters "
                           r"too fast for the clock: "):
            build()
        return
    prepared = build()
    for policy in sorted(POLICIES):
        trace = Simulation(prepared, make_policy(policy)).run()
        assert all(r.completed_ms is not None for r in trace.requests)


@pytest.mark.parametrize("cluster,low,max_time_ms,refused", [
    # the rate underflows to 0 GFLOP/ms, which divided a task's work
    ("gpu0", 5e-324, 1e7, True),
    # a task there ran until the clock cut the run off
    ("dla0", 1e-308, 1e7, True),
    # 1e-6 GFLOP in 1e7 ms is 1e-10 GFLOPS
    ("dla0", 0.5e-10, 1e7, True),
    ("dla0", 2e-10, 1e7, False),
    # the gpu0's 1,200 GFLOPS at its lowest level against a 1e-9 ms
    # horizon
    ("gpu0", 1200.0, 1e-9, True),
], ids=["gpu_5e-324", "dla_1e-308", "rate_below", "rate_above",
        "horizon_below"])
def test_a_board_too_slow_for_the_horizon_is_refused(cluster, low,
                                                     max_time_ms, refused):
    levels = {"gpu0": [low, 2000.0, 2500.0], "dla0": [low]}[cluster]
    platform = tiny_platform(**{cluster: {"throughput_gflops": levels}})
    scn = scenario(request("a", "toy-conv"))

    def build():
        # whatever the policy: gpu_queue never places a model on the DLA
        return prepare(platform, scn, TOY_DESCRIPTORS, MATRIX,
                       max_time_ms=max_time_ms)
    if refused:
        with pytest.raises(PlatformError, match=(
                rf"^toy-board: cluster {cluster} too slow for the "
                rf"horizon: {low:g} GFLOPS at its lowest level would "
                rf"do no more than 1e-06 GFLOP in {max_time_ms} ms$")):
            build()
    else:
        build()


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_a_fallback_penalty_that_stalls_the_dla_is_refused(policy):
    # a model that prefers the DLA, its feasible fraction at the 0.9
    # threshold, runs there at 1,000 GFLOPS / (0.9 + 0.1 * penalty): under
    # a penalty of 1e14, no more than 1e-6 GFLOP in the 1e7 ms horizon
    scn = scenario(request("a", "toy-conv"))

    def build(penalty, **kwargs):
        return Simulation(prepare(tiny_platform(), scn, TOY_DESCRIPTORS,
                                  MATRIX, dla_fallback_penalty=penalty,
                                  **kwargs), make_policy(policy))
    for penalty, slowed in ((1e14, "1e-10"), (1e308, "1e-304")):
        with pytest.raises(PlatformError) as e:
            build(penalty)
        assert str(e.value) == (
            f"toy-board: cluster dla0 too slow for the horizon under a "
            f"dla_fallback_penalty of {penalty:g}: {slowed} GFLOPS for a "
            f"model that prefers it would do no more than 1e-06 GFLOP in "
            f"10000000.0 ms")
    trace = build(1e13).run()
    assert trace.requests[0].completed_ms is not None
    # at a threshold of 1, only a model the DLA runs whole prefers it,
    # and no penalty slows that model
    build(1e308, affinity_threshold=1.0)


def test_a_board_whose_energy_could_overflow_is_refused():
    # the toy board's peak is about the gpu0's idle power: over the
    # 1e7 ms horizon, the energy total stays finite for 1e300 mW
    scn = scenario(request("a", "toy-conv"))
    platform = tiny_platform(gpu0={"idle_power_mw": 1e300})
    trace = Simulation(prepare(platform, scn, TOY_DESCRIPTORS, MATRIX),
                       make_policy("twill")).run()
    assert 0 < trace.summary()["energy_mj"] < float("inf")
    # and overflows for 1e302 mW, which used to end in an Infinity
    platform = tiny_platform(gpu0={"idle_power_mw": 1e302})
    with pytest.raises(PlatformError, match=(
            r"^toy-board: a peak power draw of 1e\+302 mW over the "
            r"10000000\.0 ms horizon overflows the energy total$")):
        prepare(platform, scn, TOY_DESCRIPTORS, MATRIX)


def test_a_cycle_that_pops_nothing_is_an_error():
    # _replace bypasses the request's own validation, to reach the
    # engine's guard
    req = request("a", "toy-conv")._replace(arrival_ms=float("nan"))

    def hung(signum, frame):
        raise TimeoutError("the event loop spun without popping an event")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, 10.0)
    try:
        with pytest.raises(EngineError, match="no progress"):
            run_toy(scenario(req), map_on_arrival({"a": [MAP("a", "gpu0")]}))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("gap_ms, batches", [(0.0, [["a", "b"]]),
                                             (1e-12, [["a"], ["b"]])])
def test_events_share_a_cycle_only_at_exactly_equal_times(gap_ms, batches):
    scn = scenario(request("a", "toy-conv", arrival_ms=100.0),
                   request("b", "toy-matmul", arrival_ms=100.0 + gap_ms))
    arrivals, handled = [], []

    def decide(view, events):
        if all(e.kind is EventKind.ARRIVAL for e in events):
            arrivals.append([e.request_id for e in events])
        return [MAP(e.request_id, "gpu0" if e.request_id == "a" else "dla0")
                for e in events if e.kind is EventKind.ARRIVAL]

    def dvfs(view, p_before, p_after, handled_events):
        if view.now < 200.0:
            handled.append(handled_events)
        return []

    run_toy(scn, decide, dvfs)
    assert arrivals == batches
    assert handled == [len(b) for b in batches]


# -- incremental bookkeeping matches a full rebuild -------------------------


class ShadowPolicy(Policy):
    """Delegates to a policy after checking, at every call, that the view
    equals one rebuilt from every task, in the same key order.  It keeps
    a copy of each view's time, tasks and states in `held`: a view's
    tasks may change once the call that received it returns."""

    def __init__(self, inner: Policy):
        self.inner = inner
        self.name = inner.name
        self.sim = None
        self.held = []
        self.split = False

    def _check(self, view):
        rebuilt = {k: t.view() for k, t in self.sim.tasks.items()}
        assert list(view.tasks) == list(rebuilt)
        assert view.tasks == rebuilt
        for k, t in view.tasks.items():
            if t.state is TaskState.DONE:
                assert self.sim.tasks[k].done == t.work_gflops
        self.held.append((view.now, list(view.tasks.items()),
                          dict(view.states)))
        self.split = self.split or any(t.part for t in rebuilt.values())

    def decide(self, view, events):
        self._check(view)
        return self.inner.decide(view, events)

    def dvfs_update(self, view, p_before_mw, p_after_mw, handled_events):
        self._check(view)
        return self.inner.dvfs_update(view, p_before_mw, p_after_mw,
                                      handled_events)


def run_shadowed(mix, policy: str) -> ShadowPolicy:
    shadow = ShadowPolicy(make_policy(policy))
    shadow.sim = build_simulation(mix, shadow)
    shadow.sim.run()
    assert shadow.held
    return shadow


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("mix", ["mix1", "mix2", "mix3", "mix4", "mix5"])
def test_view_matches_a_full_rebuild_on_packaged_runs(mix, policy):
    run_shadowed(mix, policy)


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_view_matches_a_full_rebuild_with_dependencies(policy):
    scn = random_mix(11, presets.available_models(), n_requests=40,
                     dependency_p=0.4)
    assert sum(1 for r in scn.requests if r.depends_on) >= 10
    run_shadowed(scn, policy)


class CheckedSimulation(Simulation):
    """Checks, as each cycle ends, that what the engine keeps as state
    equals a recomputation from the cluster states: each occupant's
    rate and the power drawn.  `seen` names the kinds of change it was
    checked across."""

    def __init__(self, prepared, policy):
        super().__init__(prepared, policy)
        self.checks = 0
        self.seen = set()

    def _apply_set_freq(self, d, now):
        state = self.states[d.cluster_id]
        if state.occupant is not None and d.level != state.current_level:
            self.seen.add("SET_FREQ on an occupied cluster")
        super()._apply_set_freq(d, now)

    def _record_power(self, now):
        for cid, st in self.states.items():
            if st.occupant is None:
                continue
            task = self.tasks[st.occupant]
            assert task.cluster_id == cid
            assert task.rate == effective_rate(
                st, task.signature.dla_flops_fraction, task.native,
                self.dla_fallback_penalty) / 1000.0
            if task.native and task.part is not None:
                self.seen.add("native part")
        assert self._power() == power_draw(self.platform, self.states)
        self.checks += 1
        super()._record_power(now)


def run_checked(scn, policy, monkeypatch) -> CheckedSimulation:
    monkeypatch.setattr(twillsim, "Simulation", CheckedSimulation)
    sim = build_simulation(scn, policy)
    cycles = 0
    decide = sim.policy.decide

    def counted(view, events):
        nonlocal cycles
        cycles += 1
        return decide(view, events)

    monkeypatch.setattr(sim.policy, "decide", counted)
    trace = sim.run()
    # the start, then every decide cycle: a loop that skipped the hook
    # would leave cycles unchecked
    assert cycles > 1 and sim.checks == cycles + 1
    sim.seen.update(d.kind for d in trace.decisions)
    return sim


def _dependent_mix(seed):
    return random_mix(seed, presets.available_models(), n_requests=300,
                      dependency_p=0.3)


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("scn", ["mix1", "mix2", "mix3", "mix4", "mix5",
                                 _dependent_mix(3), _dependent_mix(11)],
                         ids=lambda s: s if isinstance(s, str) else s.name)
def test_kept_rates_and_power_match_a_recomputation(scn, policy, monkeypatch):
    run_checked(scn, policy, monkeypatch)


def test_kept_state_is_checked_across_every_kind_of_change(monkeypatch):
    seen = set()
    for scn, policy in [("mix3", "twill"), (_dependent_mix(3), "twill"),
                        ("mix1", "static_subgraph")]:
        seen |= run_checked(scn, policy, monkeypatch).seen
    assert seen >= {"MAP", "MIGRATE", "FREEZE", "UNFREEZE", "SET_FREQ",
                    "SET_FREQ on an occupied cluster", "native part"}


def test_view_matches_a_full_rebuild_across_a_split():
    # the whole task spawned at arrival is replaced by its parts, which
    # are appended after it; copies kept from before still list it
    shadow = run_shadowed("mix1", "static_subgraph")
    assert shadow.split
    split = {k.split("#")[0] for k in shadow.sim.tasks if "#" in k}
    assert not split & set(shadow.sim.tasks)
    assert any(split & {k for k, _ in items} for _, items, _ in shadow.held)


def test_held_views_keep_a_task_that_left_and_came_back():
    # a zero-work part replaces the whole task "a", and once it is done
    # "a" is mapped whole again: the key leaves the task order and comes
    # back at its end
    def decide(view, events):
        if view.now == 0.0:
            return [MAP("a", "gpu0", part="p", work_gflops=0.0),
                    MAP("b", "dla0")]
        return [MAP("a", "gpu0")] if "a" not in view.tasks else []

    shadow = ShadowPolicy(ScriptedPolicy(decide))
    shadow.sim = Simulation(
        prepare(tiny_platform(), scenario(request("a", "toy-conv"),
                                          request("b", "toy-matmul")),
                TOY_DESCRIPTORS, MATRIX), shadow)
    trace = shadow.sim.run()
    assert all(r.completed_ms is not None for r in trace.requests)
    assert list(shadow.sim.tasks) == ["b", "a#p", "a"]
    orders = [[k for k, _ in items] for _, items, _ in shadow.held]
    assert ["a", "b"] in orders and ["b", "a#p"] in orders


@pytest.mark.parametrize("mix", ["mix1", "mix3"])
def test_a_running_task_no_decision_touched_keeps_its_view(mix):
    # a view is built when its task is created, decided on or completed,
    # not each cycle its task makes progress
    shadow = run_shadowed(mix, "twill")
    decided = {}  # time -> keys a decision named at that time
    for d in shadow.sim.trace.decisions:
        if d.request_id is not None:
            key = d.request_id if d.part is None else f"{d.request_id}#{d.part}"
            decided.setdefault(d.time_ms, set()).add(key)
    kept = 0
    for (_, before, _), (now, items, _) in zip(shadow.held,
                                                shadow.held[1:]):
        before = dict(before)
        for key, task in items:
            if (task.state is TaskState.RUNNING and key in before
                    and key not in decided.get(now, ())):
                assert task is before[key]
                kept += 1
    assert kept


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("mix", ["mix1", "mix3"])
def test_a_view_is_built_once_per_arrival_decision_and_completion(
        mix, policy, monkeypatch):
    # a part a MAP spawns is created and decided on at once: one view
    built = []
    view = twillsim.engine._Task.view
    monkeypatch.setattr(twillsim.engine._Task, "view",
                        lambda task: built.append(task.key) or view(task))
    sim = build_simulation(mix, policy)
    trace = sim.run()
    named = sum(d.request_id is not None for d in trace.decisions)
    done = sum(task.state is TaskState.DONE for task in sim.tasks.values())
    assert len(built) == len(sim.scenario.requests) + named + done


def test_view_tasks_are_read_only():
    checked = []

    def decide(view, events):
        key, task = next(iter(view.tasks.items()))
        with pytest.raises(TypeError):
            view.tasks[key] = task
        with pytest.raises(TypeError):
            del view.tasks[key]
        assert view.tasks[key] is task
        checked.append(key)
        return [MAP(e.request_id, "gpu0") for e in events
                if e.kind is EventKind.ARRIVAL]

    run_toy(scenario(request("a", "toy-conv")), decide)
    assert checked == ["a", "a"]


def test_every_policy_runs_from_one_prepared_and_leaves_it_unchanged():
    # the runs share the build's dicts: each run copies the pending
    # producer counts it writes, and writes nothing else there
    scn = random_mix(11, presets.available_models(), n_requests=40,
                     dependency_p=0.4)
    assert sum(1 for r in scn.requests if r.depends_on) >= 10
    prepared = twillsim.prepare_mix(scn)
    for policy in sorted(POLICIES):
        shared = Simulation(prepared, make_policy(policy)).run()
        own = build_simulation(scn, policy).run()
        for write in (decisions_csv, requests_csv, power_csv, summary_json):
            assert write(shared) == write(own), (policy, write.__name__)
    assert prepared == twillsim.prepare_mix(scn)


def test_derived_profiles_match_a_fresh_parse():
    models = presets.available_models()
    descriptors = {m: presets.model_text(m) for m in models}
    requests = [request(f"{m}/{size}/{prio}", m, priority=prio, size=size)
                for m in models for size in (1, 3, 6) for prio in (1, 3)]
    prepared = prepare(load_platform(presets.platform_text()),
                       scenario(*requests), descriptors, MATRIX)
    assert set(prepared.profiles) == set(prepared.signatures) == set(models)
    for r in requests:
        fresh = parse_model(descriptors[r.model])
        derived = prepared.profiles[r.model]
        assert derived == fresh
        assert derived.total_flops == fresh.total_flops
        assert (derived.work_gflops(r.workload_size)
                == fresh.work_gflops(r.workload_size)
                == prepared.work[r.request_id])
        assert prepared.signatures[r.model] == layer_affinity(fresh, MATRIX)


def test_done_tasks_stay_in_the_view_with_all_work_done():
    scn = scenario(request("a", "toy-conv"),
                   request("b", "toy-matmul", arrival_ms=1000.0))
    seen = {}

    def decide(view, events):
        if view.now == 1000.0:
            seen["a"] = view.tasks["a"]
        return [MAP(e.request_id, "gpu0") for e in events
                if e.kind is EventKind.ARRIVAL]

    sim, _ = run_toy(scn, decide)
    done = seen["a"]
    assert done.state is TaskState.DONE
    assert done.cluster_id is None
    assert sim.tasks["a"].done == done.work_gflops == pytest.approx(300.0)


# -- edge cases and serialization -------------------------------------------


def test_empty_scenario_is_a_clean_noop():
    _, trace = run_toy(scenario())
    assert trace.makespan_ms == 0.0
    assert trace.energy_mj == 0.0
    assert trace.violation_fraction == 0.0
    assert trace.requests == []
    assert trace.decisions == []
    assert trace.summary()["decision_counts"] == {}


def test_trace_tables_round_to_fixed_columns():
    scn = scenario(request("a", "toy-conv"))
    _, trace = run_toy(scn, map_on_arrival({"a": [MAP("a", "gpu0")]}))

    dec = decisions_csv(trace).splitlines()
    assert dec[0] == "time_ms,kind,request_id,part,cluster_id,level,freq_mhz"
    assert dec[1] == "0.000000,MAP,a,,gpu0,,"

    req = requests_csv(trace).splitlines()
    assert req[0] == ("request_id,model,priority,arrival_ms,first_map_ms,"
                      "completed_ms,waiting_ms,latency_ms,work_gflops")
    assert req[1].startswith("a,toy-conv,1,0.000000,0.000000,265.000000,")

    pwr = power_csv(trace).splitlines()
    assert pwr[0] == "time_ms,power_mw,gpu0_freq_mhz,gpu0_util,dla0_freq_mhz,dla0_util"

    doc = json.loads(summary_json(trace))
    assert doc["makespan_ms"] == 265.0
    assert doc["requests"][0]["request_id"] == "a"


def _trace(request_ids, scenario_name="toy", done=True, label=None,
           nulls=False):
    """A hand-built trace, one request per id.  A `label` stands in for
    each other name in it: the policy, platform, model, cluster ids and
    part labels.  With `nulls`, every cell that may be None is None."""
    policy, platform, model, cluster_ids = (
        ("p", "b", "toy-conv", ("gpu0", "dla0")) if label is None
        else (label, label, label, (label, f"x{label}")))
    trace = Trace(scenario=scenario_name, policy=policy, platform=platform,
                  tdp_mw=1000.0, cluster_ids=cluster_ids)
    for k, rid in enumerate(request_ids):
        end = 10.0 * k + 1 / 3 if done and not nulls else None
        first_map = None if nulls or k % 2 else 0.1 * k
        trace.requests.append(RequestRecord(
            request_id=rid, model=model, priority=k % 3 + 1,
            arrival_ms=0.1 * k, first_map_ms=first_map,
            completed_ms=end, waiting_ms=None if first_map is None else 0.0,
            latency_ms=None if end is None else end - 0.1 * k,
            work_gflops=300.0 + k))
        trace.decisions.append(DecisionRecord(
            time_ms=0.1 * k, kind="MAP", request_id=None if nulls else rid,
            part=None if nulls or k % 2 else label if label is not None
            else rid,
            cluster_id=None if nulls else cluster_ids[1], level=None,
            freq_mhz=None))
        # freq_mhz is an int from the board, or a float
        trace.decisions.append(DecisionRecord(
            time_ms=0.1 * k, kind="SET_FREQ", request_id=None, part=None,
            cluster_id=None if nulls else cluster_ids[0],
            level=None if nulls else k,
            freq_mhz=None if nulls else 300 + k if k % 2 else 300.0 + k / 3))
        trace.power.append(PowerRecord(
            time_ms=0.1 * k, power_mw=500.0 + k / 7,
            freqs_mhz=(300.0 + k / 3, 1400), utils=(float(k % 2), 1.0)))
    return trace


AWKWARD_IDS = ['say "hi"', "a,b", "back\\slash", "two\nlines", "c\rd",
               " lead", "naïve-π-😀", "}, {", '\n  "requests": []', ""]
# names that need CSV quoting or JSON escapes, or look as if they might
AWKWARD_NAMES = {"comma": "a,b", "quote": 'say "hi"', "cr": "c\rd",
                 "lf": "two\nlines", "leading-space": " lead",
                 "non-ascii": "naïve-π-😀", "empty": ""}
# the request floats where the six-decimal text of summary.json's numbers
# is cut short or given up for repr(round(x, 6))
EDGE_NUMBERS = [0.0, -0.0, 5e-05, 9.9999995e-05, -2.5e-07, 1e-4, 1e9 - 1e-7,
                1e9, 1e9 + 1e-7, 1e16, 123456789.1234565, -0.1]


def _edge_trace():
    trace = _trace([])
    for k, x in enumerate(EDGE_NUMBERS):
        trace.requests.append(RequestRecord(f"r{k}", "m", 1, x, x, x, x, x, x))
    return trace


def _unhashable_trace():
    # a hand-built trace may hold any cell, a list too, though the engine
    # refuses such a part or level
    trace = _trace(["a"])
    trace.decisions.append(DecisionRecord(0.0, "MAP", "a", ["p", "q"],
                                          "gpu0", [2], None))
    return trace


SERIALISER_CASES = {
    "awkward-ids": _trace(AWKWARD_IDS),
    "unfinished": _trace(AWKWARD_IDS, done=False),
    "nulls": _trace(AWKWARD_IDS, nulls=True),
    **{f"awkward-names-{case}": _trace(["a", "b"], scenario_name=name,
                                       label=name)
       for case, name in AWKWARD_NAMES.items()},
    "empty": _trace([]),
    "edge-numbers": _edge_trace(),
    "unhashable": _unhashable_trace(),
}


@pytest.mark.parametrize("trace", [
    *SERIALISER_CASES.values(),
    _trace(["a", "b"], scenario_name='x "requests": [] y'),
    _trace(["a"], scenario_name='\n  "requests": []\n'),
    _trace([], scenario_name='"requests": '),
    build_simulation("mix2", policy="static_subgraph").run(),
], ids=[*SERIALISER_CASES, "scenario-quote", "scenario-newline",
        "empty-scenario-quote", "mix2"])
def test_summary_json_matches_an_indented_dump(trace):
    expected = json.dumps(trace.summary(), indent=2, sort_keys=True) + "\n"
    assert summary_json(trace) == expected


def test_summary_numbers_are_round_then_repr():
    rng = random.Random(20240517)
    values = list(EDGE_NUMBERS)
    for _ in range(100_000):
        if rng.random() < 0.8:
            x = 10 ** rng.uniform(-8, 12)  # every size from 1e-8 to 1e12
        else:  # on or next to a tie between two six-decimal neighbours
            x = rng.randrange(10 ** 13) / 10 ** rng.randrange(5, 9)
        values.append(-x if rng.random() < 0.5 else x)
    wrong = [x for x in values if _number(x, f"{x:.6f}") != repr(round(x, 6))]
    assert wrong == []


DECISION_COLUMNS = ["time_ms", "kind", "request_id", "part", "cluster_id",
                    "level", "freq_mhz"]
REQUEST_COLUMNS = ["request_id", "model", "priority", "arrival_ms",
                   "first_map_ms", "completed_ms", "waiting_ms", "latency_ms",
                   "work_gflops"]


def _reference_text(v) -> str:
    # None is an empty cell, a float has six decimals, and anything else
    # is str(v)
    return "" if v is None else f"{v:.6f}" if isinstance(v, float) else str(v)


def _check_csv(text, header, rows):
    """text is the header, then one line per row, each cell quoted when
    it holds , " \r or \n, with each " doubled; and csv reads it back."""
    lines = []
    for row in [header, *rows]:
        cells = []
        for v in row:
            cell = _reference_text(v)
            if any(c in cell for c in ',"\r\n'):
                cell = '"' + cell.replace('"', '""') + '"'
            cells.append(cell)
        lines.append(",".join(cells) + "\n")
    assert text == "".join(lines)
    assert list(csv.reader(io.StringIO(text, newline=""))) == [
        [_reference_text(v) for v in row] for row in [header, *rows]]


@pytest.mark.parametrize("trace", SERIALISER_CASES.values(),
                         ids=SERIALISER_CASES)
def test_csv_writers_match_a_per_field_reference(trace):
    _check_csv(decisions_csv(trace), DECISION_COLUMNS, [
        [getattr(d, name) for name in DECISION_COLUMNS]
        for d in trace.decisions])
    _check_csv(requests_csv(trace), REQUEST_COLUMNS, [
        [getattr(r, name) for name in REQUEST_COLUMNS]
        for r in trace.requests])
    header, rows = ["time_ms", "power_mw"], []
    for cid in trace.cluster_ids:
        header += [f"{cid}_freq_mhz", f"{cid}_util"]
    for p in trace.power:
        row = [p.time_ms, p.power_mw]
        for i in range(len(trace.cluster_ids)):
            row += [p.freqs_mhz[i], p.utils[i]]
        rows.append(row)
    _check_csv(power_csv(trace), header, rows)


def test_repeat_runs_serialize_identically(tmp_path):
    for sub in ("one", "two"):
        sim = build_simulation("mix1", policy="twill")
        write_trace(sim.run(), tmp_path / sub)
    for name in ("decisions.csv", "requests.csv", "power.csv", "summary.json"):
        first = (tmp_path / "one" / name).read_bytes()
        second = (tmp_path / "two" / name).read_bytes()
        assert first == second, name


TRACE_FILES = ("decisions.csv", "requests.csv", "power.csv", "summary.json")


def _file_bytes(out_dir):
    return {name: (out_dir / name).read_bytes() for name in TRACE_FILES}


def test_rewrite_cuts_the_old_tail_and_keeps_each_file(tmp_path):
    """A rerun into the same directory rewrites each file in place: the
    old, longer content is gone, while inode, mode and hard links stay
    and a symlink is followed."""
    trace = build_simulation("mix1", policy="twill").run()
    fresh, out = tmp_path / "fresh", tmp_path / "out"
    write_trace(trace, fresh)
    out.mkdir()
    stale = b"stale\n" * 20_000
    for name in TRACE_FILES:
        (out / name).write_bytes(stale)
    (out / "decisions.csv").chmod(0o600)
    twin = tmp_path / "twin.csv"
    twin.hardlink_to(out / "requests.csv")
    target = tmp_path / "target.csv"
    target.write_bytes(stale)
    (out / "power.csv").unlink()
    (out / "power.csv").symlink_to(target)
    before = {name: (out / name).stat() for name in TRACE_FILES}
    assert all(len(blob) < len(stale) for blob in _file_bytes(fresh).values())

    write_trace(trace, out)
    assert _file_bytes(out) == _file_bytes(fresh)
    assert twin.read_bytes() == (fresh / "requests.csv").read_bytes()
    assert (out / "power.csv").is_symlink()
    for name in TRACE_FILES:
        after = (out / name).stat()
        assert (after.st_ino, after.st_mode) == (before[name].st_ino,
                                                 before[name].st_mode), name


def test_an_unencodable_trace_leaves_the_old_files_untouched(tmp_path):
    write_trace(build_simulation("mix1", policy="twill").run(), tmp_path)
    before = _file_bytes(tmp_path)
    # the lone surrogate reaches only power.csv, the third file written
    trace = _trace(["a"])
    trace.cluster_ids = ("gpu0", "dla\udc80")
    with pytest.raises(UnicodeEncodeError):
        write_trace(trace, tmp_path)
    assert _file_bytes(tmp_path) == before


def test_a_failed_write_leaves_that_file_empty(tmp_path, monkeypatch):
    trace = build_simulation("mix1", policy="twill").run()
    write_trace(trace, tmp_path)
    before = _file_bytes(tmp_path)
    real_write = os.write

    def write_then_fail(fd, data):
        real_write(fd, data[:10])
        raise OSError(errno.ENOSPC, "No space left on device")

    with monkeypatch.context() as m:
        m.setattr(os, "write", write_then_fail)
        with pytest.raises(OSError, match="No space left"):
            write_trace(trace, tmp_path)
    # the first file failed and holds nothing; the others were not reached
    after = _file_bytes(tmp_path)
    assert after.pop("decisions.csv") == b""
    assert after == {k: v for k, v in before.items() if k != "decisions.csv"}
