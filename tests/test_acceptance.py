"""End-to-end acceptance gate.

Each test covers one shipped guarantee and reports a PASS/FAIL line in
the terminal summary (see conftest.py).  The heavyweight checks build
their own oracles: an exhaustive schedule search for the tiny-instance
bound, an independent re-evaluation of the compatibility predicates,
and a 1000-seed randomized property suite.
"""

import itertools
import json
from contextlib import contextmanager

import pytest

import conftest
from twillsim import (
    InferenceRequest,
    Policy,
    Simulation,
    TaskState,
    TwillPolicy,
    WorkloadScenario,
    build_simulation,
    layer_affinity,
    load_matrix,
    load_platform,
    make_policy,
    parse_model,
    presets,
    random_mix,
)
from twillsim.trace import decisions_csv, summary_json
from toys import (TOY_DESCRIPTORS, decisions_at, power_samples, request,
                  scenario, tiny_platform)

MIXES = ["mix1", "mix2", "mix3", "mix4", "mix5"]
POLICY_NAMES = ["twill", "gpu_queue", "static_dvfs", "static_subgraph"]
BASELINES = POLICY_NAMES[1:]

MATRIX = load_matrix(presets.matrix_text())
ORIN = load_platform(presets.platform_text())


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        conftest.ACCEPTANCE_RESULTS.append(f"{label}: FAIL")
        raise
    else:
        conftest.ACCEPTANCE_RESULTS.append(f"{label}: PASS")


@pytest.fixture(scope="module")
def mix_traces():
    return {m: {p: build_simulation(m, policy=p).run() for p in POLICY_NAMES}
            for m in MIXES}


def tape(trace):
    return [(round(d.time_ms, 6), d.kind, d.request_id, d.cluster_id)
            for d in trace.decisions]


# -- C1 / C2: golden decision sequences ---------------------------------------


def test_c1_handover_sequence():
    with criterion("[C1] handover: arrival triggers migrate+map in one "
                   "cycle, migrates back on completion"):
        trace = build_simulation("two_app_handover", policy="twill").run()

        assert tape(trace) == [
            (0.0, "MAP", "resnet-152-0", "gpu0"),
            (0.0, "SET_FREQ", None, "gpu0"),
            (400.0, "MIGRATE", "resnet-152-0", "dla0"),
            (400.0, "MAP", "bert-base-0", "gpu0"),
            (1309.995036, "MIGRATE", "resnet-152-0", "gpu0"),
        ]
        # the handover happens in the cycle of the second arrival
        at_arrival = decisions_at(trace, 400.0)
        assert [(d.kind, d.request_id, d.cluster_id) for d in at_arrival] == [
            ("MIGRATE", "resnet-152-0", "dla0"),
            ("MAP", "bert-base-0", "gpu0"),
        ]
        # and the displaced model returns the moment the newcomer is done
        bert_done = next(r.completed_ms for r in trace.requests
                         if r.request_id == "bert-base-0")
        back = decisions_at(trace, bert_done)
        assert [(d.kind, d.request_id, d.cluster_id) for d in back] == [
            ("MIGRATE", "resnet-152-0", "gpu0"),
        ]
        assert all(r.waiting_ms == 0.0 for r in trace.requests)
        assert trace.violation_fraction == 0.0


def test_c2_priority_preemption_sequence():
    with criterion("[C2] preemption: freeze+map adjacency, thaw on "
                   "completion, clock restored after drain"):
        trace = build_simulation("priority_freeze", policy="twill").run()

        at_arrival = decisions_at(trace, 400.0)
        assert [(d.kind, d.request_id) for d in at_arrival] == [
            ("FREEZE", "resnet-152-0"),
            ("MAP", "bert-base-0"),
        ]
        assert at_arrival[1].cluster_id == "gpu0"

        bert_done = next(r.completed_ms for r in trace.requests
                         if r.request_id == "bert-base-0")
        thaw = decisions_at(trace, bert_done)
        assert [(d.kind, d.request_id, d.cluster_id) for d in thaw] == [
            ("UNFREEZE", "resnet-152-0", "gpu0"),
        ]
        # after the thaw, the next frequency action is an increase
        later = [d for d in trace.decisions
                 if d.kind == "SET_FREQ" and d.time_ms > bert_done]
        assert later and later[0].freq_mhz == 1173.0
        assert later[0].level == 7

        assert all(r.waiting_ms == 0.0 for r in trace.requests)
        assert trace.violation_fraction == 0.0


# -- C3 / C4 / C5: five-mix sweep ----------------------------------------------


def test_c3_makespan_strictly_best(mix_traces):
    with criterion("[C3] makespan: strictly lowest on all five mixes, "
                   ">=10% over the worst baseline"):
        for mix in MIXES:
            spans = {p: mix_traces[mix][p].makespan_ms for p in POLICY_NAMES}
            ours = spans["twill"]
            others = {p: spans[p] for p in BASELINES}
            assert all(ours < v for v in others.values()), (mix, spans)
            worst = max(others.values())
            improvement = (worst - ours) / worst
            assert improvement >= 0.10, (mix, improvement, spans)


def test_c4_waiting_time(mix_traces):
    with criterion("[C4] waiting: zero on mix1/mix2, >=50% below every "
                   "baseline on mix3-mix5"):
        def total_wait(trace):
            return sum(r.waiting_ms for r in trace.requests
                       if r.waiting_ms is not None)

        for mix in ("mix1", "mix2"):
            assert total_wait(mix_traces[mix]["twill"]) == 0.0, mix
        for mix in ("mix3", "mix4", "mix5"):
            ours = total_wait(mix_traces[mix]["twill"])
            for p in BASELINES:
                theirs = total_wait(mix_traces[mix][p])
                assert theirs > 0.0, (mix, p)
                assert ours <= 0.5 * theirs, (mix, p, ours, theirs)


def test_c5_power_capping(mix_traces):
    with criterion("[C5] power: <=1% of samples over budget under the "
                   "adaptive policy, static DVFS overshoots mix1/mix2"):
        for mix in MIXES:
            trace = mix_traces[mix]["twill"]
            samples = power_samples(trace, period_ms=5.0)
            assert samples, mix
            over = sum(1 for _, p in samples if p > trace.tdp_mw + 1e-9)
            assert over / len(samples) <= 0.01, (mix, over, len(samples))
        for mix in ("mix1", "mix2"):
            assert mix_traces[mix]["static_dvfs"].violation_fraction > 0.0, mix


# -- C6: compatibility analysis vs an independent oracle ------------------------


CNN_MODELS = ["vgg-19", "resnet-50", "resnet-152", "efficientnet-b4"]
TRANSFORMER_MODELS = ["bert-base", "bert-large", "vit-base", "vit-large"]


def independent_feasible(layer: dict, m: dict) -> bool:
    """Re-evaluates the three predicates straight off the JSON docs."""
    if layer["precision"] not in m["supported_precisions"]:
        return False
    op = layer["op_type"]
    if op in m["unsupported_ops"]:
        return False
    if op in m["param_checked_ops"]:
        for field, bounds in (("kernel", m["kernel_range"]),
                              ("stride", m["stride_range"]),
                              ("padding", m["padding_range"])):
            lo, hi = bounds
            if not all(lo <= v <= hi for v in layer[field]):
                return False
        if layer["in_shape"][0] > m["max_batch"]:
            return False
        spatial = list(layer["in_shape"][2:]) + list(layer["out_shape"][2:])
        if any(s > m["max_spatial_dim"] for s in spatial):
            return False
    return True


def test_c6_affinity_conformance():
    with criterion("[C6] affinity: CNN fractions >=0.9, transformer "
                   "fractions <=0.5, per-layer split matches brute force"):
        matrix_doc = json.loads(presets.matrix_text())
        for name in CNN_MODELS + TRANSFORMER_MODELS:
            text = presets.model_text(name)
            profile = parse_model(text)
            sig = layer_affinity(profile, MATRIX)

            expected = tuple(independent_feasible(l, matrix_doc)
                             for l in json.loads(text)["layers"])
            assert sig.layer_feasible == expected, name

            if name in CNN_MODELS:
                assert sig.dla_flops_fraction >= 0.9, (name, sig.dla_flops_fraction)
            else:
                assert sig.dla_flops_fraction <= 0.5, (name, sig.dla_flops_fraction)


# -- C7: tiny-instance optimality bound ------------------------------------------


GPU_RATE = 2.5            # toy GPU at its top level, GF/ms
DLA_RATES = {"toy-conv": 1.0, "toy-matmul": 0.125}
C7_SIZE = 4               # batch size: keeps the 15 ms control charge
                          # second-order next to the service times
WORKS = {name: parse_model(text).work_gflops(C7_SIZE)
         for name, text in TOY_DESCRIPTORS.items()}


def oracle_makespan(reqs, incumbent):
    """Exhaustive search over event-time assignments, no overheads.

    Work-conserving preemptive schedules on {gpu, dla} with the GPU at
    its top level dominate here (throughput rises with frequency and
    the budget never binds), so the search enumerates which task runs
    where between consecutive events.
    """
    n = len(reqs)
    arr = [r[1] for r in reqs]
    dla = [DLA_RATES[r[0]] for r in reqs]
    init = [WORKS[r[0]] for r in reqs]
    cap = GPU_RATE + max(DLA_RATES.values())
    best = incumbent

    def dfs(time, rem):
        nonlocal best
        active = [i for i in range(n) if arr[i] <= time + 1e-9 and rem[i] > 1e-9]
        future = sorted(arr[i] for i in range(n)
                        if arr[i] > time + 1e-9 and rem[i] > 1e-9)
        if not active and not future:
            best = min(best, time)
            return
        lb = time + sum(rem) / cap
        for i in range(n):
            if rem[i] > 1e-9:
                lb = max(lb, max(time, arr[i]) + rem[i] / GPU_RATE)
        if lb >= best - 1e-9:
            return
        if not active:
            dfs(future[0], rem)
            return
        if len(active) == 1:
            options = [(active[0], None), (None, active[0])]
        else:
            options = [(g, d) for g in active for d in active if g != d]
        for g, d in options:
            rates = {}
            if g is not None:
                rates[g] = GPU_RATE
            if d is not None:
                rates[d] = dla[d]
            dt = min(rem[i] / rates[i] for i in rates)
            if future:
                dt = min(dt, future[0] - time)
            nxt = list(rem)
            for i in rates:
                nxt[i] = max(0.0, nxt[i] - rates[i] * dt)
            dfs(time + dt, nxt)

    dfs(0.0, init)
    return best


def test_c7_tiny_instance_bound():
    with criterion("[C7] tiny instances: makespan within 1.5x of the "
                   "exhaustive-search optimum"):
        archetypes = list(itertools.product(
            ("toy-conv", "toy-matmul"), (0.0, 600.0), (1, 2)))
        cases = [combo
                 for k in (1, 2, 3)
                 for combo in itertools.combinations_with_replacement(
                     archetypes, k)]
        assert len(cases) == 8 + 36 + 120

        worst = 0.0
        for combo in cases:
            reqs = [request(f"r{i}", model, priority=prio, arrival_ms=t,
                            size=C7_SIZE)
                    for i, (model, t, prio) in enumerate(combo)]
            sim = Simulation(tiny_platform(), scenario(*reqs), TwillPolicy(),
                             TOY_DESCRIPTORS, MATRIX)
            ours = sim.run().makespan_ms
            opt = oracle_makespan([(m, t) for m, t, _ in combo], ours + 1.0)
            assert opt <= ours + 1e-6, (combo, opt, ours)
            worst = max(worst, ours / opt)
        assert worst <= 1.5, worst


# -- C8: randomized property suite ------------------------------------------------


class Audited(Policy):
    """Delegates to a policy after checking the occupancy invariants on
    every controller view."""

    def __init__(self, inner: Policy):
        self.inner = inner
        self.name = inner.name
        self.faults: list[str] = []

    def _audit(self, view):
        placed = {}
        for key, t in view.tasks.items():
            if t.state is TaskState.RUNNING:
                if t.cluster_id in placed:
                    self.faults.append(f"{t.cluster_id} double-booked")
                placed[t.cluster_id] = key
            elif t.cluster_id is not None:
                self.faults.append(f"{key} is {t.state.value} but placed")
        for cid, st in view.states.items():
            if st.occupant != placed.get(cid):
                self.faults.append(f"{cid} occupant mismatch")

    def decide(self, view, events):
        self._audit(view)
        return self.inner.decide(view, events)

    def dvfs_update(self, view, p_before_mw, p_after_mw, handled_events):
        self._audit(view)
        return self.inner.dvfs_update(view, p_before_mw, p_after_mw,
                                      handled_events)


def preferred_kinds_by_model():
    return {name: layer_affinity(parse_model(text), MATRIX).preferred_clusters
            for name, text in TOY_DESCRIPTORS.items()}


def check_freeze_queue_order(trace, scn, prefs, platform):
    kinds = {c.cluster_id: c.kind.name for c in platform.clusters}
    prios = {r.request_id: r.priority for r in scn.requests}
    models = {r.request_id: r.model for r in scn.requests}
    queued: dict[str, tuple[int, float]] = {}
    for d in trace.decisions:
        if d.kind == "FREEZE":
            queued[d.request_id] = (prios[d.request_id], d.time_ms)
        elif d.kind == "UNFREEZE":
            kind = kinds[d.cluster_id]
            eligible = [(-p, t, rid) for rid, (p, t) in queued.items()
                        if kind in prefs[models[rid]]]
            assert eligible
            assert min(eligible)[2] == d.request_id, (d, sorted(eligible))
            del queued[d.request_id]


def check_preemption_legality(trace, scn):
    prios = {r.request_id: r.priority for r in scn.requests}
    for d in trace.decisions:
        if d.kind == "FREEZE" and d.cluster_id is not None:
            # an occupant was evicted: the same cycle must hand its
            # cluster to a strictly higher-priority request
            maps = [x for x in trace.decisions
                    if x.time_ms == d.time_ms and x.kind == "MAP"
                    and x.cluster_id == d.cluster_id]
            assert maps, d
            assert all(prios[x.request_id] > prios[d.request_id]
                       for x in maps), (d, maps)


def test_c8_randomized_properties():
    with criterion("[C8] 1000 random scenarios: occupancy, conservation, "
                   "completion, legal preemption, queue order, determinism"):
        platform = tiny_platform(tdp_mw=2200.0)
        prefs = preferred_kinds_by_model()
        model_names = sorted(TOY_DESCRIPTORS)

        for seed in range(1000):
            scn = random_mix(seed, model_names, n_requests=6)
            policy = Audited(TwillPolicy())
            sim = Simulation(platform, scn, policy, TOY_DESCRIPTORS, MATRIX)
            trace = sim.run()

            assert policy.faults == [], (seed, policy.faults[:3])
            assert sim.conservation_error() <= 1e-6, seed
            assert all(r.completed_ms is not None for r in trace.requests), seed
            check_preemption_legality(trace, scn)
            check_freeze_queue_order(trace, scn, prefs, platform)

            if seed % 50 == 0:
                again = Simulation(platform, random_mix(seed, model_names,
                                                        n_requests=6),
                                   Audited(TwillPolicy()), TOY_DESCRIPTORS,
                                   MATRIX).run()
                assert decisions_csv(again) == decisions_csv(trace), seed
                assert summary_json(again) == summary_json(trace), seed


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_every_policy_keeps_the_invariants_on_the_production_board(policy):
    # C8's occupancy, conservation and completion checks, for each
    # policy on the packaged board, with dependent requests
    for seed in (3, 11, 29):
        scn = random_mix(seed, presets.available_models(), n_requests=150,
                         dependency_p=0.3)
        audited = Audited(make_policy(policy))
        sim = build_simulation(scn, audited)
        trace = sim.run()
        assert audited.faults == [], (seed, audited.faults[:3])
        assert sim.conservation_error() <= 1e-6, seed
        assert all(r.completed_ms is not None for r in trace.requests), seed
        check_preemption_legality(trace, scn)


# -- C9: control overhead accounting ----------------------------------------------


def test_c9_control_overhead_accounting():
    with criterion("[C9] control overhead: each placement charges exactly "
                   "the configured hold before execution"):
        text = presets.model_text("resnet-152")
        w_big = parse_model(text).work_gflops(96)
        w_small = parse_model(text).work_gflops(8)

        def probe(**kwargs):
            scn = WorkloadScenario(
                name="overhead-probe",
                requests=(
                    InferenceRequest("big", "resnet-152", 1, 0.0, 96),
                    InferenceRequest("small", "resnet-152", 1, 10.0, 8),
                ),
                platform_overrides={"tdp_mw": 1e6},
            )
            sim = Simulation(ORIN, scn, TwillPolicy(),
                             {"resnet-152": text}, MATRIX, **kwargs)
            trace = sim.run()
            return {r.request_id: r for r in trace.requests}

        base = probe()
        # big holds 15 ms then runs the GPU at the top bin; small holds
        # 15 ms then runs natively on the DLA -- nothing else happens
        assert base["big"].latency_ms == pytest.approx(15.0 + w_big / 2.5)
        assert base["small"].latency_ms == pytest.approx(15.0 + w_small / 1.0)
        assert base["big"].waiting_ms == 0.0
        assert base["small"].waiting_ms == 0.0

        shifted = probe(ctrl_overhead_ms=25.0)
        for rid in ("big", "small"):
            delta = shifted[rid].latency_ms - base[rid].latency_ms
            assert delta == pytest.approx(10.0, abs=1e-9), rid
