"""The adaptive policy: mapping ladder, thaw queue, and the governor.

The toy-platform tests pin the full decision tape of small scenarios
whose schedules can be worked out by hand; the governor tests drive
dvfs_update directly with fabricated power readings, and run the packaged
mixes at a sweep of power budgets.
"""

import random

import pytest

from twillsim import (
    Decision,
    DecisionKind,
    FreezeQueue,
    Simulation,
    TwillPolicy,
    build_simulation,
    initial_states,
    load_matrix,
    load_mix,
    load_platform,
    presets,
    random_mix,
)
from twillsim.hardware import set_frequency
from twillsim.policy import ControllerView
from toys import (TOY_DESCRIPTORS, decisions_at, request, scenario,
                  tiny_platform)

MATRIX = load_matrix(presets.matrix_text())


def run_twill(scn, **kwargs):
    sim = Simulation(tiny_platform(), scn, TwillPolicy(),
                     TOY_DESCRIPTORS, MATRIX, **kwargs)
    return sim, sim.run()


def tape(trace):
    return [(round(d.time_ms, 6), d.kind, d.request_id, d.cluster_id)
            for d in trace.decisions]


# -- mapping ladder on the toy platform ---------------------------------------


def test_arrival_takes_fastest_free_preferred_cluster():
    # conv may use either cluster and the GPU is faster; the big task
    # keeps the GPU, the small one finishes on the DLA, and migrating
    # the remaining GPU task to a slower cluster is never proposed
    scn = scenario(request("a", "toy-conv", size=4),
                   request("b", "toy-conv"))
    sim, trace = run_twill(scn)

    assert tape(trace) == [
        (0.0, "MAP", "a", "gpu0"),
        (0.0, "MAP", "b", "dla0"),
        (0.0, "SET_FREQ", None, "gpu0"),
    ]
    by_id = {r.request_id: r for r in trace.requests}
    assert by_id["b"].completed_ms == pytest.approx(315.0)
    assert by_id["a"].completed_ms == pytest.approx(15.0 + 1200.0 / 2.5)
    assert trace.makespan_ms == pytest.approx(495.0)


def test_overflow_arrival_is_deferred_then_thawed():
    # c cannot run anywhere (GPU-only model, GPU taken by an equal
    # priority task): it parks in the queue and is thawed when the GPU
    # frees; the leftover DLA task later migrates to the faster GPU
    scn = scenario(request("a", "toy-conv"),
                   request("b", "toy-conv"),
                   request("c", "toy-matmul"))
    sim, trace = run_twill(scn)

    assert tape(trace) == [
        (0.0, "MAP", "a", "gpu0"),
        (0.0, "MAP", "b", "dla0"),
        (0.0, "FREEZE", "c", None),       # deferred admission
        (0.0, "SET_FREQ", None, "gpu0"),
        (135.0, "UNFREEZE", "c", "gpu0"),
        (290.0, "MIGRATE", "b", "gpu0"),
    ]
    by_id = {r.request_id: r for r in trace.requests}
    assert by_id["c"].first_map_ms == pytest.approx(135.0)
    assert by_id["c"].waiting_ms == pytest.approx(135.0)
    # migration caught b at 275 of 300 GF and restarted it from the
    # 0.9 layer boundary, discarding the 5 GF in flight
    assert sim.rolled_back_gflops() == pytest.approx(5.0)
    assert by_id["b"].completed_ms == pytest.approx(347.0)
    assert trace.makespan_ms == pytest.approx(347.0)


def test_arrival_displaces_occupant_with_room_of_its_own():
    # the GPU-only arrival evicts the flexible conv to the free DLA
    # rather than waiting; both decisions land in one cycle
    scn = scenario(request("a", "toy-conv"),
                   request("b", "toy-matmul", arrival_ms=10.0))
    sim, trace = run_twill(scn)

    assert tape(trace) == [
        (0.0, "MAP", "a", "gpu0"),
        (0.0, "SET_FREQ", None, "gpu0"),
        (10.0, "MIGRATE", "a", "dla0"),
        (10.0, "MAP", "b", "gpu0"),
        (165.0, "MIGRATE", "a", "gpu0"),
    ]
    by_id = {r.request_id: r for r in trace.requests}
    assert by_id["b"].completed_ms == pytest.approx(165.0)
    assert by_id["a"].completed_ms == pytest.approx(294.0)
    assert by_id["b"].waiting_ms == 0.0


def test_higher_priority_freezes_lower_and_thaws_by_priority():
    scn = scenario(request("a", "toy-matmul", priority=1),
                   request("b", "toy-matmul", priority=2, arrival_ms=10.0),
                   request("c", "toy-matmul", priority=3, arrival_ms=20.0))
    sim, trace = run_twill(scn)

    assert tape(trace) == [
        (0.0, "MAP", "a", "gpu0"),
        (0.0, "SET_FREQ", None, "gpu0"),
        (10.0, "FREEZE", "a", "gpu0"),    # records the vacated cluster
        (10.0, "MAP", "b", "gpu0"),
        (20.0, "FREEZE", "b", "gpu0"),
        (20.0, "MAP", "c", "gpu0"),
        (175.0, "UNFREEZE", "b", "gpu0"),  # priority before seniority
        (350.0, "UNFREEZE", "a", "gpu0"),
    ]
    by_id = {r.request_id: r for r in trace.requests}
    # every request was placed the moment it arrived
    assert all(r.waiting_ms == 0.0 for r in trace.requests)
    assert by_id["c"].completed_ms == pytest.approx(175.0)
    assert trace.makespan_ms == pytest.approx(525.0)


def test_equal_priority_never_preempts_and_thaws_fifo():
    scn = scenario(request("a", "toy-matmul"),
                   request("b", "toy-matmul", arrival_ms=10.0),
                   request("c", "toy-matmul", arrival_ms=20.0))
    sim, trace = run_twill(scn)

    assert tape(trace) == [
        (0.0, "MAP", "a", "gpu0"),
        (0.0, "SET_FREQ", None, "gpu0"),
        (10.0, "FREEZE", "b", None),
        (20.0, "FREEZE", "c", None),
        (155.0, "UNFREEZE", "b", "gpu0"),
        (310.0, "UNFREEZE", "c", "gpu0"),
    ]
    by_id = {r.request_id: r for r in trace.requests}
    assert by_id["b"].waiting_ms == pytest.approx(145.0)
    assert by_id["c"].waiting_ms == pytest.approx(290.0)
    assert trace.makespan_ms == pytest.approx(465.0)


class ScannedQueue:
    """The thaw queue as one list in thaw order, scanned front to back
    for the first entry that prefers the freed kind."""

    def __init__(self):
        self.entries = []

    def add(self, task_key, priority, now, kinds):
        self.entries.append((-priority, now, task_key, kinds))
        self.entries.sort(key=lambda e: e[:3])

    def take(self, kind):
        for i, e in enumerate(self.entries):
            if kind in e[3]:
                del self.entries[i]
                return e[2]
        return None


@pytest.mark.parametrize("seed", range(5))
def test_thaw_pick_matches_a_scan_in_thaw_order(seed):
    rng = random.Random(seed)
    lanes = [("GPU",), ("DLA", "GPU"), ("DLA",)]
    queue, scanned = FreezeQueue(), ScannedQueue()
    now = 0.0
    taken = 0
    for step in range(600):
        now += rng.choice((0.0, 0.0, 2.5))  # equal times tie on the key
        if rng.random() < 0.4:
            kind = rng.choice(("GPU", "DLA"))
            got = queue.take(kind)
            assert got == scanned.take(kind)
            taken += got is not None
        else:
            args = (f"t{rng.randrange(10_000)}-{step}", rng.randint(1, 3),
                    now, rng.choice(lanes))
            queue.add(*args)
            scanned.add(*args)
        assert len(queue) == len(scanned.entries)
    assert taken > 100
    # drain: every queued key comes out once, in the scan's order
    for kind in ("GPU", "DLA"):
        while (got := queue.take(kind)) is not None:
            assert got == scanned.take(kind)
        assert scanned.take(kind) is None
    assert len(queue) == 0


def test_a_queued_task_cannot_be_queued_again():
    queue = FreezeQueue()
    queue.add("a", 1, 0.0, ("GPU",))
    with pytest.raises(ValueError, match="^a is already queued$"):
        queue.add("a", 2, 5.0, ("GPU",))
    assert len(queue) == 1
    assert queue.take("DLA") is None and len(queue) == 1
    assert queue.take("GPU") == "a" and len(queue) == 0
    assert queue.take("GPU") is None
    # once taken, the key may be queued again
    queue.add("a", 2, 5.0, ("GPU",))
    assert queue.take("GPU") == "a"


# -- golden traces on the production platform ---------------------------------


def test_handover_scenario_migrates_at_the_second_arrival():
    sim = build_simulation("two_app_handover", policy="twill")
    trace = sim.run()

    assert tape(trace) == [
        (0.0, "MAP", "resnet-152-0", "gpu0"),
        (0.0, "SET_FREQ", None, "gpu0"),
        (400.0, "MIGRATE", "resnet-152-0", "dla0"),
        (400.0, "MAP", "bert-base-0", "gpu0"),
        (1309.995036, "MIGRATE", "resnet-152-0", "gpu0"),
    ]
    first_freq = next(d for d in trace.decisions if d.kind == "SET_FREQ")
    assert (first_freq.level, first_freq.freq_mhz) == (7, 1173.0)

    handover = decisions_at(trace, 400.0)
    assert [d.kind for d in handover] == ["MIGRATE", "MAP"]

    assert all(r.waiting_ms == 0.0 for r in trace.requests)
    assert trace.makespan_ms == pytest.approx(1789.7687362, abs=1e-6)
    assert trace.violation_fraction == 0.0
    assert sim.conservation_error() <= 1e-9


def test_priority_scenario_freezes_then_restores_clock():
    sim = build_simulation("priority_freeze", policy="twill")
    trace = sim.run()

    assert tape(trace) == [
        (0.0, "MAP", "resnet-152-0", "gpu0"),
        (0.0, "SET_FREQ", None, "gpu0"),
        (1.0, "MAP", "vgg-19-0", "dla0"),
        (1.0, "SET_FREQ", None, "gpu0"),     # both busy: back off to fit
        (400.0, "FREEZE", "resnet-152-0", "gpu0"),
        (400.0, "MAP", "bert-base-0", "gpu0"),
        (1351.422361, "UNFREEZE", "resnet-152-0", "gpu0"),
        (1901.686273, "SET_FREQ", None, "gpu0"),  # DLA drained: clock up
    ]
    freqs = [d for d in trace.decisions if d.kind == "SET_FREQ"]
    assert [(d.level, d.freq_mhz) for d in freqs] == [
        (7, 1173.0), (6, 918.0), (7, 1173.0)]

    preempt = decisions_at(trace, 400.0)
    assert [d.kind for d in preempt] == ["FREEZE", "MAP"]

    assert all(r.waiting_ms == 0.0 for r in trace.requests)
    assert trace.makespan_ms == pytest.approx(2200.6465703, abs=1e-6)
    assert trace.violation_fraction == 0.0


# -- frequency governor --------------------------------------------------------


ORIN = load_platform(presets.platform_text())


def gpu_view(level=0, busy=True, dla_busy=False):
    states = initial_states(ORIN)
    states["gpu0"] = set_frequency(states["gpu0"], level)
    if busy:
        states["gpu0"] = states["gpu0"]._replace(occupant="t1")
    if dla_busy:
        states["dla0"] = states["dla0"]._replace(occupant="t2")
    return ControllerView(now=0.0, platform=ORIN, states=states, tasks={},
                          dla_fallback_penalty=8.0)


def set_freqs(decisions):
    return [(d.cluster_id, d.level) for d in decisions
            if d.kind is DecisionKind.SET_FREQ]


def test_governor_climbs_to_the_budget():
    pol = TwillPolicy()
    # GPU busy alone at the boot level: the whole range fits
    out = pol.dvfs_update(gpu_view(level=0), 5177.0, 5177.0, 1)
    assert set_freqs(out) == [("gpu0", 7)]


def test_governor_holds_when_the_next_level_would_not_fit():
    pol = TwillPolicy()
    # both engines busy at 918 MHz draws 9931 mW; 1173 MHz would not fit
    out = pol.dvfs_update(gpu_view(level=6, dla_busy=True), 9931.0, 9931.0, 1)
    assert out == []


# 5177 mW at 306 MHz then 13000 mW at 1173 MHz: a pair power_draw cannot
# produce, as its slope would be (13000 - 5177) / 867 ~ 9.0 mW/MHz, not
# the configured 4.5.  The governor keeps no samples, so the first reading
# changes nothing: the configured slope picks 408 MHz, whether or not the
# DLA lit up in between.
@pytest.mark.parametrize("dla_busy", [False, True],
                         ids=["same_busy_set", "dla_lit_up"])
def test_governor_predicts_from_the_configured_slope(dla_busy):
    pol = TwillPolicy()
    pol.dvfs_update(gpu_view(level=0), 5177.0, 5177.0, 1)
    out = pol.dvfs_update(gpu_view(level=7, dla_busy=dla_busy),
                          13000.0, 13000.0, 1)
    assert set_freqs(out) == [("gpu0", 1)]


def test_governor_spends_half_the_headroom_after_batched_changes():
    pol = TwillPolicy()
    # three placements at once: trust half of the 2000 mW headroom
    out = pol.dvfs_update(gpu_view(level=0), 8000.0, 8000.0, 3)
    assert set_freqs(out) == [("gpu0", 2)]

    pol = TwillPolicy()
    out = pol.dvfs_update(gpu_view(level=0), 8000.0, 8000.0, 1)
    assert set_freqs(out) == [("gpu0", 4)]


def test_governor_leaves_an_idle_gpu_alone():
    out = TwillPolicy().dvfs_update(gpu_view(level=0, busy=False),
                                    3800.0, 3800.0, 1)
    assert out == []


def _busy(states):
    return [c for c, st in states.items() if st.occupant is not None]


class EstimatingTwill(TwillPolicy):
    """TwillPolicy with its former governor, which estimated the GPU's
    power/frequency slope from its own samples: from the last reading and
    this one, when the clock had moved and the same clusters were busy.
    `estimates` counts the cycles where an estimate took the configured
    slope's place."""

    def __init__(self):
        super().__init__()
        self._samples = {}
        self.estimates = 0

    def dvfs_update(self, view, p_before_mw, p_after_mw, handled_events):
        decisions = []
        self._layout(view.platform)
        states, samples = view.states, self._samples
        budget = view.platform.tdp_mw
        headroom = budget - p_after_mw
        if handled_events <= 1 or headroom <= 0:
            effective = budget
        else:
            effective = p_after_mw + headroom / 2.0
        limit = effective + 1e-9
        for cid in self._gpu_ids:
            state = states[cid]
            if state.occupant is None:
                samples.pop(cid, None)
                continue
            spec = state.spec
            levels = spec.freq_levels_mhz
            freq = levels[state.current_level]
            slope = spec.active_power_slope_mw_per_mhz
            last = samples.get(cid)
            if last is not None:
                last_f, last_p, last_states = last
                if last_f != freq and _busy(last_states) == _busy(states):
                    est = (p_after_mw - last_p) / (freq - last_f)
                    if est > 0:
                        slope = est
                        self.estimates += 1
            chosen = len(levels) - 1
            while chosen and not (p_after_mw + slope * (levels[chosen] - freq)
                                  <= limit):
                chosen -= 1
            samples[cid] = (freq, p_after_mw, states)
            if chosen != state.current_level:
                decisions.append(Decision(DecisionKind.SET_FREQ, None, cid,
                                          chosen))
        return decisions


MIXES = ["mix1", "mix2", "mix3", "mix4", "mix5"]
DESCRIPTORS = {m: presets.model_text(m) for m in presets.available_models()}
# the draw with every cluster busy at its lowest level: below it, the
# budget cannot hold while both engines run
FLOOR_MW = ORIN.base_power_mw + sum(
    c.idle_power_mw + c.active_power_slope_mw_per_mhz * c.freq_levels_mhz[0]
    for c in ORIN.clusters)


def run_at(scn, policy, tdp_mw):
    if isinstance(scn, str):
        scn = load_mix(presets.mix_text(scn),
                       known_models=presets.available_models())
    platform = ORIN._replace(tdp_mw=tdp_mw)
    return Simulation(platform, scn, policy, DESCRIPTORS, MATRIX).run()


def test_the_configured_slope_decides_as_the_estimate_did():
    # power_draw is linear in the clock for a fixed busy set, so an
    # estimate from two of its readings equals the configured slope, and
    # the governor without one decides the same on every run
    budgets = [6000.0, FLOOR_MW, 8000.0, 10000.0, 12000.0]
    scenarios = MIXES + [random_mix(seed, presets.available_models(), 40)
                         for seed in (1, 2)]
    estimates = 0
    for scn in scenarios:
        for tdp_mw in budgets:
            reference = EstimatingTwill()
            want = run_at(scn, reference, tdp_mw)
            got = run_at(scn, TwillPolicy(), tdp_mw)
            assert got.decisions == want.decisions, (scn, tdp_mw)
            assert got.power == want.power, (scn, tdp_mw)
            estimates += reference.estimates
    # the reference did estimate, so the comparison is not vacuous
    assert estimates > 0


@pytest.mark.parametrize("mix", MIXES)
def test_twill_honours_every_budget_from_the_both_busy_floor(mix):
    for tdp_mw in (FLOOR_MW, FLOOR_MW + 0.5, FLOOR_MW + 5.0, 7200.0, 7500.0,
                   8000.0, 9000.0, 10000.0, 12000.0):
        trace = run_at(mix, TwillPolicy(), tdp_mw)
        assert trace.violation_fraction == 0.0, tdp_mw
        if tdp_mw == FLOOR_MW:
            # both engines ran at once, so the floor budget was reached
            assert max(p.power_mw for p in trace.power) == FLOOR_MW
