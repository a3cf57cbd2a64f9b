"""Scenario parsing, dependency handling, and the random generator."""

import csv
import graphlib
import hashlib
import json
import random
import re
import time
from fractions import Fraction

import pytest

from twillsim import presets, simulate
from twillsim.cli import main
from twillsim.workload import (
    InferenceRequest,
    WorkloadError,
    WorkloadScenario,
    dependency_index,
    load_mix,
    random_mix,
)

ALL_MIXES = ["mix1", "mix2", "mix3", "mix4", "mix5"]


@pytest.mark.parametrize("name", ALL_MIXES)
def test_packaged_mixes_load(name):
    mix = load_mix(presets.mix_text(name), known_models=presets.available_models())
    assert mix.name == name
    assert len(mix.requests) >= 2
    arrivals = [r.arrival_ms for r in mix.requests]
    assert arrivals == sorted(arrivals)
    assert all(r.priority in (1, 2, 3) for r in mix.requests)


def test_packaged_scenarios_load():
    for name in presets.available_scenarios():
        sc = load_mix(presets.scenario_text(name),
                      known_models=presets.available_models())
        assert sc.requests


def test_auto_ids_count_per_model():
    doc = {"name": "x", "requests": [
        {"model": "vgg-19", "priority": 1, "arrival_ms": 0, "workload_size": 1},
        {"model": "vgg-19", "priority": 1, "arrival_ms": 5, "workload_size": 1},
    ]}
    mix = load_mix(json.dumps(doc))
    assert [r.request_id for r in mix.requests] == ["vgg-19-0", "vgg-19-1"]


def test_duplicate_ids_rejected():
    doc = {"requests": [
        {"id": "a", "model": "vgg-19", "priority": 1, "arrival_ms": 0, "workload_size": 1},
        {"id": "a", "model": "vgg-19", "priority": 1, "arrival_ms": 5, "workload_size": 1},
    ]}
    with pytest.raises(WorkloadError, match="duplicate"):
        load_mix(json.dumps(doc))


def test_unknown_model_rejected_when_library_given():
    doc = {"requests": [
        {"model": "alexnet", "priority": 1, "arrival_ms": 0, "workload_size": 1},
    ]}
    load_mix(json.dumps(doc))  # fine without a library
    with pytest.raises(WorkloadError, match="alexnet"):
        load_mix(json.dumps(doc), known_models=["vgg-19"])


def test_dependency_cycle_rejected():
    doc = {"requests": [
        {"id": "a", "model": "m", "priority": 1, "arrival_ms": 0,
         "workload_size": 1, "depends_on": ["b"]},
        {"id": "b", "model": "m", "priority": 1, "arrival_ms": 0,
         "workload_size": 1, "depends_on": ["a"]},
    ]}
    with pytest.raises(WorkloadError, match="cycle"):
        load_mix(json.dumps(doc))


def test_unknown_dependency_rejected():
    doc = {"requests": [
        {"id": "a", "model": "m", "priority": 1, "arrival_ms": 0,
         "workload_size": 1, "depends_on": ["ghost"]},
    ]}
    with pytest.raises(WorkloadError, match="ghost"):
        load_mix(json.dumps(doc))


def test_request_field_validation():
    with pytest.raises(WorkloadError):
        InferenceRequest("a", "m", priority=0, arrival_ms=0, workload_size=1)
    with pytest.raises(WorkloadError):
        InferenceRequest("a", "m", priority=1, arrival_ms=-1, workload_size=1)
    with pytest.raises(WorkloadError):
        InferenceRequest("a", "m", priority=1, arrival_ms=0, workload_size=0)


@pytest.mark.parametrize("arrival", [float("nan"), float("inf")])
def test_non_finite_arrival_rejected(arrival):
    with pytest.raises(WorkloadError, match="finite"):
        InferenceRequest("a", "m", priority=1, arrival_ms=arrival,
                         workload_size=1)


@pytest.mark.parametrize("text", ["[]", "5", '"mix1"', "null"])
def test_top_level_must_be_an_object(text):
    with pytest.raises(WorkloadError, match="JSON object"):
        load_mix(text)


A_REQUEST = (InferenceRequest("a", "vgg-19", 1, 0.0, 1),)


@pytest.mark.parametrize("overrides", [{"tdp_mw": "lots"}, {"tdp_mw": None},
                                       {"base_power_mw": [1.0]}, [1, 2]])
def test_api_scenario_rejects_non_numeric_overrides(overrides):
    with pytest.raises(WorkloadError, match="platform_overrides"):
        WorkloadScenario("x", A_REQUEST, platform_overrides=overrides)


def test_api_scenario_converts_overrides_once():
    given = {"tdp_mw": 12000, "base_power_mw": 2500.5}
    scn = WorkloadScenario("x", A_REQUEST, platform_overrides=given)
    assert scn.platform_overrides == {"tdp_mw": 12000.0,
                                      "base_power_mw": 2500.5}
    assert all(type(v) is float for v in scn.platform_overrides.values())
    assert given == {"tdp_mw": 12000, "base_power_mw": 2500.5}
    # a number spelled as a string is no number
    with pytest.raises(WorkloadError, match="'base_power_mw' must be a "
                                            "number, not '2500.5'"):
        WorkloadScenario("x", A_REQUEST,
                         platform_overrides={"base_power_mw": "2500.5"})


def test_api_scenario_rejects_duplicate_ids():
    with pytest.raises(WorkloadError, match=r"duplicate request ids: \['a'\]"):
        WorkloadScenario("x", A_REQUEST * 2)


def test_api_scenario_rejects_an_unknown_dependency():
    with pytest.raises(WorkloadError, match="depends on unknown request 'ghost'"):
        WorkloadScenario("x", (InferenceRequest("a", "vgg-19", 1, 0.0, 1,
                                                depends_on=("ghost",)),))


def test_api_scenario_rejects_a_dependency_cycle():
    with pytest.raises(WorkloadError, match="dependency cycle"):
        WorkloadScenario("x", (
            InferenceRequest("a", "vgg-19", 1, 0.0, 1, depends_on=("b",)),
            InferenceRequest("b", "vgg-19", 1, 0.0, 1, depends_on=("a",)),
        ))


def _chain(n, closed=False):
    """r{i} depends on r{i-1}, listed last to first; closed, r0 also
    depends on r{n-1}."""
    return tuple(InferenceRequest(f"r{i}", "vgg-19", 1, 0.0, 1,
                                  depends_on=(f"r{(i - 1) % n}",)
                                  if i or closed else ())
                 for i in reversed(range(n)))


def test_long_dependency_chain_is_accepted():
    requests = _chain(20_000)
    assert WorkloadScenario("chain", requests).requests == requests


def test_long_dependency_cycle_is_named_as_graphlib_names_it():
    requests = _chain(20_000, closed=True)
    graph = {r.request_id: set(r.depends_on) for r in requests}
    with pytest.raises(graphlib.CycleError) as cycle:
        tuple(graphlib.TopologicalSorter(graph).static_order())
    with pytest.raises(WorkloadError) as err:
        WorkloadScenario("ring", requests)
    assert str(err.value) == f"dependency cycle: {cycle.value.args[1]}"


def test_dependency_index_lists_consumers_in_scenario_order():
    # the engine releases a producer's dependents in this order, and
    # releases a dependent once its count of producers reaches zero
    requests = (
        InferenceRequest("c", "m", 1, 0.0, 1, depends_on=("a", "b")),
        InferenceRequest("a", "m", 1, 0.0, 1),
        InferenceRequest("d", "m", 1, 0.0, 1, depends_on=("b", "a", "b", "a")),
        InferenceRequest("b", "m", 1, 0.0, 1),
        InferenceRequest("e", "m", 1, 0.0, 1, depends_on=("a", "a")),
    )
    consumers, producers = dependency_index(requests)
    assert consumers == {"a": ["c", "d", "e"], "b": ["c", "d"]}
    assert producers == {"c": 2, "d": 2, "e": 1}


# Seeded fuzz of depends_on on mix3's requests repeated under fresh ids.
# Each mutation edits the request entries and returns a fragment of the
# refusal it must meet, when loaded or when its Simulation is built, or
# None for a scenario that must run to the end.

def _unknown_id(rng, entries):
    rng.choice(entries)["depends_on"] = [f"ghost{rng.randrange(100)}"]
    return "depends on unknown request 'ghost"


def _self_dependency(rng, entries):
    entry = rng.choice(entries)
    entry["depends_on"] = [entry["id"]]
    return f"{entry['id']}: depends on itself"


def _cycle(length):
    def mutate(rng, entries):
        ring = rng.sample(entries, length)
        for entry, producer in zip(ring, ring[1:] + ring[:1]):
            entry["depends_on"] = [producer["id"]]
        return "dependency cycle: "
    return mutate


def _string(rng, entries):
    rng.choice(entries)["depends_on"] = rng.choice(entries)["id"]
    return "depends_on must be a list of request ids, not 'q"


def _object(rng, entries):
    # refused as it is, not read as its keys
    rng.choice(entries)["depends_on"] = {"id": rng.choice(entries)["id"]}
    return "depends_on must be a list of request ids, not {'id': 'q"


def _non_string_id(rng, entries):
    rng.choice(entries)["depends_on"] = [rng.randrange(len(entries))]
    return "depends_on must be a list of request ids, not ["


def _duplicated_producers(rng, entries):
    i = rng.randrange(2, len(entries))
    p, q = (entries[j]["id"] for j in rng.sample(range(i), 2))
    entries[i]["depends_on"] = [p, q, p, p, q]
    return None


def _long_chain(rng, entries):
    # each request waits on the one before it, listed in shuffled order;
    # size 1 keeps the whole chain inside the engine's horizon
    for i, entry in enumerate(entries):
        entry["workload_size"] = 1
        if i:
            entry["depends_on"] = [entries[i - 1]["id"]]
    rng.shuffle(entries)
    return None


def _long_chain_at_packaged_sizes(rng, entries):
    # each request's bound starts at its producer's: the chain cannot
    # end inside the horizon, and is refused before it runs
    for i, entry in enumerate(entries):
        if i:
            entry["depends_on"] = [entries[i - 1]["id"]]
    rng.shuffle(entries)
    return ": cannot finish before "


DEPENDS_ON_FUZZ = [
    pytest.param(mutate, n, seed, id=f"{name}-{seed}")
    for name, mutate, n, seeds in [
        ("unknown_id", _unknown_id, 60, (0, 1)),
        ("self_dependency", _self_dependency, 60, (0, 1)),
        ("2_cycle", _cycle(2), 60, (0, 1)),
        ("50_cycle", _cycle(50), 60, (0, 1)),
        ("string", _string, 60, (0, 1)),
        ("object", _object, 60, (0, 1)),
        ("non_string_id", _non_string_id, 60, (0, 1)),
        ("duplicated_producers", _duplicated_producers, 60, (0, 1)),
        ("20000_chain", _long_chain, 20_000, (0,)),
        ("20000_chain_packaged_sizes", _long_chain_at_packaged_sizes, 20_000,
         (0,)),
    ]
    for seed in seeds]


@pytest.mark.parametrize("mutate,n,seed", DEPENDS_ON_FUZZ)
def test_fuzzed_depends_on_is_refused_or_runs(mutate, n, seed, tmp_path,
                                              capsys):
    doc = json.loads(presets.mix_text("mix3"))
    entries = doc["requests"] = [
        dict(doc["requests"][i % len(doc["requests"])], id=f"q{i}")
        for i in range(n)]
    expected = mutate(random.Random(seed), entries)
    path = tmp_path / "mix.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    try:
        load_mix(path.read_text(), known_models=presets.available_models())
        refusal = None
    except WorkloadError as e:
        refusal = str(e)
    code = main(["run", "--mix", str(path), "--out", str(tmp_path / "out")])
    assert time.perf_counter() - start < 5
    err = capsys.readouterr().err
    if expected is None:
        assert (refusal, code, err) == (None, 0, "")
        with open(tmp_path / "out" / "requests.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == n and all(r["completed_ms"] for r in rows)
    else:
        if refusal is None:  # loaded, then refused as the run is built
            assert err.startswith("error: ")
            refusal = err[len("error: "):-1]
        assert expected in refusal
        assert (code, err) == (1, f"error: {refusal}\n")


@pytest.mark.parametrize("field,value", [
    ("priority", "high"), ("priority", 2.7), ("priority", True),
    ("workload_size", "4"), ("workload_size", 2.9), ("workload_size", False),
    ("arrival_ms", "0"), ("arrival_ms", None), ("arrival_ms", True),
    ("request_id", [1]), ("model", None), ("depends_on", "ab"),
    ("depends_on", ("b", 1)), ("depends_on", 5), ("depends_on", None),
    ("request_id", "a\udc80"), ("arrival_ms", Fraction(1, 2)),
    ("depends_on", {"b": 1}),
])
def test_api_request_rejects_wrong_typed_fields(field, value):
    fields = {"request_id": "a", "model": "vgg-19", "priority": 1,
              "arrival_ms": 0.0, "workload_size": 1, field: value}
    message = f"{field} must be .*{re.escape(repr(value))}"
    with pytest.raises(WorkloadError, match=message):
        InferenceRequest(**fields)


def test_int_and_float_arrivals_write_identical_traces(tmp_path):
    def run(arrivals, out):
        simulate(WorkloadScenario("x", (
            InferenceRequest("a", "vgg-19", 1, arrivals[0], 1),
            InferenceRequest("b", "resnet-50", 2, arrivals[1], 1),
        )), out_dir=out)
        return {p.name: p.read_bytes() for p in out.iterdir()}

    as_ints = run((0, 3), tmp_path / "int")
    assert as_ints == run((0.0, 3.0), tmp_path / "float")
    assert len(as_ints) == 4
    assert type(InferenceRequest("a", "m", 1, 0, 1).arrival_ms) is float


def test_task_kind_key_is_ignored():
    entry = {"id": "a", "model": "bert-base", "priority": 1, "arrival_ms": 0,
             "workload_size": 128}
    plain = load_mix(json.dumps({"requests": [entry]}))
    tagged = load_mix(json.dumps({"requests": [{**entry, "task_kind": "generative"}]}))
    assert tagged == plain


def test_random_mix_is_reproducible():
    models = ["vgg-19", "resnet-50", "bert-base"]
    a = random_mix(7, models, n_requests=12)
    b = random_mix(7, models, n_requests=12)
    c = random_mix(8, models, n_requests=12)
    assert a == b
    assert a != c
    assert len(a.requests) == 12
    # dependencies always point backwards, so the DAG check passed
    ids = {r.request_id: i for i, r in enumerate(a.requests)}
    for r in a.requests:
        for d in r.depends_on:
            assert ids[d] < ids[r.request_id]


_PACKAGED_MODELS = ["bert-base", "bert-large", "deepseek-r1-1.5b",
                    "efficientnet-b4", "gemma-3-1b", "resnet-152", "resnet-50",
                    "vgg-19", "vit-base", "vit-large"]
_TOY_MODELS = ["toy-conv", "toy-matmul", "toy-mixed"]


def _drawn_digest(calls) -> str:
    h = hashlib.sha256()
    for args, kwargs in calls:
        scn = random_mix(*args, **kwargs)
        h.update(f"{scn.name}\n".encode())
        for r in scn.requests:
            h.update(f"{tuple(r)!r}\n".encode())
    return h.hexdigest()


def test_random_mix_draws_what_its_callers_have_always_drawn():
    # the argument lists of `run --mix random` and the tests that draw
    # scenarios; the digest was computed when random_mix still took its
    # arrival window, size range and top priority as options
    calls = [((seed, _PACKAGED_MODELS, 6), {}) for seed in (0, 7, 8)]
    calls += [((seed, _TOY_MODELS, 6), {}) for seed in range(1000)]
    calls += [((seed, _PACKAGED_MODELS, 150), {"dependency_p": 0.3})
              for seed in (3, 11, 29)]
    calls += [((seed, _PACKAGED_MODELS, 300), {"dependency_p": 0.3})
              for seed in (3, 11)]
    calls += [((11, _PACKAGED_MODELS, 40), {"dependency_p": 0.4})]
    calls += [((seed, _PACKAGED_MODELS, 40), {}) for seed in (1, 2)]
    calls += [((5, _PACKAGED_MODELS, 30), {})]
    calls += [((seed, ["vgg-19", "resnet-50", "bert-base"], 12), {})
              for seed in (7, 8)]
    calls += [((3, ("bert-base", "vgg-19"), 5), {}), ((1, [], 0), {})]
    assert _drawn_digest(calls) == (
        "574b3caba52773ce36c0c33c3a84c9df0d94b89ac5806ddbce095b157e749336")


@pytest.mark.parametrize("arguments, message", [
    ((1, "vgg-19", 2), "model_names must be"),        # once read as its characters
    ((1, {"vgg-19": 1}, 2), "model_names must be"),   # once read as its keys
    ((1, [1, 2], 2), "model_names must be"),
    ((1, None, 1), "model_names must be"),
    ((1, [], 3), "model_names must be"),              # once a raw IndexError
    ((1, ["vgg-19"], -2), "n_requests must be"),      # once an empty scenario
    ((1, ["vgg-19"], True), "n_requests must be"),    # once taken as 1
    ((1, ["vgg-19"], 2.0), "n_requests must be"),
    # None once seeded from the clock, a new scenario on every call
    ((None, ["vgg-19"], 2), "seed must be an integer, not None$"),
    ((True, ["vgg-19"], 2), "seed must be an integer, not True$"),
    ((1.5, ["vgg-19"], 2), "seed must be an integer, not 1.5$"),
    # 2.0 was once taken as certain
    ((1, ["vgg-19"], 2, 2.0), r"dependency_p must lie in \[0, 1\], not 2.0$"),
    ((1, ["vgg-19"], 2, -0.1),
     "dependency_p must be finite and >= 0, not -0.1$"),
    ((1, ["vgg-19"], 2, float("nan")),
     "dependency_p must be finite and >= 0, not nan$"),
    ((1, ["vgg-19"], 2, True), "dependency_p must be a number, not True$"),
    ((1, ["vgg-19"], 2, "x"), "dependency_p must be a number, not 'x'$"),
], ids=["names-str", "names-dict", "names-int", "names-none", "names-empty",
        "n-negative", "n-bool", "n-float", "seed-none", "seed-bool",
        "seed-float", "p-above-one", "p-negative", "p-nan", "p-bool", "p-str"])
def test_random_mix_refuses_bad_arguments(arguments, message):
    with pytest.raises(WorkloadError, match=f"^{message}"):
        random_mix(*arguments)


def test_random_mix_takes_any_collection_of_names():
    assert random_mix(1, [], 0).requests == ()
    assert (random_mix(3, {"vgg-19", "bert-base"}, 5)
            == random_mix(3, ("bert-base", "vgg-19"), 5))
