"""Scenario parsing, dependency handling, and the random generator."""

import graphlib
import json
import re
from fractions import Fraction

import pytest

from twillsim import presets, simulate
from twillsim.workload import (
    InferenceRequest,
    WorkloadError,
    WorkloadScenario,
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


@pytest.mark.parametrize("field,value", [
    ("priority", "high"), ("priority", 2.7), ("priority", True),
    ("workload_size", "4"), ("workload_size", 2.9), ("workload_size", False),
    ("arrival_ms", "0"), ("arrival_ms", None), ("arrival_ms", True),
    ("request_id", [1]), ("model", None), ("depends_on", "ab"),
    ("depends_on", ("b", 1)), ("depends_on", 5), ("depends_on", None),
    ("request_id", "a\udc80"), ("arrival_ms", Fraction(1, 2)),
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
