"""Workload scenarios: timed inference requests with optional dependencies.

A scenario is a list of requests, each naming a model from the library,
a priority, an arrival time, and a workload size (images for batch DNNs,
tokens for transformer work).  Requests may depend on other requests;
a dependent request is released only once all of its producers have
completed, never before its own arrival time.
"""

from __future__ import annotations

import graphlib
import json
import math
import numbers
import random
from collections import namedtuple


# PlatformSpec fields a scenario may override
PLATFORM_OVERRIDE_KEYS = ("tdp_mw", "base_power_mw")


class WorkloadError(ValueError):
    """Raised for malformed or inconsistent scenario files."""


class InferenceRequest(namedtuple("InferenceRequest", (
        "request_id", "model", "priority", "arrival_ms", "workload_size",
        "depends_on"))):
    __slots__ = ()

    def __new__(cls, request_id: str, model: str, priority: int,
                arrival_ms: float, workload_size: int,
                depends_on: tuple[str, ...] = ()):
        if not isinstance(request_id, str):
            raise WorkloadError(
                f"request_id must be a string, not {request_id!r}")
        # the id is written into the trace files as UTF-8; a lone
        # surrogate, which JSON can spell, would fail only then
        try:
            request_id.encode()
        except UnicodeEncodeError:
            raise WorkloadError(
                f"request_id must be UTF-8 text, not {request_id!r}") from None
        if not isinstance(model, str):
            raise WorkloadError(
                f"{request_id}: model must be a string, not {model!r}")
        for name, value in (("priority", priority),
                            ("workload_size", workload_size)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise WorkloadError(
                    f"{request_id}: {name} must be an integer, not {value!r}")
        # float and int first: they are Real, and the ABC check is slow
        if isinstance(arrival_ms, bool) or not isinstance(
                arrival_ms, (float, int, numbers.Real)):
            raise WorkloadError(
                f"{request_id}: arrival_ms must be a number, not {arrival_ms!r}")
        # an int arrival would be written as "0", not "0.000000", in the trace
        arrival = float(arrival_ms)
        if priority < 1:
            raise WorkloadError(f"{request_id}: priority must be >= 1")
        if not math.isfinite(arrival):
            raise WorkloadError(f"{request_id}: arrival time must be finite")
        if arrival < 0:
            raise WorkloadError(f"{request_id}: negative arrival time")
        if workload_size <= 0:
            raise WorkloadError(f"{request_id}: workload_size must be positive")
        # a string would be read as its characters, one id per character
        deps = depends_on
        if not isinstance(deps, str):
            try:
                deps = tuple(deps)
            except TypeError as e:
                raise WorkloadError(
                    f"{request_id}: depends_on must be a list of request "
                    f"ids, not {depends_on!r} ({e})") from None
        if isinstance(deps, str) or (
                deps and not all(isinstance(d, str) for d in deps)):
            raise WorkloadError(f"{request_id}: depends_on must be a list "
                                f"of request ids, not {depends_on!r}")
        # not super().__new__: that is one more Python call per request
        return tuple.__new__(cls, (request_id, model, priority, arrival,
                                   workload_size, deps))


class WorkloadScenario(namedtuple("WorkloadScenario",
                                  ("name", "requests", "platform_overrides"))):
    __slots__ = ()

    def __new__(cls, name: str, requests: tuple[InferenceRequest, ...],
                platform_overrides=()):
        if not isinstance(name, str):
            raise WorkloadError(
                f"scenario name must be a string, not {name!r}")
        # converted once, here, for every way a scenario is made; the
        # default () is read as no overrides
        try:
            overrides = {k: _override(k, v)
                         for k, v in dict(platform_overrides).items()}
        except (TypeError, ValueError) as e:
            raise WorkloadError(
                f"scenario field 'platform_overrides' is malformed: {e}") from None
        unknown = sorted(set(overrides) - set(PLATFORM_OVERRIDE_KEYS))
        if unknown:
            raise WorkloadError(
                f"unknown platform overrides {unknown}; expected any of "
                f"{', '.join(PLATFORM_OVERRIDE_KEYS)}")
        requests = tuple(requests)
        ids = [r.request_id for r in requests]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise WorkloadError(f"duplicate request ids: {dup}")
        _check_dag(requests)
        return super().__new__(cls, name, requests, overrides)


def _override(key, value) -> float:
    # Python counts True as 1: a JSON true would become a 1 mW budget
    if isinstance(value, bool):
        raise TypeError(f"{key!r} must be a number, not {value!r}")
    return float(value)


def _check_dag(requests: tuple[InferenceRequest, ...]) -> None:
    ids = {r.request_id for r in requests}
    waiting: dict[str, int] = {}  # request id -> producers not yet ordered
    consumers: dict[str, list[str]] = {}
    for r in requests:
        for dep in r.depends_on:
            if dep not in ids:
                raise WorkloadError(
                    f"{r.request_id}: depends on unknown request {dep!r}")
            if dep == r.request_id:
                raise WorkloadError(f"{r.request_id}: depends on itself")
        if r.depends_on:
            producers = set(r.depends_on)
            waiting[r.request_id] = len(producers)
            for dep in producers:
                consumers.setdefault(dep, []).append(r.request_id)
    # Kahn's algorithm: order every request whose producers are ordered
    ordered = [r.request_id for r in requests if r.request_id not in waiting]
    for rid in ordered:  # grows as it goes
        for consumer in consumers.get(rid, ()):
            waiting[consumer] -= 1
            if not waiting[consumer]:
                ordered.append(consumer)
    if len(ordered) < len(requests):
        # graphlib's pure-Python sorter only to name the cycle it finds
        graph = {r.request_id: set(r.depends_on) for r in requests}
        try:
            tuple(graphlib.TopologicalSorter(graph).static_order())
        except graphlib.CycleError as e:
            raise WorkloadError(f"dependency cycle: {e.args[1]}") from None


def load_mix(text: str, known_models=None) -> WorkloadScenario:
    """Parse a scenario/mix JSON document.

    known_models, when given, is the set of loadable model names; any
    request naming a model outside it is an error at load time rather
    than at simulation time.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise WorkloadError(f"scenario is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise WorkloadError(f"scenario must be a JSON object, not {type(doc).__name__}")
    if "requests" not in doc:
        raise WorkloadError("scenario missing field 'requests'")
    if not isinstance(doc["requests"], list):
        raise WorkloadError("scenario field 'requests' must be a list")
    requests = []
    counters: dict[str, int] = {}
    try:
        for entry in doc["requests"]:
            model = entry["model"]
            n = counters.get(model, 0)
            counters[model] = n + 1
            requests.append(InferenceRequest(
                entry["id"] if "id" in entry else f"{model}-{n}", model,
                entry["priority"], entry["arrival_ms"],
                entry["workload_size"], entry.get("depends_on", ())))
        if known_models is not None:
            unknown = sorted({r.model for r in requests} - set(known_models))
            if unknown:
                raise WorkloadError(f"unknown models: {unknown}")
        return WorkloadScenario(
            name=doc.get("name", "unnamed"),
            requests=tuple(requests),
            platform_overrides=doc.get("platform_overrides", {}),
        )
    except KeyError as e:
        raise WorkloadError(f"request entry missing field {e.args[0]!r}") from None
    except WorkloadError:
        raise
    except (TypeError, ValueError) as e:
        raise WorkloadError(f"request entry has a malformed field: {e}") from None


def random_mix(seed: int, model_names, n_requests: int, horizon_ms: float = 500.0,
               size_range: tuple[int, int] = (1, 6), max_priority: int = 3,
               dependency_p: float = 0.15) -> WorkloadScenario:
    """Generate a small reproducible scenario for property testing."""
    rng = random.Random(seed)
    names = sorted(model_names)
    requests = []
    for i in range(n_requests):
        deps = ()
        if requests and rng.random() < dependency_p:
            deps = (rng.choice(requests).request_id,)
        model = rng.choice(names)
        requests.append(InferenceRequest(
            request_id=f"r{i}-{model}",
            model=model,
            priority=rng.randint(1, max_priority),
            arrival_ms=round(rng.uniform(0.0, horizon_ms), 1),
            workload_size=rng.randint(*size_range),
            depends_on=deps,
        ))
    return WorkloadScenario(name=f"random-{seed}", requests=tuple(requests))
