"""Workload scenarios: timed inference requests with optional dependencies.

A scenario is a list of requests, each naming a model from the library,
a priority, an arrival time, and a workload size (images for batch DNNs,
tokens for transformer work).  Requests may depend on other requests;
a dependent request is released only once all of its producers have
completed, never before its own arrival time.
"""

from __future__ import annotations

from collections import namedtuple

from ._fields import document, integer, reading, real, text_id


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
        text_id(request_id, "request_id", WorkloadError)
        if not isinstance(model, str):
            raise WorkloadError(
                f"{request_id}: model must be a string, not {model!r}")
        priority = integer(priority, f"{request_id}: priority", WorkloadError,
                           lo=1)
        # a float, so an int arrival is written as "0.000000" in the trace
        arrival = real(arrival_ms, f"{request_id}: arrival_ms", WorkloadError,
                       lo=0)
        workload_size = integer(workload_size, f"{request_id}: workload_size",
                                WorkloadError, lo=1)
        # a list or a tuple, as _fields.integers takes: a string or an
        # object would be read as its characters or its keys
        if not isinstance(depends_on, (list, tuple)) or (
                depends_on and not all(isinstance(d, str) for d in depends_on)):
            raise WorkloadError(f"{request_id}: depends_on must be a list "
                                f"of request ids, not {depends_on!r}")
        deps = tuple(depends_on)
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
        # read once, here, for every way a scenario is made; the default
        # () is read as no overrides, and the board checks its own bounds
        try:
            overrides = dict(platform_overrides)
        except (TypeError, ValueError) as e:
            raise WorkloadError(
                f"scenario field 'platform_overrides' is malformed: {e}") from None
        overrides = {k: real(v, f"platform_overrides: {k!r}", WorkloadError,
                             lo=0) for k, v in overrides.items()}
        unknown = sorted(set(overrides) - set(PLATFORM_OVERRIDE_KEYS))
        if unknown:
            raise WorkloadError(
                f"unknown platform overrides {unknown}; expected any of "
                f"{', '.join(PLATFORM_OVERRIDE_KEYS)}")
        requests = tuple(requests)
        ids = {r.request_id for r in requests}
        if len(ids) != len(requests):
            listed = [r.request_id for r in requests]
            dup = sorted({i for i in listed if listed.count(i) > 1})
            raise WorkloadError(f"duplicate request ids: {dup}")
        _check_dag(requests, ids)
        return super().__new__(cls, name, requests, overrides)


def dependency_index(requests) -> tuple[dict[str, list[str]], dict[str, int]]:
    """The consumers of each producer, in scenario order, and each
    dependent request's count of distinct producers: a producer listed
    twice counts once, and an independent request is in neither dict."""
    consumers: dict[str, list[str]] = {}
    producers: dict[str, int] = {}
    for r in requests:
        if r.depends_on:
            distinct = dict.fromkeys(r.depends_on)
            producers[r.request_id] = len(distinct)
            for dep in distinct:
                consumers.setdefault(dep, []).append(r.request_id)
    return consumers, producers


def dependency_order(requests, consumers: dict[str, list[str]],
                     producers: dict[str, int]) -> list[str]:
    """Kahn's algorithm on dependency_index(requests): the request ids,
    each after all of its producers, the independent ones first in
    scenario order.  A request on a cycle, or behind one, is left out."""
    waiting = dict(producers)  # each request's producers not yet listed
    ordered = [r.request_id for r in requests if r.request_id not in waiting]
    for rid in ordered:  # grows as it goes
        for consumer in consumers.get(rid, ()):
            waiting[consumer] -= 1
            if not waiting[consumer]:
                ordered.append(consumer)
    return ordered


def _check_dag(requests: tuple[InferenceRequest, ...], ids: set[str]) -> None:
    for r in requests:
        for dep in r.depends_on:
            if dep not in ids:
                raise WorkloadError(
                    f"{r.request_id}: depends on unknown request {dep!r}")
            if dep == r.request_id:
                raise WorkloadError(f"{r.request_id}: depends on itself")
    ordered = dependency_order(requests, *dependency_index(requests))
    if len(ordered) < len(requests):
        # graphlib's pure-Python sorter only to name the cycle it finds,
        # imported here so that an import of the package skips it
        import graphlib
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
    doc = document(text, "scenario", WorkloadError)
    with reading("scenario", WorkloadError):
        entries = doc["requests"]
    if not isinstance(entries, list):
        raise WorkloadError("scenario field 'requests' must be a list")
    requests = []
    counters: dict[str, int] = {}
    with reading("request entry", WorkloadError):
        for entry in entries:
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


def random_mix(seed: int, model_names, n_requests: int,
               dependency_p: float = 0.15) -> WorkloadScenario:
    """Generate a small reproducible scenario for property testing:
    arrivals drawn in [0, 500) ms and rounded to 0.1 ms, sizes 1 to 6
    and priorities 1 to 3, each request after the first depending on
    an earlier one with probability dependency_p."""
    # an int: random.Random(None) would seed from the clock
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise WorkloadError(f"seed must be an integer, not {seed!r}")
    dependency_p = real(dependency_p, "dependency_p", WorkloadError, lo=0)
    if dependency_p > 1:
        raise WorkloadError(
            f"dependency_p must lie in [0, 1], not {dependency_p!r}")
    n_requests = integer(n_requests, "n_requests", WorkloadError, lo=0)
    # a string would be read as its characters, a mapping as its keys
    if (not isinstance(model_names, (list, tuple, set, frozenset))
            or not all(isinstance(m, str) for m in model_names)
            or (n_requests and not model_names)):
        raise WorkloadError(
            f"model_names must be a list, tuple or set of model names, "
            f"with one at least when n_requests > 0, not {model_names!r}")
    import random  # only here, so that an import of the package skips it
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
            priority=rng.randint(1, 3),
            arrival_ms=round(rng.uniform(0.0, 500.0), 1),
            workload_size=rng.randint(1, 6),
            depends_on=deps,
        ))
    return WorkloadScenario(name=f"random-{seed}", requests=tuple(requests))
