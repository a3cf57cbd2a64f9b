"""Discrete-event core: the control protocol, task accounting, and traces.

The simulation advances through decide cycles.  Each cycle is triggered
by controller-visible events at one timestamp (request arrivals, or
clusters freed by completions).  The policy returns mapping decisions
(MAP / MIGRATE / FREEZE / UNFREEZE); the engine applies them, samples
platform power before and after, and then gives the policy's frequency
governor one chance to adjust GPU clocks (SET_FREQ) at the same
timestamp.

Control actions are not free: every (re)mapping holds the task for a
control overhead before execution resumes, migrations pay an extra
transfer charge and restart the task from its last completed segment
boundary, and a frozen task pays the freeze cost on both ends when it
is thawed.  Power follows occupancy instantly, including during those
actuation holds.
"""

from __future__ import annotations

import csv
import heapq
import io
import itertools
import json
import math
import os
from collections.abc import Mapping
from enum import Enum
from typing import NamedTuple

from .hardware import (
    ClusterKind,
    ClusterState,
    PlatformError,
    PlatformSpec,
    initial_states,
    power_draw,
    set_frequency,
)
from .models import (
    AFFINITY_THRESHOLD,
    AppProfile,
    CompatibilityMatrix,
    SignatureMap,
    layer_affinity,
    parse_model,
    segment_fractions,
)
from .workload import InferenceRequest, WorkloadError, WorkloadScenario

CTRL_OVERHEAD_MS = 15.0
MIGRATION_OVERHEAD_MS = 30.0
FREEZE_OVERHEAD_MS = 10.0
# Slowdown applied to DLA-infeasible work when a whole model is pinned
# to the DLA and its unsupported layers fall back layer-by-layer.
DLA_FALLBACK_PENALTY = 8.0

_WORK_EPS = 1e-6


class EngineError(RuntimeError):
    """A protocol violation or an unrecoverable simulation state."""


class DecisionKind(Enum):
    MAP = "MAP"
    MIGRATE = "MIGRATE"
    FREEZE = "FREEZE"
    UNFREEZE = "UNFREEZE"
    SET_FREQ = "SET_FREQ"


class EventKind(Enum):
    ARRIVAL = "ARRIVAL"
    CLUSTER_FREED = "CLUSTER_FREED"


class ControllerEvent(NamedTuple):
    kind: EventKind
    request_id: str | None = None
    cluster_id: str | None = None


class Decision(NamedTuple):
    """One scheduling action.

    part/work_gflops/native support policies that split a request into
    separately-placed pieces: a MAP with a part label creates a task for
    just that slice of the request's work, and native marks a piece that
    runs on the DLA without any fallback penalty.
    """

    kind: DecisionKind
    request_id: str | None = None
    cluster_id: str | None = None
    level: int | None = None
    part: str | None = None
    work_gflops: float | None = None
    native: bool = False


class TaskState(Enum):
    PENDING = "pending"
    RUNNING = "running"
    FROZEN = "frozen"
    DONE = "done"


# The per-cycle code reads Enum members as these module globals: under
# CPython 3.11 the EnumType metaclass defines __getattr__, which puts
# every Kind.MEMBER lookup on a slow path, several times a global read.
_MAP, _MIGRATE = DecisionKind.MAP, DecisionKind.MIGRATE
_FREEZE, _UNFREEZE = DecisionKind.FREEZE, DecisionKind.UNFREEZE
_SET_FREQ = DecisionKind.SET_FREQ
_ARRIVAL, _FREED = EventKind.ARRIVAL, EventKind.CLUSTER_FREED
_PENDING, _RUNNING = TaskState.PENDING, TaskState.RUNNING
_FROZEN, _DONE = TaskState.FROZEN, TaskState.DONE
_GPU = ClusterKind.GPU


class TaskView(NamedTuple):
    """Read-only snapshot of one task, as shown to policies."""

    key: str
    request_id: str
    part: str | None
    model: str
    priority: int
    state: TaskState
    cluster_id: str | None
    started: bool
    work_gflops: float
    done_gflops: float
    arrival_ms: float
    preferred_kinds: tuple[str, ...]
    dla_fraction: float
    native: bool


_ABSENT = object()  # logged for a key the snapshot did not have


class TaskSnapshot(Mapping):
    """Read-only mapping of every task at one decide cycle, DONE tasks
    included, in creation order; it never changes once taken.

    Taking one costs O(tasks changed since the previous one), by
    reverse diffs (Baker's shallow binding): the newest snapshot reads
    the engine's live dict, and before the engine changes, adds or
    deletes a key it logs the key's old view and creation number into
    the newest snapshot's diff.  An older snapshot is the live dict
    with the diffs of itself and every newer snapshot undone; it is
    rebuilt once, on first use.  A held snapshot keeps every newer one,
    and so their diffs, alive.
    """

    __slots__ = ("_live", "_order", "_len", "_diff", "_newer", "_frozen")

    def __init__(self, live: dict[str, TaskView], order: dict[str, int]):
        self._live = live  # the engine's views, in creation order
        self._order = order  # the engine's key -> creation number
        self._len = len(live)
        self._diff: dict[str, tuple] = {}  # key -> (old view, number)
        self._newer: TaskSnapshot | None = None
        self._frozen: dict[str, TaskView] | None = None

    def _log(self, key: str):
        """Called before the engine changes `key` in the live dict."""
        if key not in self._diff:
            self._diff[key] = (self._live.get(key, _ABSENT),
                               self._order.get(key))

    def _contents(self) -> dict[str, TaskView]:
        if self._newer is None:  # the newest, which may still change
            return self._rebuild() if self._diff else self._live
        if self._frozen is None:
            self._frozen = self._rebuild()
        return self._frozen

    def _rebuild(self) -> dict[str, TaskView]:
        old: dict[str, tuple] = {}
        snap = self
        while snap is not None:
            for key, entry in snap._diff.items():
                old.setdefault(key, entry)  # the earliest change wins
            snap = snap._newer
        rows = [(self._order[k], k, v) for k, v in self._live.items()
                if k not in old]
        rows += [(n, k, v) for k, (v, n) in old.items() if v is not _ABSENT]
        rows.sort(key=lambda row: row[0])
        return {k: v for _, k, v in rows}

    def __getitem__(self, key: str) -> TaskView:
        if self._newer is not None:
            return self._contents()[key]
        entry = self._diff.get(key)
        if entry is None:
            return self._live[key]
        if entry[0] is _ABSENT:
            raise KeyError(key)
        return entry[0]

    def __iter__(self):
        return iter(self._contents())

    def __reversed__(self):
        return reversed(self._contents())

    def __len__(self) -> int:
        return self._len

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._contents()!r})"


class ControllerView(NamedTuple):
    """Snapshot handed to a policy at each decide cycle."""

    now: float
    platform: PlatformSpec
    states: dict[str, ClusterState]
    tasks: Mapping[str, TaskView]
    dla_fallback_penalty: float

    def cluster_kind(self, cluster_id: str) -> ClusterKind:
        return self.platform.cluster(cluster_id).kind

    def exec_rate(self, task_key: str, cluster_id: str) -> float:
        """Effective GFLOP/s for the task on that cluster at its current
        frequency level (fallback penalty included for whole models on
        the DLA)."""
        task = self.tasks[task_key]
        state = self.states[cluster_id]
        return effective_rate(state, task.dla_fraction, task.native,
                              self.dla_fallback_penalty)


def effective_rate(state: ClusterState, dla_fraction: float, native: bool,
                   penalty: float) -> float:
    """GFLOP/s the cluster delivers for a task at the current level."""
    spec = state.spec
    thr = spec.throughput_gflops[state.current_level]  # state.throughput
    if native or spec.kind is _GPU:
        return thr
    # whole model on the DLA: infeasible layers fall back with a penalty
    return thr / (dla_fraction + (1.0 - dla_fraction) * penalty)


class Policy:
    """Scheduling policy interface.

    decide() maps work in response to arrivals and freed clusters;
    dvfs_update() is the frequency governor, called once per cycle after
    mapping decisions are applied, with power samples from before and
    after.  Mapping decisions are only valid from decide(), SET_FREQ
    only from dvfs_update().
    """

    name = "policy"

    def decide(self, view: ControllerView,
               events: list[ControllerEvent]) -> list[Decision]:
        return []

    def dvfs_update(self, view: ControllerView, p_before_mw: float,
                    p_after_mw: float, handled_events: int) -> list[Decision]:
        return []


# ---------------------------------------------------------------------------
# trace records; a decision or request record's field order is its CSV
# column order


class DecisionRecord(NamedTuple):
    time_ms: float
    kind: str
    request_id: str | None
    part: str | None
    cluster_id: str | None
    level: int | None
    freq_mhz: float | None


class RequestRecord(NamedTuple):
    request_id: str
    model: str
    priority: int
    arrival_ms: float
    first_map_ms: float | None
    completed_ms: float | None
    waiting_ms: float | None
    latency_ms: float | None
    work_gflops: float


class PowerRecord(NamedTuple):
    time_ms: float
    power_mw: float
    freqs_mhz: tuple[float, ...]
    utils: tuple[float, ...]


class Trace:
    """What one run did, as the trace files record it."""

    def __init__(self, scenario: str, policy: str, platform: str,
                 tdp_mw: float, cluster_ids: tuple[str, ...]):
        self.scenario = scenario
        self.policy = policy
        self.platform = platform
        self.tdp_mw = tdp_mw
        self.cluster_ids = cluster_ids
        self.decisions: list[DecisionRecord] = []
        self.requests: list[RequestRecord] = []
        self.power: list[PowerRecord] = []

    @property
    def makespan_ms(self) -> float:
        return max((r.completed_ms for r in self.requests
                    if r.completed_ms is not None), default=0.0)

    def _power_totals(self, end: float, eps: float) -> tuple[float, float]:
        """Energy in mJ, and ms drawing more than tdp_mw + eps, of the
        power record clipped to [0, end]."""
        energy = over = 0  # an int 0 when no span counts, as sum() gave
        limit = self.tdp_mw + eps
        power = self.power
        for i, rec in enumerate(power, 1):
            hi = min(power[i].time_ms, end) if i < len(power) else end
            if hi > rec.time_ms:
                dt = hi - rec.time_ms
                energy += dt * rec.power_mw
                if rec.power_mw > limit:
                    over += dt
        return energy / 1000.0, over

    @property
    def energy_mj(self) -> float:
        return self._power_totals(self.makespan_ms, 1e-9)[0]

    def time_over_budget_ms(self, eps: float = 1e-9) -> float:
        return self._power_totals(self.makespan_ms, eps)[1]

    @property
    def violation_fraction(self) -> float:
        span = self.makespan_ms
        return self._power_totals(span, 1e-9)[1] / span if span > 0 else 0.0

    def waiting_by_priority(self) -> dict[int, dict[str, float]]:
        out: dict[int, dict[str, float]] = {}
        for prio in sorted({r.priority for r in self.requests}):
            waits = [r.waiting_ms for r in self.requests
                     if r.priority == prio and r.waiting_ms is not None]
            if waits:
                out[prio] = {
                    "avg_ms": sum(waits) / len(waits),
                    "max_ms": max(waits),
                    "count": len(waits),
                }
        return out

    def summary(self) -> dict:
        waits = [r.waiting_ms for r in self.requests if r.waiting_ms is not None]
        lats = [r.latency_ms for r in self.requests if r.latency_ms is not None]
        kinds: dict[str, int] = {}
        for d in self.decisions:
            kinds[d.kind] = kinds.get(d.kind, 0) + 1
        span = self.makespan_ms
        energy, over = self._power_totals(span, 1e-9)
        return {
            "scenario": self.scenario,
            "policy": self.policy,
            "platform": self.platform,
            "tdp_mw": self.tdp_mw,
            "makespan_ms": _r6(span),
            "energy_mj": _r6(energy),
            "time_over_budget_ms": _r6(over),
            "violation_fraction": _r6(over / span if span > 0 else 0.0),
            "total_waiting_ms": _r6(sum(waits)) if waits else 0.0,
            "avg_waiting_ms": _r6(sum(waits) / len(waits)) if waits else 0.0,
            "max_waiting_ms": _r6(max(waits)) if waits else 0.0,
            "avg_latency_ms": _r6(sum(lats) / len(lats)) if lats else 0.0,
            "decision_counts": {k: kinds[k] for k in sorted(kinds)},
            "waiting_by_priority": {
                str(p): {k: _r6(v) for k, v in stats.items()}
                for p, stats in self.waiting_by_priority().items()
            },
            "requests": [
                {
                    "request_id": r.request_id,
                    "model": r.model,
                    "priority": r.priority,
                    "arrival_ms": _r6(r.arrival_ms),
                    "first_map_ms": _r6(r.first_map_ms),
                    "completed_ms": _r6(r.completed_ms),
                    "waiting_ms": _r6(r.waiting_ms),
                    "latency_ms": _r6(r.latency_ms),
                    "work_gflops": _r6(r.work_gflops),
                }
                for r in self.requests
            ],
        }


def _r6(x):
    return round(x, 6) if isinstance(x, float) else x


# ---------------------------------------------------------------------------
# internal task bookkeeping


class _Task:
    """The engine's mutable record of one task: a whole request, or one
    part of it."""

    __slots__ = ("key", "request", "part", "profile", "signature", "work",
                 "native", "done", "rolled_back", "cluster_id", "frozen",
                 "frozen_on", "started", "completed", "resume_at",
                 "last_sync", "epoch", "first_map_ms", "completed_ms",
                 "completion_residual")

    def __init__(self, key: str, request: InferenceRequest, part: str | None,
                 profile: AppProfile, signature: SignatureMap, work: float,
                 native: bool):
        self.key = key
        self.request = request
        self.part = part
        self.profile = profile
        self.signature = signature
        self.work = work
        self.native = native
        self.done = 0.0
        self.rolled_back = 0.0
        self.cluster_id: str | None = None
        self.frozen = False
        self.frozen_on: str | None = None
        self.started = False
        self.completed = False
        self.resume_at = 0.0
        self.last_sync = 0.0
        self.epoch = 0
        self.first_map_ms: float | None = None
        self.completed_ms: float | None = None
        self.completion_residual = 0.0

    @property
    def state(self) -> TaskState:
        return (_DONE if self.completed else _FROZEN if self.frozen
                else _PENDING if self.cluster_id is None else _RUNNING)

    def view(self) -> TaskView:
        # tuple.__new__ skips the Python-level TaskView.__new__, and the
        # state property is inlined; the engine builds a view per changed
        # task per cycle
        request, signature = self.request, self.signature
        state = (_DONE if self.completed else _FROZEN if self.frozen
                 else _PENDING if self.cluster_id is None else _RUNNING)
        return tuple.__new__(TaskView, (
            self.key, request.request_id, self.part, self.profile.name,
            request.priority, state, self.cluster_id, self.started,
            self.work, self.done, request.arrival_ms,
            signature.preferred_clusters, signature.dla_flops_fraction,
            self.native))


def _task_key(request_id: str, part: str | None) -> str:
    return request_id if part is None else f"{request_id}#{part}"


_RANK_COMPLETION = 0
_RANK_ARRIVAL = 1


class Simulation:
    """One scenario run under one policy on one platform."""

    def __init__(self, platform: PlatformSpec, scenario: WorkloadScenario,
                 policy: Policy, descriptors: dict[str, str],
                 matrix: CompatibilityMatrix, *,
                 ctrl_overhead_ms: float = CTRL_OVERHEAD_MS,
                 migration_overhead_ms: float = MIGRATION_OVERHEAD_MS,
                 freeze_overhead_ms: float = FREEZE_OVERHEAD_MS,
                 dla_fallback_penalty: float = DLA_FALLBACK_PENALTY,
                 affinity_threshold: float = AFFINITY_THRESHOLD,
                 max_time_ms: float = 1e7):
        for name, value in (("ctrl_overhead_ms", ctrl_overhead_ms),
                            ("migration_overhead_ms", migration_overhead_ms),
                            ("freeze_overhead_ms", freeze_overhead_ms)):
            if not (math.isfinite(value) and value >= 0):
                raise PlatformError(f"{name} must be finite and non-negative, got {value}")
        if not (math.isfinite(dla_fallback_penalty) and dla_fallback_penalty >= 1):
            raise PlatformError(
                f"dla_fallback_penalty must be finite and at least 1, got {dla_fallback_penalty}")
        if not 0.0 <= affinity_threshold <= 1.0:
            raise PlatformError(
                f"affinity_threshold must lie in [0, 1], got {affinity_threshold}")
        if not max_time_ms > 0:  # a NaN would never cut a runaway off
            raise PlatformError(f"max_time_ms must be positive, got {max_time_ms}")
        self.platform = _apply_overrides(platform, scenario.platform_overrides)
        self.scenario = scenario
        self.policy = policy
        self.matrix = matrix
        self.ctrl_overhead_ms = ctrl_overhead_ms
        self.migration_overhead_ms = migration_overhead_ms
        self.freeze_overhead_ms = freeze_overhead_ms
        self.dla_fallback_penalty = dla_fallback_penalty
        self.max_time_ms = max_time_ms

        self.states = initial_states(self.platform)
        self.tasks: dict[str, _Task] = {}
        self._requests = {r.request_id: r for r in scenario.requests}
        # each descriptor is decoded and analysed once, by model name
        self._profiles: dict[str, AppProfile] = {}
        self._signatures: dict[str, SignatureMap] = {}
        for r in scenario.requests:
            if r.model not in descriptors:
                raise EngineError(f"no descriptor for model {r.model!r}")
            if r.model not in self._profiles:
                profile = self._profiles[r.model] = parse_model(
                    descriptors[r.model])
                self._signatures[r.model] = layer_affinity(
                    profile, matrix, threshold=affinity_threshold)
        # No request ends before its arrival plus its work at the top rate
        # of every cluster at once (a split request runs on several): past
        # the horizon, the input is at fault, not a policy.
        top_rate = sum(c.throughput_gflops[-1]
                       for c in self.platform.clusters) / 1000.0  # GFLOP/ms
        finish, rid = max(((r.arrival_ms + self._profiles[r.model].work_gflops(
            r.workload_size) / top_rate, r.request_id)
            for r in scenario.requests), default=(0.0, None))
        if finish > max_time_ms:
            raise WorkloadError(
                f"{rid}: cannot finish before {finish:.1f} ms, past the "
                f"simulation's {max_time_ms} ms horizon")

        self._heap: list[tuple] = []
        self._seq = 0
        self._ran = False
        self._completed_requests: set[str] = set()
        # indexes that keep each event's cost independent of how many
        # requests have already finished
        self._parts: dict[str, list[_Task]] = {}  # request id -> its tasks
        self._views: dict[str, TaskView] = {}  # in self.tasks order
        self._order: dict[str, int] = {}  # key -> creation number
        self._created = itertools.count()
        self._stale: set[str] = set()  # tasks changed since their view
        # the newest snapshot handed out, which logs each change to _views
        self._snapshot = TaskSnapshot(self._views, self._order)
        self._power_mw: float | None = None  # None: states changed since
        self._utils: dict[str, float] = {}  # what _power_mw was drawn at
        self._dependents: dict[str, list[str]] = {}  # producer -> requests
        self._pending_producers: dict[str, int] = {}
        for r in scenario.requests:
            producers = set(r.depends_on)
            self._pending_producers[r.request_id] = len(producers)
            for p in producers:
                self._dependents.setdefault(p, []).append(r.request_id)
        self.trace = Trace(
            scenario=scenario.name,
            policy=policy.name,
            platform=self.platform.name,
            tdp_mw=self.platform.tdp_mw,
            cluster_ids=tuple(c.cluster_id for c in self.platform.clusters),
        )

    # -- event plumbing ----------------------------------------------------

    def _push(self, time_ms: float, rank: int, kind: str, *payload):
        heapq.heappush(self._heap, (time_ms, rank, self._seq, kind, payload))
        self._seq += 1

    def _schedule_initial_arrivals(self):
        for r in self.scenario.requests:
            if not r.depends_on:
                self._push(r.arrival_ms, _RANK_ARRIVAL, "arrival", r.request_id)

    def _release_dependents(self, producer: str, now: float):
        """Schedule, in scenario order, the dependents of a request that
        just completed whose producers are now all complete."""
        for rid in self._dependents.get(producer, ()):
            self._pending_producers[rid] -= 1
            if self._pending_producers[rid] == 0:
                arrival_ms = self._requests[rid].arrival_ms
                self._push(max(now, arrival_ms), _RANK_ARRIVAL, "arrival", rid)

    # -- power -------------------------------------------------------------

    def _utilization(self) -> dict[str, float]:
        # an occupied cluster draws active power even during actuation
        # holds; frozen tasks have vacated their cluster entirely
        return {cid: 0.0 if st.occupant is None else 1.0
                for cid, st in self.states.items()}

    def _power(self) -> float:
        # computed once per change of cluster state (_occupy, _vacate,
        # _apply_set_freq), not per sample
        if self._power_mw is None:
            self._utils = self._utilization()
            self._power_mw = power_draw(self.platform, self.states,
                                        self._utils)
        return self._power_mw

    def _record_power(self, now: float):
        p = self._power()
        power = self.trace.power
        if power and power[-1].power_mw == p:
            return
        # states, like _utils, keep the platform's cluster order, which
        # is trace.cluster_ids
        power.append(tuple.__new__(PowerRecord, (
            now, p, tuple(st.freq_mhz for st in self.states.values()),
            tuple(self._utils.values()))))

    # -- task mechanics ----------------------------------------------------

    def _rate(self, task: _Task) -> float:
        """GFLOP/ms on the task's current cluster."""
        state = self.states[task.cluster_id]
        return effective_rate(state, task.signature.dla_flops_fraction,
                              task.native, self.dla_fallback_penalty) / 1000.0

    def _sync(self, task: _Task, now: float):
        if now > task.last_sync:
            if task.cluster_id is not None and not task.frozen:
                task.done += self._rate(task) * (now - task.last_sync)
                self._stale.add(task.key)
            task.last_sync = now

    def _sync_all(self, now: float):
        # only a task on a cluster makes progress; a pending or frozen
        # task gets a fresh last_sync when it is next mapped or thawed
        for st in self.states.values():
            if st.occupant is not None:
                self._sync(self.tasks[st.occupant], now)

    def _reschedule(self, task: _Task, now: float):
        task.epoch += 1
        if task.completed or task.frozen or task.cluster_id is None:
            return
        start = max(now, task.resume_at)
        remaining = max(0.0, task.work - task.done)
        t_done = start + remaining / self._rate(task)
        self._push(t_done, _RANK_COMPLETION, "completion", task.key, task.epoch)

    def _rollback_to_boundary(self, task: _Task):
        """Drop progress to the last completed segment boundary."""
        if task.work <= 0 or task.done <= 0:
            return
        frac = task.done / task.work
        best = 0.0
        for b in segment_fractions(task.profile, task.request.workload_size):
            if b <= frac + 1e-12:
                best = b
            else:
                break
        new_done = best * task.work
        task.rolled_back += task.done - new_done
        task.done = new_done

    def _spawn_task(self, request_id: str, part: str | None,
                    work: float | None, native: bool) -> _Task:
        key = _task_key(request_id, part)
        if key in self.tasks:
            raise EngineError(f"task {key!r} already exists")
        if work is not None and not (math.isfinite(work) and work >= 0):
            raise EngineError(f"{key}: work_gflops must be finite and "
                              f"non-negative, not {work!r}")
        parts = self._parts.setdefault(request_id, [])
        if part is not None:
            whole = self.tasks.get(request_id)
            if whole is not None:
                if whole.started or whole.frozen:
                    raise EngineError(
                        f"{request_id}: cannot split a request that already ran")
                del self.tasks[request_id]
                self._snapshot._log(request_id)
                del self._views[request_id]
                del self._order[request_id]
                self._stale.discard(request_id)
                parts.remove(whole)
            if work is None:
                raise EngineError(f"{key}: part decisions must carry work_gflops")
        request = self._requests[request_id]
        profile = self._profiles[request.model]
        total = profile.work_gflops(request.workload_size)
        task = _Task(key, request, part, profile,
                     self._signatures[request.model],
                     total if work is None else work, native)
        mapped = sum(t.work for t in parts)
        if mapped + task.work > total + _WORK_EPS:
            raise EngineError(
                f"{key}: parts exceed the request's total work "
                f"({mapped + task.work:.6f} > {total:.6f} GFLOPs)")
        self.tasks[key] = task
        self._snapshot._log(key)
        self._order[key] = next(self._created)
        self._views[key] = task.view()
        parts.append(task)
        return task

    # -- decision application ----------------------------------------------

    def _require_free(self, cluster_id: str | None) -> str:
        if cluster_id is None:
            raise EngineError("mapping decision without a target cluster")
        state = self.states.get(cluster_id)
        if state is None:
            raise EngineError(f"unknown cluster {cluster_id!r}")
        if state.occupant is not None:
            raise EngineError(f"cluster {cluster_id} is occupied by {state.occupant}")
        return cluster_id

    def _occupy(self, task: _Task, cluster_id: str):
        state = self.states[cluster_id]
        self.states[cluster_id] = ClusterState(state.spec, state.current_level,
                                               task.key)
        self._power_mw = None
        task.cluster_id = cluster_id

    def _vacate(self, task: _Task):
        if task.cluster_id is not None:
            state = self.states[task.cluster_id]
            self.states[task.cluster_id] = ClusterState(
                state.spec, state.current_level, None)
            self._power_mw = None
            task.cluster_id = None

    def _apply_decision(self, d: Decision, now: float, acted: set[str]):
        if d.kind is _SET_FREQ:
            raise EngineError("SET_FREQ is only valid from dvfs_update()")
        key = _task_key(d.request_id, d.part)
        task = self.tasks.get(key)
        if task is None:
            if d.kind is not _MAP:
                raise EngineError(f"decision names unknown task {key!r}")
            if d.request_id not in self._parts:
                raise EngineError(
                    f"{key}: MAP for request {d.request_id!r}, which has not arrived")
            task = self._spawn_task(d.request_id, d.part, d.work_gflops,
                                    d.native)
        if key in acted:
            raise EngineError(f"{key}: two decisions in one cycle")

        if d.kind is _MAP:
            if task.started or task.frozen or task.cluster_id is not None:
                raise EngineError(f"{task.key}: MAP on a task that already ran")
            self._require_free(d.cluster_id)
            self._occupy(task, d.cluster_id)
            task.started = True
            task.resume_at = now + self.ctrl_overhead_ms
            task.last_sync = task.resume_at
            if task.first_map_ms is None:
                task.first_map_ms = now
            self._reschedule(task, now)

        elif d.kind is _MIGRATE:
            if task.state is not _RUNNING:
                raise EngineError(f"{task.key}: MIGRATE on a task that is not running")
            if d.cluster_id == task.cluster_id:
                raise EngineError(f"{task.key}: MIGRATE onto its own cluster")
            self._require_free(d.cluster_id)
            self._sync(task, now)
            self._vacate(task)
            self._rollback_to_boundary(task)
            self._occupy(task, d.cluster_id)
            task.resume_at = now + self.ctrl_overhead_ms + self.migration_overhead_ms
            task.last_sync = task.resume_at
            self._reschedule(task, now)

        elif d.kind is _FREEZE:
            if task.frozen or task.completed:
                raise EngineError(f"{task.key}: FREEZE on a {task.state.value} task")
            if task.started:
                self._sync(task, now)
                task.frozen_on = task.cluster_id
                self._vacate(task)
                # log the vacated cluster, whatever the policy filled in
                d = d._replace(cluster_id=task.frozen_on)
            # a never-started task may be frozen too: that is deferred
            # admission straight into the thaw queue, with no charge
            task.frozen = True
            task.epoch += 1

        elif d.kind is _UNFREEZE:
            if not task.frozen:
                raise EngineError(f"{task.key}: UNFREEZE on a task that is not frozen")
            self._require_free(d.cluster_id)
            task.frozen = False
            self._occupy(task, d.cluster_id)
            if not task.started:
                # deferred admission: charged like, and counted as, a MAP
                task.started = True
                task.resume_at = now + self.ctrl_overhead_ms
                if task.first_map_ms is None:
                    task.first_map_ms = now
            else:
                # the freeze charge was deferred to the thaw: pay both
                # ends now, on top of the control overhead
                task.resume_at = (now + self.ctrl_overhead_ms
                                  + 2.0 * self.freeze_overhead_ms)
                if d.cluster_id != task.frozen_on:
                    self._rollback_to_boundary(task)
            task.frozen_on = None
            task.last_sync = task.resume_at
            self._reschedule(task, now)

        else:  # pragma: no cover - enum is exhaustive
            raise EngineError(f"unknown decision kind {d.kind}")

        acted.add(task.key)
        self._stale.add(task.key)
        self._log_decision(d, now)

    def _apply_set_freq(self, d: Decision, now: float):
        if d.kind is not _SET_FREQ:
            raise EngineError("dvfs_update() may only emit SET_FREQ decisions")
        if d.cluster_id is None or d.level is None:
            raise EngineError("SET_FREQ needs cluster_id and level")
        state = self.states.get(d.cluster_id)
        if state is None:
            raise EngineError(f"unknown cluster {d.cluster_id!r}")
        if d.level == state.current_level:
            return
        occupant = self.tasks.get(state.occupant) if state.occupant else None
        if occupant is not None:
            self._sync(occupant, now)
        self.states[d.cluster_id] = set_frequency(state, d.level)
        self._power_mw = None
        if occupant is not None:
            self._reschedule(occupant, now)
        self._log_decision(d, now)

    def _log_decision(self, d: Decision, now: float):
        freq = None
        if d.kind is _SET_FREQ:
            freq = self.states[d.cluster_id].freq_mhz
        self.trace.decisions.append(tuple.__new__(DecisionRecord, (
            # _value_ is .value without the property call
            now, d.kind._value_, d.request_id, d.part, d.cluster_id,
            d.level, freq)))

    # -- completion handling -------------------------------------------------

    def _finish_task(self, task: _Task, now: float) -> str | None:
        self._sync(task, now)
        # the completion event time is computed analytically; the done
        # counter is integrated incrementally across every rate change.
        # Their agreement is the work-conservation invariant.
        task.completion_residual = task.done - task.work
        # written so that a NaN residual fails it too
        if not abs(task.completion_residual) <= _WORK_EPS * max(1.0, task.work):
            raise EngineError(
                f"{task.key}: completion fired with {task.done:.9f} of "
                f"{task.work:.9f} GFLOPs done")
        task.done = task.work
        task.completed = True
        task.completed_ms = now
        freed = task.cluster_id
        self._vacate(task)
        self._snapshot._log(task.key)
        self._views[task.key] = task.view()  # final: a DONE task never changes
        self._stale.discard(task.key)
        return freed

    def _request_complete(self, request_id: str) -> bool:
        parts = self._parts[request_id]
        if not all(t.completed for t in parts):
            return False
        r = self._requests[request_id]
        total = self._profiles[r.model].work_gflops(r.workload_size)
        return sum(t.work for t in parts) >= total - _WORK_EPS * max(1.0, total)

    # -- main loop -----------------------------------------------------------

    def run(self) -> Trace:
        if self._ran:
            raise EngineError("a Simulation can only run once; build a new one")
        self._ran = True
        self._schedule_initial_arrivals()
        self._record_power(0.0)

        heap = self._heap
        while heap:
            now, rank = heap[0][0], heap[0][1]
            if now > self.max_time_ms:
                raise EngineError(
                    f"simulation ran past {self.max_time_ms} ms; "
                    "likely a stuck policy")
            batch = []
            while heap and heap[0][0] == now and heap[0][1] == rank:
                batch.append(heapq.heappop(heap))
            if not batch:
                # a time that never equals itself (NaN) would spin forever
                raise EngineError(f"event loop made no progress at t={now}")

            events: list[ControllerEvent] = []
            for _, _, _, kind, payload in batch:
                if kind == "completion":
                    key, epoch = payload
                    task = self.tasks[key]
                    if task.epoch != epoch or task.completed:
                        continue  # superseded by a later decision
                    freed = self._finish_task(task, now)
                    rid = task.request.request_id
                    if (rid not in self._completed_requests
                            and self._request_complete(rid)):
                        self._completed_requests.add(rid)
                        self._release_dependents(rid, now)
                    if freed is not None:
                        events.append(tuple.__new__(ControllerEvent, (
                            _FREED, None, freed)))
                elif kind == "arrival":
                    (request_id,) = payload
                    self._spawn_task(request_id, None, None, False)
                    events.append(tuple.__new__(ControllerEvent, (
                        _ARRIVAL, request_id, None)))

            if not events:
                continue
            self._sync_all(now)
            p_before = self._power()
            decisions = self.policy.decide(self._view(now), events)
            acted: set[str] = set()
            for d in decisions:
                self._apply_decision(d, now, acted)
            p_after = self._power()
            freq_decisions = self.policy.dvfs_update(
                self._view(now), p_before, p_after, len(events))
            for d in freq_decisions:
                self._apply_set_freq(d, now)
            self._record_power(now)

        self._check_drained()
        self._finalize_trace()
        return self.trace

    def _view(self, now: float) -> ControllerView:
        log = self._snapshot._log
        for key in self._stale:
            log(key)
            self._views[key] = self.tasks[key].view()
        self._stale.clear()
        snapshot = TaskSnapshot(self._views, self._order)
        self._snapshot._newer = snapshot
        self._snapshot = snapshot
        return tuple.__new__(ControllerView, (
            now, self.platform, dict(self.states), snapshot,
            self.dla_fallback_penalty))

    def _check_drained(self):
        stuck = []
        for r in self.scenario.requests:
            if r.request_id in self._completed_requests:
                continue
            parts = self._parts.get(r.request_id)
            if not parts:
                state = ("never released (waiting on "
                         f"{[d for d in r.depends_on if d not in self._completed_requests]})")
            else:
                state = ", ".join(f"{t.key}:{t.state.value}" for t in parts)
            stuck.append(f"{r.request_id} [{state}]")
        if stuck:
            raise EngineError(
                "event queue drained with unfinished requests: "
                + "; ".join(stuck))

    def _finalize_trace(self):
        for r in self.scenario.requests:
            parts = self._parts.get(r.request_id, [])
            first_map = min((t.first_map_ms for t in parts
                             if t.first_map_ms is not None), default=None)
            completed = max((t.completed_ms for t in parts), default=None) \
                if all(t.completed for t in parts) and parts else None
            arrival = r.arrival_ms
            self.trace.requests.append(tuple.__new__(RequestRecord, (
                r.request_id, r.model, r.priority, arrival, first_map,
                completed,
                None if first_map is None else first_map - arrival,
                None if completed is None else completed - arrival,
                self._profiles[r.model].work_gflops(r.workload_size))))

    # -- invariant helpers (used by tests) -----------------------------------

    def conservation_error(self) -> float:
        """Worst relative disagreement between incrementally integrated
        progress and the analytically computed completion times."""
        return max((abs(t.completion_residual) / max(1.0, t.work)
                    for t in self.tasks.values() if t.completed), default=0.0)

    def rolled_back_gflops(self) -> float:
        """Total work discarded by segment-boundary rollbacks."""
        return sum(t.rolled_back for t in self.tasks.values())


def _apply_overrides(platform: PlatformSpec, overrides: dict) -> PlatformSpec:
    if not overrides:
        return platform
    # through the constructor, which checks the new values; _replace
    # would not
    return PlatformSpec(**{**platform._asdict(), **overrides})


# ---------------------------------------------------------------------------
# trace serialization

# A float cell is written with six decimals.  csv.writer already writes
# None as "" and an int or str as str(v), so a column the engine fills
# with one known type is formatted without testing each cell.

def _table(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _cell(v):
    return f"{v:.6f}" if isinstance(v, float) else v


def decisions_csv(trace: Trace) -> str:
    # time_ms is the engine's float clock and kind a DecisionKind name;
    # request_id, part, cluster_id and level are a policy's values
    return _table(DecisionRecord._fields, [
        (f"{t:.6f}", kind, _cell(rid), _cell(part), _cell(cid), _cell(level),
         _cell(freq))
        for t, kind, rid, part, cid, level, freq in trace.decisions])


def _f6(v: float | None) -> str:
    return "" if v is None else f"{v:.6f}"


def requests_csv(trace: Trace) -> str:
    return _table(RequestRecord._fields, [
        (rid, model, prio, f"{arrival:.6f}", _f6(first_map), _f6(completed),
         _f6(waiting), _f6(latency), f"{work:.6f}")
        for rid, model, prio, arrival, first_map, completed, waiting,
        latency, work in trace.requests])


def power_csv(trace: Trace) -> str:
    header = ["time_ms", "power_mw"]
    for cid in trace.cluster_ids:
        header += [f"{cid}_freq_mhz", f"{cid}_util"]
    rows = []
    for p in trace.power:
        row = [p.time_ms, p.power_mw]
        for f, u in zip(p.freqs_mhz, p.utils):
            row += [f, u]
        rows.append([_cell(v) for v in row])
    return _table(header, rows)


# An indented dump runs json's pure-Python encoder.  The request entries
# hold only scalars, so the C encoder renders them in the same bytes
# when its item separator carries the newline and the entry indent; the
# list's own breaks are then put in where one entry ends and the next
# begins.  That is the only place "},\n      {" can occur: an encoded
# string holds no raw newline.
_encode_entries = json.JSONEncoder(
    sort_keys=True, separators=(",\n      ", ": ")).encode


def summary_json(trace: Trace) -> str:
    """json.dumps(trace.summary(), indent=2, sort_keys=True) + "\\n"."""
    doc = trace.summary()
    entries, doc["requests"] = doc["requests"], []
    text = json.dumps(doc, indent=2, sort_keys=True)
    if entries:
        body = _encode_entries(entries)[2:-2].replace(
            "},\n      {", "\n    },\n    {\n      ")
        # only a top-level key sits two spaces in from a line start
        text = text.replace(
            '\n  "requests": []',
            '\n  "requests": [\n    {\n      ' + body + "\n    }\n  ]", 1)
    return text + "\n"


# the files write_trace writes, by name
_TRACE_FILES = {
    "decisions.csv": decisions_csv,
    "requests.csv": requests_csv,
    "power.csv": power_csv,
    "summary.json": summary_json,
}


def write_trace(trace: Trace, out_dir) -> None:
    """Write decisions.csv, requests.csv, power.csv and summary.json."""
    _write_files(out_dir, {name: serialise(trace)
                           for name, serialise in _TRACE_FILES.items()})


def _write_files(out_dir, texts: dict[str, str]) -> None:
    """Write each text as UTF-8 to the file of its name under out_dir.

    Every text is encoded before any file is opened, so a text that
    cannot be encoded leaves all the files as they were.  An existing
    file is rewritten in place and then cut to the new length: on ext4,
    closing a non-empty file that was truncated to zero starts its
    writeback, which costs several times the write itself.  The file
    keeps its inode, links and mode, and a symlink is followed.  A file
    whose write fails is cut to zero, so that no new head sits on an old
    tail.  Nothing is synced to disk.
    """
    blobs = [(name, text.encode()) for name, text in texts.items()]
    os.makedirs(out_dir, exist_ok=True)
    for name, blob in blobs:
        fd = os.open(os.path.join(out_dir, name), os.O_WRONLY | os.O_CREAT,
                     0o666)
        try:
            view = memoryview(blob)
            while view:
                view = view[os.write(fd, view):]
            os.ftruncate(fd, len(blob))
        except OSError:
            os.ftruncate(fd, 0)
            raise
        finally:
            os.close(fd)
