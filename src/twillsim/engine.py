"""Discrete-event core: the event loop and its task accounting.

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

import heapq
import itertools
from collections.abc import Mapping

from ._fields import real
from .hardware import (
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
# the Enum members as module globals (see policy.py)
from .policy import (
    _ARRIVAL,
    _DONE,
    _FREED,
    _FREEZE,
    _FROZEN,
    _MAP,
    _MIGRATE,
    _PENDING,
    _RUNNING,
    _SET_FREQ,
    _UNFREEZE,
    ControllerEvent,
    ControllerView,
    Decision,
    Policy,
    TaskState,
    TaskView,
    effective_rate,
)
from .trace import DecisionRecord, PowerRecord, RequestRecord, Trace
from .workload import (InferenceRequest, WorkloadError, WorkloadScenario,
                       dependency_index, dependency_order)

CTRL_OVERHEAD_MS = 15.0
MIGRATION_OVERHEAD_MS = 30.0
FREEZE_OVERHEAD_MS = 10.0
# Slowdown applied to DLA-infeasible work when a whole model is pinned
# to the DLA and its unsupported layers fall back layer-by-layer.
DLA_FALLBACK_PENALTY = 8.0

_WORK_EPS = 1e-6


class EngineError(RuntimeError):
    """A protocol violation or an unrecoverable simulation state."""


_ABSENT = object()  # logged for a key the snapshot did not have
_NO_ITEM = object()  # no item taken yet from what a policy returned


class TaskSnapshot(Mapping):
    """Read-only mapping of every task at one decide cycle, DONE tasks
    included, in creation order; it never changes once taken.

    Taking one costs O(1), by reverse diffs (Baker's shallow binding):
    the newest snapshot reads the engine's live dict, and before the
    engine changes, adds or deletes a key it logs the key's old view
    and creation number into the newest snapshot's diff, so the diff is
    paid once per change.  An older snapshot is the live dict with the
    diffs of itself and every newer snapshot undone; it is rebuilt
    once, on first use.  A held snapshot keeps every newer one, and so
    their diffs, alive.
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


# ---------------------------------------------------------------------------
# internal task bookkeeping


class _Task:
    """The engine's mutable record of one task: a whole request, or one
    part of it.

    `rate` is the task's GFLOP/ms on its cluster: state, like the
    engine's per-cluster utilization, kept by `_occupy`, `_vacate` and
    `_apply_set_freq`, the only writers of the cluster states (the
    fallback penalty is fixed for a Simulation).  A task off any
    cluster does not read it.

    A task is on a cluster (`cluster_id` set) exactly when it is
    RUNNING: freezing and completing vacate it, and only MAP, MIGRATE
    and UNFREEZE place it.  So a started task that is neither frozen
    nor done is on a cluster, and a completion that is still current
    finds its task there.
    """

    __slots__ = ("key", "request", "part", "profile", "signature", "work",
                 "native", "done", "rolled_back", "cluster_id", "frozen",
                 "frozen_on", "started", "completed", "resume_at",
                 "last_sync", "epoch", "first_map_ms", "completed_ms",
                 "completion_residual", "rate")

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
        self.rate = 0.0

    @property
    def state(self) -> TaskState:
        return (_DONE if self.completed else _FROZEN if self.frozen
                else _PENDING if self.cluster_id is None else _RUNNING)

    def view(self) -> TaskView:
        # tuple.__new__ skips the Python-level TaskView.__new__, and the
        # state property is inlined; the engine builds a view each time
        # a task is created, decided on or completed
        request, signature = self.request, self.signature
        state = (_DONE if self.completed else _FROZEN if self.frozen
                 else _PENDING if self.cluster_id is None else _RUNNING)
        return tuple.__new__(TaskView, (
            self.key, request.request_id, self.part, self.profile.name,
            request.priority, state, self.cluster_id, self.started,
            self.work, request.arrival_ms,
            signature.preferred_clusters, signature.dla_flops_fraction,
            self.native))


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
            setattr(self, name, real(value, name, PlatformError, lo=0))
        self.dla_fallback_penalty = real(
            dla_fallback_penalty, "dla_fallback_penalty", PlatformError, lo=1)
        threshold = real(affinity_threshold, "affinity_threshold",
                         PlatformError, lo=0)
        if threshold > 1:
            raise PlatformError(
                f"affinity_threshold must lie in [0, 1], not {threshold!r}")
        # a NaN would never cut a runaway off
        self.max_time_ms = real(max_time_ms, "max_time_ms", PlatformError,
                                lo=0, strict=True)
        self.platform = _apply_overrides(platform, scenario.platform_overrides)
        self.scenario = scenario
        self.policy = policy
        self.matrix = matrix

        self.states = initial_states(self.platform)
        self.tasks: dict[str, _Task] = {}
        self._requests = {r.request_id: r for r in scenario.requests}
        # Each descriptor is decoded and analysed once, by model name.  No
        # request ends before its arrival plus its work at the top rate of
        # every cluster at once (a split request runs on several), nor a
        # dependent one before that bound of each of its producers: past
        # the horizon, the input is at fault, not a policy.
        self._profiles: dict[str, AppProfile] = {}
        self._signatures: dict[str, SignatureMap] = {}
        top_rate = sum(c.throughput_gflops[-1]
                       for c in self.platform.clusters) / 1000.0  # GFLOP/ms
        self._work: dict[str, float] = {}
        ends: dict[str, float] = {}  # request id -> its bound
        for r in scenario.requests:
            profile = self._profiles.get(r.model)
            if profile is None:
                if r.model not in descriptors:
                    raise EngineError(f"no descriptor for model {r.model!r}")
                profile = self._profiles[r.model] = parse_model(
                    descriptors[r.model])
                self._signatures[r.model] = layer_affinity(
                    profile, matrix, threshold=threshold)
            work = self._work[r.request_id] = profile.work_gflops(
                r.workload_size)
            ends[r.request_id] = r.arrival_ms + work / top_rate
        # producer -> its dependents, and dependent -> producers pending
        self._dependents, self._pending_producers = dependency_index(
            scenario.requests)
        if self._pending_producers:
            # the dependent requests, which the order lists last
            order = dependency_order(scenario.requests, self._dependents,
                                     self._pending_producers)
            for c in order[len(order) - len(self._pending_producers):]:
                r = self._requests[c]
                start = max(r.arrival_ms, *[ends[p] for p in r.depends_on])
                ends[c] = start + self._work[c] / top_rate
        finish = max(ends.values(), default=0.0)
        if finish > self.max_time_ms:
            # the greatest id among the requests with the latest bound
            rid = max(c for c, end in ends.items() if end == finish)
            raise WorkloadError(
                f"{rid}: cannot finish before {finish:.1f} ms, past the "
                f"simulation's {self.max_time_ms} ms horizon")

        # events as (time_ms, rank, seq, task key, epoch); the rank
        # tells a completion from an arrival, whose epoch is 0
        self._heap: list[tuple] = []
        self._seq = itertools.count()
        self._ran = False
        self._completed_requests: set[str] = set()
        # indexes that keep each event's cost independent of how many
        # requests have already finished
        self._parts: dict[str, list[_Task]] = {}  # request id -> its tasks
        self._views: dict[str, TaskView] = {}  # in self.tasks order
        self._order: dict[str, int] = {}  # key -> creation number
        self._created = itertools.count()
        # the newest snapshot handed out, which logs each change to _views
        self._snapshot = TaskSnapshot(self._views, self._order)
        self._power_mw: float | None = None  # None: states changed since
        # each cluster's utilization, in board order: an occupied cluster
        # draws active power even during actuation holds, and a frozen
        # task has vacated its cluster entirely; _occupy and _vacate keep it
        self._utils = dict.fromkeys(self.states, 0.0)
        self.trace = Trace(
            scenario=scenario.name,
            policy=policy.name,
            platform=self.platform.name,
            tdp_mw=self.platform.tdp_mw,
            cluster_ids=tuple(c.cluster_id for c in self.platform.clusters),
        )

    # -- event plumbing ----------------------------------------------------

    def _push_arrival(self, time_ms: float, request_id: str):
        heapq.heappush(self._heap, (time_ms, _RANK_ARRIVAL, next(self._seq),
                                    request_id, 0))

    def _schedule_initial_arrivals(self):
        for r in self.scenario.requests:
            if not r.depends_on:
                self._push_arrival(r.arrival_ms, r.request_id)

    def _release_dependents(self, producer: str, now: float):
        """Schedule, in scenario order, the dependents of a request that
        just completed whose producers are now all complete."""
        for rid in self._dependents.get(producer, ()):
            self._pending_producers[rid] -= 1
            if self._pending_producers[rid] == 0:
                arrival_ms = self._requests[rid].arrival_ms
                self._push_arrival(max(now, arrival_ms), rid)

    # -- power -------------------------------------------------------------

    def _power(self) -> float:
        # computed once per change of cluster state (_occupy, _vacate,
        # _apply_set_freq), not per sample
        if self._power_mw is None:
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
            now, p, tuple([st.spec.freq_levels_mhz[st.current_level]
                           for st in self.states.values()]),
            tuple(self._utils.values()))))

    # -- task mechanics ----------------------------------------------------

    def _sync(self, task: _Task, now: float):
        if now > task.last_sync:
            if task.cluster_id is not None and not task.frozen:
                task.done += task.rate * (now - task.last_sync)
            task.last_sync = now

    def _sync_all(self, now: float):
        # _sync of each occupant, inline: only a task on a cluster makes
        # progress; a pending or frozen task gets a fresh last_sync when
        # it is next mapped or thawed
        tasks = self.tasks
        for st in self.states.values():
            key = st.occupant
            if key is not None:
                task = tasks[key]
                if now > task.last_sync:
                    task.done += task.rate * (now - task.last_sync)
                    task.last_sync = now

    def _reschedule(self, task: _Task, now: float):
        """Push the completion of `task`, which is on a cluster, at its
        current rate; the new epoch supersedes any earlier completion."""
        epoch = task.epoch = task.epoch + 1
        t_done = (max(now, task.resume_at)
                  + max(0.0, task.work - task.done) / task.rate)
        heapq.heappush(self._heap, (t_done, _RANK_COMPLETION, next(self._seq),
                                    task.key, epoch))

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

    def _spawn_task(self, key: str, request_id: str, part: str | None,
                    work: float | None, native: bool) -> _Task:
        """The task a policy's MAP creates for a request that has
        arrived: one of its parts, or the whole request again."""
        if work is not None:
            work = real(work, f"{self.policy.name}: {key}: work_gflops",
                        EngineError, lo=0)
        if native is not True and native is not False:
            raise EngineError(f"{self.policy.name}: {key}: native must be a "
                              f"bool, not {native!r}")
        parts = self._parts[request_id]
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
                parts.remove(whole)
            if work is None:
                raise EngineError(f"{key}: part decisions must carry work_gflops")
        total = self._work[request_id]
        if work is None:
            work = total
        mapped = sum(t.work for t in parts) if parts else 0.0
        if mapped + work > total + _WORK_EPS:
            raise EngineError(
                f"{key}: parts exceed the request's total work "
                f"({mapped + work:.6f} > {total:.6f} GFLOPs)")
        return self._add_task(key, request_id, part, work, native)

    def _add_task(self, key: str, request_id: str, part: str | None,
                  work: float, native: bool) -> _Task:
        """Create task `key` of a request, with checked fields."""
        if key in self.tasks:  # a request id can be another's part key
            raise EngineError(f"task {key!r} already exists")
        request = self._requests[request_id]
        task = _Task(key, request, part, self._profiles[request.model],
                     self._signatures[request.model], work, native)
        self.tasks[key] = task
        self._snapshot._log(key)
        self._order[key] = next(self._created)
        self._views[key] = task.view()
        self._parts.setdefault(request_id, []).append(task)
        return task

    # -- decision application ----------------------------------------------

    # _occupy, _vacate and _apply_set_freq are the only writers of
    # self.states; each keeps _utils, the occupant's rate and _power_mw
    # (cleared, drawn when next read) in step with it.  A ClusterState
    # is built through tuple.__new__, past its Python-level constructor.

    def _occupy(self, task: _Task, cluster_id: str | None):
        """Place `task` on `cluster_id`, which must be a free cluster."""
        state = self.states.get(cluster_id)
        if state is None:
            if cluster_id is None:
                raise EngineError("mapping decision without a target cluster")
            raise EngineError(f"unknown cluster {cluster_id!r}")
        if state.occupant is not None:
            raise EngineError(f"cluster {cluster_id} is occupied by {state.occupant}")
        self.states[cluster_id] = tuple.__new__(ClusterState, (
            state.spec, state.current_level, task.key))
        self._utils[cluster_id] = 1.0
        self._power_mw = None
        task.cluster_id = cluster_id
        task.rate = effective_rate(state, task.signature.dla_flops_fraction,
                                   task.native,
                                   self.dla_fallback_penalty) / 1000.0

    def _vacate(self, task: _Task):
        cluster_id = task.cluster_id
        if cluster_id is not None:
            state = self.states[cluster_id]
            self.states[cluster_id] = tuple.__new__(ClusterState, (
                state.spec, state.current_level, None))
            self._utils[cluster_id] = 0.0
            self._power_mw = None
            task.cluster_id = None

    def _apply_decision(self, d: Decision, now: float, acted: set[str]):
        kind, part = d.kind, d.part
        if kind is _SET_FREQ:
            raise EngineError("SET_FREQ is only valid from dvfs_update()")
        if d.level is not None:
            raise EngineError(
                f"{self.policy.name}: decide() returned a decision with level "
                f"{d.level!r}; only a SET_FREQ carries one")
        # a part's task key is "<request id>#<part>"
        if part is None:
            key = d.request_id
        elif isinstance(part, str):
            key = f"{d.request_id}#{part}"
        else:
            raise EngineError(
                f"{self.policy.name}: decide() returned a decision with part "
                f"{part!r}, not a string")
        task = self.tasks.get(key)
        if task is None:
            if kind is not _MAP:
                raise EngineError(f"decision names unknown task {key!r}")
            if d.request_id not in self._parts:
                raise EngineError(
                    f"{key}: MAP for request {d.request_id!r}, which has not arrived")
            task = self._spawn_task(key, d.request_id, part, d.work_gflops,
                                    d.native)
        if key in acted:
            raise EngineError(f"{key}: two decisions in one cycle")

        # the cluster the record names: the target, or the one a FREEZE
        # vacated (None for a task that never ran), whatever the policy
        # filled in
        cluster_id = d.cluster_id
        if kind is _MAP:
            if task.started or task.frozen or task.cluster_id is not None:
                raise EngineError(f"{task.key}: MAP on a task that already ran")
            self._occupy(task, cluster_id)
            task.started = True
            task.resume_at = task.last_sync = now + self.ctrl_overhead_ms
            if task.first_map_ms is None:
                task.first_map_ms = now
            self._reschedule(task, now)

        elif kind is _MIGRATE:
            if task.cluster_id is None:
                raise EngineError(f"{task.key}: MIGRATE on a task that is not running")
            if cluster_id == task.cluster_id:
                raise EngineError(f"{task.key}: MIGRATE onto its own cluster")
            # a target that is not free is refused by _occupy; the run
            # ends there, so the task's state no longer matters
            self._sync(task, now)
            self._vacate(task)
            self._rollback_to_boundary(task)
            self._occupy(task, cluster_id)
            task.resume_at = task.last_sync = (
                now + self.ctrl_overhead_ms + self.migration_overhead_ms)
            self._reschedule(task, now)

        elif kind is _FREEZE:
            if task.frozen or task.completed:
                raise EngineError(f"{task.key}: FREEZE on a {task.state.value} task")
            cluster_id = task.cluster_id
            if cluster_id is not None:
                self._sync(task, now)
                self._vacate(task)
                task.frozen_on = cluster_id
            # a never-started task may be frozen too: that is deferred
            # admission straight into the thaw queue, with no charge
            task.frozen = True
            task.epoch += 1

        elif kind is _UNFREEZE:
            if not task.frozen:
                raise EngineError(f"{task.key}: UNFREEZE on a task that is not frozen")
            self._occupy(task, cluster_id)
            task.frozen = False
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
                if cluster_id != task.frozen_on:
                    self._rollback_to_boundary(task)
            task.frozen_on = None
            task.last_sync = task.resume_at
            self._reschedule(task, now)

        else:  # pragma: no cover - enum is exhaustive
            raise EngineError(f"unknown decision kind {kind}")

        acted.add(key)
        self._snapshot._log(key)
        self._views[key] = task.view()
        # _value_ is .value without the property call
        self.trace.decisions.append(tuple.__new__(DecisionRecord, (
            now, kind._value_, d.request_id, part, cluster_id, None, None)))

    def _apply_set_freq(self, d: Decision, now: float):
        if d.kind is not _SET_FREQ:
            raise EngineError("dvfs_update() may only emit SET_FREQ decisions")
        if (d.request_id is not None or d.part is not None
                or d.work_gflops is not None or d.native is not False):
            field = next((f for f in ("request_id", "part", "work_gflops")
                          if getattr(d, f) is not None), "native")
            raise EngineError(
                f"{self.policy.name}: dvfs_update() returned a SET_FREQ with "
                f"{field} {getattr(d, field)!r}; it names only a cluster and "
                f"a level")
        cluster_id, level = d.cluster_id, d.level
        if cluster_id is None or level is None:
            raise EngineError("SET_FREQ needs cluster_id and level")
        state = self.states.get(cluster_id)
        if state is None:
            raise EngineError(f"unknown cluster {cluster_id!r}")
        # before the no-change return, so that True on a cluster at level
        # 1 is refused too; set_frequency would take a bool as 0 or 1
        top = state.spec.max_level
        if (not isinstance(level, int) or isinstance(level, bool)
                or not 0 <= level <= top):
            raise EngineError(
                f"{self.policy.name}: SET_FREQ on {cluster_id} to level "
                f"{level!r}, which is not an integer in [0, {top}]")
        if level == state.current_level:
            return
        occupant = self.tasks.get(state.occupant) if state.occupant else None
        if occupant is not None:
            self._sync(occupant, now)
        state = self.states[cluster_id] = set_frequency(state, level)
        self._power_mw = None
        if occupant is not None:
            occupant.rate = effective_rate(
                state, occupant.signature.dla_flops_fraction, occupant.native,
                self.dla_fallback_penalty) / 1000.0
            self._reschedule(occupant, now)
        self.trace.decisions.append(tuple.__new__(DecisionRecord, (
            now, "SET_FREQ", None, None, cluster_id, level, state.freq_mhz)))

    # -- completion handling -------------------------------------------------

    def _finish_task(self, task: _Task, now: float) -> str:
        """Complete `task`, which is running; the cluster it freed."""
        if now > task.last_sync:  # _sync, for a running task
            task.done += task.rate * (now - task.last_sync)
            task.last_sync = now
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
        return freed

    def _request_complete(self, request_id: str) -> bool:
        parts = self._parts[request_id]
        if len(parts) == 1 and parts[0].part is None:
            return parts[0].completed  # the whole request, all its work
        if not all(t.completed for t in parts):
            return False
        total = self._work[request_id]
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
            if now != now:
                # a time that never equals itself (NaN) would spin forever
                raise EngineError(f"event loop made no progress at t={now}")

            # every event at (now, rank), in push order.  Handling one
            # pushes only arrivals, at now or later, so a batch of
            # completions never takes in an event it pushed.
            events: list[ControllerEvent] = []
            while True:
                _, _, _, key, epoch = heapq.heappop(heap)
                if rank == _RANK_ARRIVAL:
                    # the whole-request task, past _spawn_task's checks
                    # of a policy's values
                    self._add_task(key, key, None, self._work[key], False)
                    events.append(tuple.__new__(ControllerEvent, (
                        _ARRIVAL, key, None)))
                else:
                    task = self.tasks[key]
                    # else superseded by a later decision
                    if task.epoch == epoch and not task.completed:
                        freed = self._finish_task(task, now)
                        rid = task.request.request_id
                        if (rid not in self._completed_requests
                                and self._request_complete(rid)):
                            self._completed_requests.add(rid)
                            self._release_dependents(rid, now)
                        events.append(tuple.__new__(ControllerEvent, (
                            _FREED, None, freed)))
                if not heap or heap[0][0] != now or heap[0][1] != rank:
                    break

            if not events:
                continue
            self._sync_all(now)
            p_before = self._power()
            decisions = self.policy.decide(self._view(now), events)
            acted: set[str] = set()
            d = _NO_ITEM
            try:
                for d in decisions:
                    self._apply_decision(d, now, acted)
            except (TypeError, AttributeError):
                self._refuse_malformed("decide", decisions, d)
                raise
            p_after = self._power()
            decisions = self.policy.dvfs_update(
                self._view(now), p_before, p_after, len(events))
            d = _NO_ITEM
            try:
                for d in decisions:
                    self._apply_set_freq(d, now)
            except (TypeError, AttributeError):
                self._refuse_malformed("dvfs_update", decisions, d)
                raise
            self._record_power(now)

        self._check_drained()
        self._finalize_trace()
        return self.trace

    def _refuse_malformed(self, caller: str, returned, d):
        """Raise EngineError naming what is malformed in what the policy's
        `caller` returned, once applying decision `d` of it raised
        TypeError or AttributeError: an unhashable id, an item that is
        not a Decision.  The checks run only then, off the common path;
        when none fails, the error is not a malformed value's, and the
        caller re-raises it."""
        where = f"{self.policy.name}: {caller}() returned"
        try:
            iter(returned)
        except TypeError:
            raise EngineError(
                f"{where} {returned!r}, not a list of decisions") from None
        if d is _NO_ITEM:  # raised by a generator the policy returned
            return
        if not isinstance(d, Decision):
            raise EngineError(f"{where} {d!r}, which is not a Decision")
        for field in ("request_id", "cluster_id", "part"):
            value = getattr(d, field)
            if value is not None and not isinstance(value, str):
                raise EngineError(
                    f"{where} a decision with {field} {value!r}, not a string")

    def _view(self, now: float) -> ControllerView:
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
            if len(parts) == 1:
                task = parts[0]
                first_map, completed = task.first_map_ms, task.completed_ms
            else:
                first_map = min((t.first_map_ms for t in parts
                                 if t.first_map_ms is not None), default=None)
                completed = max((t.completed_ms for t in parts),
                                default=None) \
                    if all(t.completed for t in parts) and parts else None
            arrival = r.arrival_ms
            self.trace.requests.append(tuple.__new__(RequestRecord, (
                r.request_id, r.model, r.priority, arrival, first_map,
                completed,
                None if first_map is None else first_map - arrival,
                None if completed is None else completed - arrival,
                self._work[r.request_id])))

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
