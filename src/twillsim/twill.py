"""The adaptive scheduler: priority-aware mapping with migration,
freezing, and a budget-tracking frequency governor.

Mapping follows a fixed ladder.  For a freed cluster: thaw the best
queued task that can use it, else pull over a running task that would
execute strictly faster there.  For an arrival: take the fastest free
preferred cluster; failing that, displace an occupant that has a free
cluster of its own to go to; failing that, freeze a strictly
lower-priority occupant; and as a last resort park the newcomer in the
thaw queue until something frees up.

The governor re-evaluates the GPU clock every cycle against the power
budget, estimating the power/frequency slope from its own recent
samples (only when the set of busy clusters is unchanged between
samples, so the estimate is not polluted by occupancy flips) and
falling back to the platform's configured slope otherwise.
"""

from __future__ import annotations

import bisect
from typing import NamedTuple

from .engine import (
    ControllerEvent,
    ControllerView,
    Decision,
    DecisionKind,
    EventKind,
    Policy,
    TaskState,
    TaskView,
)
from .hardware import ClusterKind

_RATE_EPS = 1e-9


class QueueEntry(NamedTuple):
    task_key: str
    priority: int
    enqueued_ms: float
    kinds: tuple[str, ...]  # the task's preferred cluster kinds


def _thaw_order(entry: QueueEntry) -> tuple:
    return (-entry.priority, entry.enqueued_ms, entry.task_key)


class FreezeQueue:
    """Frozen and deferred tasks, thawed by priority then seniority.

    A task's preferred kinds never change, so the queue keeps one lane,
    sorted by _thaw_order, per distinct kinds tuple.  The first entry in
    thaw order that can use a kind is then the first of the heads of
    the lanes holding that kind: a freed cluster looks at a few heads,
    not at every queued task that cannot use it.
    """

    def __init__(self):
        self._entries: dict[str, QueueEntry] = {}
        self._lanes: dict[tuple[str, ...], list[QueueEntry]] = {}

    def __len__(self):
        return len(self._entries)

    def add(self, task_key: str, priority: int, now: float,
            kinds: tuple[str, ...]):
        if task_key in self._entries:
            raise ValueError(f"{task_key} is already queued")
        entry = self._entries[task_key] = QueueEntry(task_key, priority, now,
                                                     kinds)
        bisect.insort(self._lanes.setdefault(kinds, []), entry, key=_thaw_order)

    def remove(self, task_key: str):
        entry = self._entries.pop(task_key)
        lane = self._lanes[entry.kinds]
        del lane[bisect.bisect_left(lane, _thaw_order(entry), key=_thaw_order)]
        if not lane:
            del self._lanes[entry.kinds]

    def best(self, kind: str) -> QueueEntry | None:
        """The first queued entry, in thaw order, that prefers `kind`."""
        return min((lane[0] for kinds, lane in self._lanes.items()
                    if kind in kinds), key=_thaw_order, default=None)


class TwillPolicy(Policy):
    name = "twill"

    def __init__(self):
        self.queue = FreezeQueue()
        # per-GPU (freq_mhz, power_mw, busy-cluster fingerprint)
        self._samples: dict[str, tuple[float, float, tuple[str, ...]]] = {}
        self._board = None
        self._kinds: dict[str, str] = {}
        self._gpu_ids: list[str] = []

    def _layout(self, platform) -> None:
        """Derive the cluster kinds by id and the sorted GPU ids once per
        board, not on every call."""
        if platform is not self._board:
            self._board = platform
            self._kinds = {c.cluster_id: c.kind.name for c in platform.clusters}
            self._gpu_ids = sorted(c.cluster_id for c in platform.clusters
                                   if c.kind is ClusterKind.GPU)

    # -- mapping -----------------------------------------------------------

    def decide(self, view: ControllerView,
               events: list[ControllerEvent]) -> list[Decision]:
        decisions: list[Decision] = []
        planned = {cid: st.occupant for cid, st in view.states.items()}
        touched: set[str] = set()
        self._layout(view.platform)
        kinds = self._kinds

        freed = [e.cluster_id for e in events
                 if e.kind is EventKind.CLUSTER_FREED]
        arrivals = [e.request_id for e in events
                    if e.kind is EventKind.ARRIVAL]

        # freed clusters, cascading through any migration vacancies
        worklist = list(freed)
        while worklist:
            cid = worklist.pop(0)
            if planned[cid] is not None:
                continue
            entry = self.queue.best(kinds[cid])
            if entry is not None:
                self.queue.remove(entry.task_key)
                decisions.append(Decision(DecisionKind.UNFREEZE,
                                          request_id=entry.task_key,
                                          cluster_id=cid))
                planned[cid] = entry.task_key
                touched.add(entry.task_key)
                continue
            mover = self._best_migration(view, cid, planned, touched)
            if mover is not None:
                decisions.append(Decision(DecisionKind.MIGRATE,
                                          request_id=mover.key,
                                          cluster_id=cid))
                planned[cid] = mover.key
                planned[mover.cluster_id] = None
                touched.add(mover.key)
                worklist.append(mover.cluster_id)

        for rid in arrivals:
            decisions.extend(
                self._place_arrival(view, rid, planned, touched, kinds))

        return decisions

    def _best_migration(self, view: ControllerView, cid: str,
                        planned: dict, touched: set[str]) -> TaskView | None:
        """The running task with the largest strict speedup on `cid`."""
        best = None
        best_key = None
        for occ_cid, key in planned.items():
            if key is None or key in touched:
                continue
            task = view.tasks[key]
            if task.state is not TaskState.RUNNING or task.cluster_id != occ_cid:
                continue
            r_cur = view.exec_rate(task.key, task.cluster_id)
            r_new = view.exec_rate(task.key, cid)
            if r_new <= r_cur * (1.0 + _RATE_EPS):
                continue
            order = (-(r_new / r_cur), -task.priority, task.arrival_ms, task.key)
            if best is None or order < best_key:
                best, best_key = task, order
        return best

    def _place_arrival(self, view: ControllerView, rid: str,
                       planned: dict, touched: set[str],
                       kinds: dict[str, str]) -> list[Decision]:
        task = view.tasks[rid]
        prefs = task.preferred_kinds

        # fastest free preferred cluster
        free_pref = [c for c, occ in planned.items()
                     if occ is None and kinds[c] in prefs]
        if free_pref:
            target = min(free_pref, key=lambda c: (
                -view.exec_rate(rid, c), prefs.index(kinds[c]), c))
            planned[target] = rid
            touched.add(rid)
            return [Decision(DecisionKind.MAP, request_id=rid,
                             cluster_id=target)]

        # displace an occupant that has somewhere of its own to go
        occupied_pref = sorted(
            (c for c in planned if kinds[c] in prefs),
            key=lambda c: (-view.exec_rate(rid, c), c))
        for cid in occupied_pref:
            occ = view.tasks[planned[cid]]
            if occ.state is not TaskState.RUNNING or occ.key in touched:
                continue
            room = [c for c, o in planned.items()
                    if o is None and kinds[c] in occ.preferred_kinds]
            if not room:
                continue
            target = min(room, key=lambda c: (-view.exec_rate(occ.key, c), c))
            planned[target] = occ.key
            planned[cid] = rid
            touched.update((occ.key, rid))
            return [
                Decision(DecisionKind.MIGRATE, request_id=occ.key,
                         cluster_id=target),
                Decision(DecisionKind.MAP, request_id=rid, cluster_id=cid),
            ]

        # freeze a strictly lower-priority occupant
        freezable = []
        for cid in occupied_pref:
            occ = view.tasks[planned[cid]]
            if occ.state is TaskState.RUNNING and occ.key not in touched \
                    and occ.priority < task.priority:
                freezable.append((occ.priority, -view.exec_rate(rid, cid),
                                  cid, occ.key))
        if freezable:
            _, _, cid, occ_key = min(freezable)
            occ = view.tasks[occ_key]
            self.queue.add(occ_key, occ.priority, view.now,
                           occ.preferred_kinds)
            planned[cid] = rid
            touched.update((occ_key, rid))
            return [
                Decision(DecisionKind.FREEZE, request_id=occ_key,
                         cluster_id=None),
                Decision(DecisionKind.MAP, request_id=rid, cluster_id=cid),
            ]

        # defer admission: park in the thaw queue, to be placed on the
        # next compatible CLUSTER_FREED
        self.queue.add(rid, task.priority, view.now, prefs)
        touched.add(rid)
        return [Decision(DecisionKind.FREEZE, request_id=rid,
                         cluster_id=None)]

    # -- frequency governor --------------------------------------------------

    def dvfs_update(self, view: ControllerView, p_before_mw: float,
                    p_after_mw: float, handled_events: int) -> list[Decision]:
        decisions = []
        fingerprint = tuple(sorted(
            c for c, st in view.states.items() if st.occupant is not None))
        self._layout(view.platform)
        for cid in self._gpu_ids:
            state = view.states[cid]
            spec = state.spec
            if state.occupant is None:
                # nothing running: leave the clock alone, and drop the
                # sample so an idle-period reading never feeds the slope
                self._samples.pop(cid, None)
                continue

            slope = spec.active_power_slope_mw_per_mhz
            last = self._samples.get(cid)
            if last is not None:
                last_f, last_p, last_fp = last
                if last_f != state.freq_mhz and last_fp == fingerprint:
                    est = (p_after_mw - last_p) / (state.freq_mhz - last_f)
                    if est > 0:
                        slope = est

            budget = view.platform.tdp_mw
            headroom = budget - p_after_mw
            if handled_events <= 1 or headroom <= 0:
                effective = budget
            else:
                # several placements changed at once: only spend half
                # the apparent headroom until the next sample confirms it
                effective = p_after_mw + headroom / 2.0

            chosen = 0
            for level in range(spec.num_levels - 1, -1, -1):
                predicted = p_after_mw + slope * (
                    spec.freq_levels_mhz[level] - state.freq_mhz)
                if predicted <= effective + 1e-9:
                    chosen = level
                    break

            self._samples[cid] = (state.freq_mhz, p_after_mw, fingerprint)
            if chosen != state.current_level:
                decisions.append(Decision(DecisionKind.SET_FREQ,
                                          cluster_id=cid, level=chosen))
        return decisions
