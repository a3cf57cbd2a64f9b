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

# the engine's Enum members as module globals (see engine.py)
from .engine import (
    _ARRIVAL,
    _FREED,
    _FREEZE,
    _MAP,
    _MIGRATE,
    _RUNNING,
    _SET_FREQ,
    _UNFREEZE,
    ControllerEvent,
    ControllerView,
    Decision,
    Policy,
    TaskView,
    effective_rate,
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
    not at every queued task that cannot use it.  A lane holds
    (_thaw_order, entry) pairs, so its order is computed once per entry;
    the task key in the order is unique, so no two pairs tie on it.
    """

    def __init__(self):
        self._entries: dict[str, tuple[tuple, QueueEntry]] = {}
        self._lanes: dict[tuple[str, ...], list[tuple[tuple, QueueEntry]]] = {}

    def __len__(self):
        return len(self._entries)

    def add(self, task_key: str, priority: int, now: float,
            kinds: tuple[str, ...]):
        if task_key in self._entries:
            raise ValueError(f"{task_key} is already queued")
        entry = QueueEntry(task_key, priority, now, kinds)
        pair = self._entries[task_key] = (_thaw_order(entry), entry)
        bisect.insort(self._lanes.setdefault(kinds, []), pair)

    def remove(self, task_key: str):
        pair = self._entries.pop(task_key)
        lane = self._lanes[pair[1].kinds]
        del lane[bisect.bisect_left(lane, pair)]
        if not lane:
            del self._lanes[pair[1].kinds]

    def best(self, kind: str) -> QueueEntry | None:
        """The first queued entry, in thaw order, that prefers `kind`."""
        head = min((lane[0] for kinds, lane in self._lanes.items()
                    if kind in kinds), default=None)
        return None if head is None else head[1]


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

        freed = [e.cluster_id for e in events if e.kind is _FREED]
        arrivals = [e.request_id for e in events if e.kind is _ARRIVAL]

        # freed clusters, cascading through any migration vacancies
        worklist = list(freed)
        while worklist:
            cid = worklist.pop(0)
            if planned[cid] is not None:
                continue
            entry = self.queue.best(kinds[cid])
            if entry is not None:
                self.queue.remove(entry.task_key)
                decisions.append(Decision(_UNFREEZE, entry.task_key, cid))
                planned[cid] = entry.task_key
                touched.add(entry.task_key)
                continue
            mover = self._best_migration(view, cid, planned, touched)
            if mover is not None:
                decisions.append(Decision(_MIGRATE, mover.key, cid))
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
        states, penalty = view.states, view.dla_fallback_penalty
        for occ_cid, key in planned.items():
            if key is None or key in touched:
                continue
            task = view.tasks[key]
            if task.state is not _RUNNING or task.cluster_id != occ_cid:
                continue
            # view.exec_rate, without looking the task up again
            r_cur = effective_rate(states[occ_cid], task.dla_fraction,
                                   task.native, penalty)
            r_new = effective_rate(states[cid], task.dla_fraction,
                                   task.native, penalty)
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
        states, penalty = view.states, view.dla_fallback_penalty
        # the newcomer's view.exec_rate on each preferred cluster, once
        rates = {c: effective_rate(states[c], task.dla_fraction, task.native,
                                   penalty)
                 for c in planned if kinds[c] in prefs}

        # fastest free preferred cluster
        free_pref = [(-rate, prefs.index(kinds[c]), c)
                     for c, rate in rates.items() if planned[c] is None]
        if free_pref:
            target = min(free_pref)[2]
            planned[target] = rid
            touched.add(rid)
            return [Decision(_MAP, rid, target)]

        # every preferred cluster is taken: their running occupants that
        # this cycle has not moved, on the fastest cluster first
        occupants = []
        for neg_rate, cid in sorted((-rate, c) for c, rate in rates.items()):
            occ = view.tasks[planned[cid]]
            if occ.state is _RUNNING and occ.key not in touched:
                occupants.append((neg_rate, cid, occ))

        # displace an occupant that has somewhere of its own to go
        free = [c for c, o in planned.items() if o is None]
        for _, cid, occ in occupants if free else ():
            room = [(-effective_rate(states[c], occ.dla_fraction, occ.native,
                                     penalty), c)
                    for c in free if kinds[c] in occ.preferred_kinds]
            if not room:
                continue
            target = min(room)[1]
            planned[target] = occ.key
            planned[cid] = rid
            touched.update((occ.key, rid))
            return [
                Decision(_MIGRATE, occ.key, target),
                Decision(_MAP, rid, cid),
            ]

        # freeze a strictly lower-priority occupant
        freezable = [(occ.priority, neg_rate, cid, occ)
                     for neg_rate, cid, occ in occupants
                     if occ.priority < task.priority]
        if freezable:
            # (priority, rate, cluster) is unique: the view is never compared
            _, _, cid, occ = min(freezable)
            self.queue.add(occ.key, occ.priority, view.now,
                           occ.preferred_kinds)
            planned[cid] = rid
            touched.update((occ.key, rid))
            return [
                Decision(_FREEZE, occ.key),
                Decision(_MAP, rid, cid),
            ]

        # defer admission: park in the thaw queue, to be placed on the
        # next compatible CLUSTER_FREED
        self.queue.add(rid, task.priority, view.now, prefs)
        touched.add(rid)
        return [Decision(_FREEZE, rid)]

    # -- frequency governor --------------------------------------------------

    def dvfs_update(self, view: ControllerView, p_before_mw: float,
                    p_after_mw: float, handled_events: int) -> list[Decision]:
        decisions = []
        self._layout(view.platform)
        # in the board's order, which is fixed: two fingerprints are equal
        # exactly when the same clusters are busy
        fingerprint = tuple([c for c in self._kinds
                             if view.states[c].occupant is not None])
        for cid in self._gpu_ids:
            state = view.states[cid]
            spec = state.spec
            if state.occupant is None:
                # nothing running: leave the clock alone, and drop the
                # sample so an idle-period reading never feeds the slope
                self._samples.pop(cid, None)
                continue

            freq = state.freq_mhz
            slope = spec.active_power_slope_mw_per_mhz
            last = self._samples.get(cid)
            if last is not None:
                last_f, last_p, last_fp = last
                if last_f != freq and last_fp == fingerprint:
                    est = (p_after_mw - last_p) / (freq - last_f)
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

            # the highest level whose predicted draw fits
            chosen = 0
            limit = effective + 1e-9
            levels = spec.freq_levels_mhz
            for level in range(len(levels) - 1, -1, -1):
                if p_after_mw + slope * (levels[level] - freq) <= limit:
                    chosen = level
                    break

            self._samples[cid] = (freq, p_after_mw, fingerprint)
            if chosen != state.current_level:
                decisions.append(Decision(_SET_FREQ, cluster_id=cid,
                                          level=chosen))
        return decisions
