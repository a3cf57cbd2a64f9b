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
budget, predicting each level's draw from the platform's configured
power/frequency slope.
"""

from __future__ import annotations

import heapq

# the Enum members as module globals (see policy.py)
from .policy import (
    _ARRIVAL,
    _FREED,
    _FREEZE,
    _MAP,
    _MIGRATE,
    _SET_FREQ,
    _UNFREEZE,
    ControllerEvent,
    ControllerView,
    Decision,
    TaskView,
    _BoardPolicy,
    effective_rate,
)

_RATE_EPS = 1e-9

# A Decision is built positionally through tuple.__new__, with all seven
# fields (kind, request_id, cluster_id, level, part, work_gflops,
# native): that skips the Python-level named-tuple constructor, and this
# policy builds one or two per arrival.
_new = tuple.__new__


class FreezeQueue:
    """Frozen and deferred tasks, thawed by priority then seniority.

    A task's preferred kinds never change, so the queue keeps one heap of
    (-priority, enqueued_ms, task_key) per distinct kinds tuple.  The
    first task in thaw order that can use a kind is then the least of
    the heads of the lanes holding that kind: a freed cluster looks at a
    few heads, not at every queued task that cannot use it.  The task
    key is part of each entry, so no two entries tie.  An emptied heap
    is kept: there are only as many as distinct kinds tuples.
    """

    def __init__(self):
        self._keys: set[str] = set()
        self._lanes: dict[tuple[str, ...], list[tuple[int, float, str]]] = {}

    def __len__(self):
        return len(self._keys)

    def add(self, task_key: str, priority: int, now: float,
            kinds: tuple[str, ...]):
        if task_key in self._keys:
            raise ValueError(f"{task_key} is already queued")
        self._keys.add(task_key)
        heapq.heappush(self._lanes.setdefault(kinds, []),
                       (-priority, now, task_key))

    def take(self, kind: str) -> str | None:
        """Dequeue and return the first task key, in thaw order, that
        prefers `kind`, or None."""
        best = None
        for kinds, lane in self._lanes.items():
            if kind in kinds and lane and (best is None or lane[0] < best[0]):
                best = lane
        if best is None:
            return None
        key = heapq.heappop(best)[2]
        self._keys.remove(key)
        return key


class TwillPolicy(_BoardPolicy):
    name = "twill"

    def __init__(self):
        self.queue = FreezeQueue()

    # -- mapping -----------------------------------------------------------

    def decide(self, view: ControllerView,
               events: list[ControllerEvent]) -> list[Decision]:
        decisions: list[Decision] = []
        # plain loops, not comprehensions: under CPython 3.11 each
        # comprehension is a function call, and this runs every cycle
        planned = {}
        for cid, st in view.states.items():
            planned[cid] = st.occupant
        touched: set[str] = set()
        self._layout(view.platform)
        kinds = self._kinds
        queue = self.queue

        worklist, arrivals = [], []
        for e in events:
            if e.kind is _FREED:
                worklist.append(e.cluster_id)
            elif e.kind is _ARRIVAL:
                arrivals.append(e.request_id)

        # freed clusters, cascading through any migration vacancies; a
        # cluster in the worklist is free until it is popped, as only the
        # popped one is filled
        while worklist:
            cid = worklist.pop(0)
            key = queue.take(kinds[cid])
            if key is not None:
                decisions.append(_new(Decision, (
                    _UNFREEZE, key, cid, None, None, None, False)))
                planned[cid] = key
                touched.add(key)
                continue
            mover = self._best_migration(view, cid, planned, touched)
            if mover is not None:
                decisions.append(_new(Decision, (
                    _MIGRATE, mover.key, cid, None, None, None, False)))
                planned[cid] = mover.key
                planned[mover.cluster_id] = None
                touched.add(mover.key)
                worklist.append(mover.cluster_id)

        for rid in arrivals:
            self._place_arrival(view, rid, planned, touched, kinds, decisions)

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
            # each entry this cycle changed names a touched task, so an
            # untouched one is the view's RUNNING occupant of occ_cid
            task = view.tasks[key]
            # the task's effective rate here and on `cid`
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
                       kinds: dict[str, str], decisions: list[Decision]):
        """Append the decisions that place arrival `rid`."""
        task = view.tasks[rid]
        prefs, dla, native = task.preferred_kinds, task.dla_fraction, task.native
        states, penalty = view.states, view.dla_fallback_penalty
        # in one pass over the clusters: the free ones, the fastest free
        # preferred one as (-rate, rank of its kind, id), and each taken
        # preferred one as (-rate, id); a rate is the newcomer's
        # effective_rate there
        free, taken, best = [], [], None
        for c, occupant in planned.items():
            kind = kinds[c]
            if occupant is None:
                free.append(c)
                if kind in prefs:
                    order = (-effective_rate(states[c], dla, native, penalty),
                             prefs.index(kind), c)
                    if best is None or order < best:
                        best = order
            elif kind in prefs:
                taken.append((-effective_rate(states[c], dla, native, penalty),
                              c))

        if best is not None:
            target = best[2]
            planned[target] = rid
            touched.add(rid)
            decisions.append(_new(Decision, (
                _MAP, rid, target, None, None, None, False)))
            return

        # every preferred cluster is taken.  Their occupants that this
        # cycle has not touched, which are the view's RUNNING ones (see
        # _best_migration), on the fastest cluster first: displace
        # the first that has a free cluster of its own to go to, else
        # freeze the first of the lowest priority below the newcomer's
        if len(taken) > 1:
            taken.sort()
        victim = None
        for _, cid in taken:
            occ = view.tasks[planned[cid]]
            if occ.key in touched:
                continue
            room = None
            for c in free:
                if kinds[c] in occ.preferred_kinds:
                    order = (-effective_rate(states[c], occ.dla_fraction,
                                             occ.native, penalty), c)
                    if room is None or order < room:
                        room = order
            if room is not None:
                target = room[1]
                planned[target] = occ.key
                planned[cid] = rid
                touched.update((occ.key, rid))
                decisions.append(_new(Decision, (
                    _MIGRATE, occ.key, target, None, None, None, False)))
                decisions.append(_new(Decision, (
                    _MAP, rid, cid, None, None, None, False)))
                return
            if occ.priority < task.priority and (
                    victim is None or occ.priority < victim[0].priority):
                victim = (occ, cid)

        if victim is not None:
            occ, cid = victim
            self.queue.add(occ.key, occ.priority, view.now,
                           occ.preferred_kinds)
            planned[cid] = rid
            touched.update((occ.key, rid))
            decisions.append(_new(Decision, (
                _FREEZE, occ.key, None, None, None, None, False)))
            decisions.append(_new(Decision, (
                _MAP, rid, cid, None, None, None, False)))
            return

        # defer admission: park in the thaw queue, to be placed on the
        # next compatible CLUSTER_FREED
        self.queue.add(rid, task.priority, view.now, prefs)
        touched.add(rid)
        decisions.append(_new(Decision, (
            _FREEZE, rid, None, None, None, None, False)))

    # -- frequency governor --------------------------------------------------

    def dvfs_update(self, view: ControllerView, p_before_mw: float,
                    p_after_mw: float, handled_events: int) -> list[Decision]:
        decisions = []
        self._layout(view.platform)
        states = view.states
        budget = view.platform.tdp_mw
        headroom = budget - p_after_mw
        if handled_events <= 1 or headroom <= 0:
            effective = budget
        else:
            # several placements changed at once: only spend half the
            # apparent headroom until the next cycle's reading confirms it
            effective = p_after_mw + headroom / 2.0
        limit = effective + 1e-9
        for cid in self._gpu_ids:
            state = states[cid]
            if state.occupant is None:
                continue  # nothing running: leave the clock alone
            spec = state.spec
            levels = spec.freq_levels_mhz
            freq = levels[state.current_level]  # state.freq_mhz
            slope = spec.active_power_slope_mw_per_mhz
            # the highest level whose predicted draw fits, else 0
            chosen = len(levels) - 1
            while chosen and not (p_after_mw + slope * (levels[chosen] - freq)
                                  <= limit):
                chosen -= 1
            if chosen != state.current_level:
                decisions.append(_new(Decision, (
                    _SET_FREQ, None, cid, chosen, None, None, False)))
        return decisions
