"""Baseline schedulers: a GPU-only FIFO, a static arrival-time mapper
with uncapped DVFS, and a static subgraph splitter.

All three share two properties that separate them from the adaptive
scheduler: placement is decided once (no migration, no freezing), and
none of them track the power budget.
"""

from __future__ import annotations

from collections import deque

# the Enum members as module globals (see policy.py)
from .policy import (
    _ARRIVAL,
    _FREED,
    _MAP,
    _SET_FREQ,
    Decision,
    Policy,
    _BoardPolicy,
)
from .twill import TwillPolicy

# a static splitter does not bother offloading sub-5% crumbs of a model
MIN_OFFLOAD_FRACTION = 0.05


class _RaceToIdle(_BoardPolicy):
    """Governor that pins every busy GPU at its top frequency, without
    consulting the power budget."""

    def dvfs_update(self, view, p_before_mw, p_after_mw, handled_events):
        decisions = []
        self._layout(view.platform)
        for gpu in self._gpu_ids:
            state = view.states[gpu]
            top = state.spec.max_level
            if state.occupant is not None and state.current_level != top:
                decisions.append(Decision(_SET_FREQ,
                                          cluster_id=gpu, level=top))
        return decisions


class GpuQueuePolicy(_RaceToIdle):
    """Strict FIFO onto the GPU; the DLA is never used.

    The governor simply pins a busy GPU at its top frequency, trusting
    the binned clocks to be safe for GPU-only operation.
    """

    name = "gpu_queue"

    def __init__(self):
        self._fifo: deque[str] = deque()

    def decide(self, view, events):
        for e in events:
            if e.kind is _ARRIVAL:
                self._fifo.append(e.request_id)
        decisions = []
        self._layout(view.platform)
        for gpu in self._gpu_ids:
            if self._fifo and view.states[gpu].occupant is None:
                rid = self._fifo.popleft()
                decisions.append(Decision(_MAP, request_id=rid,
                                          cluster_id=gpu))
        return decisions


class StaticDvfsPolicy(_RaceToIdle):
    """Map once at arrival, then race-to-idle at the top frequency.

    An arrival takes the GPU when free; a DLA-suited model (one whose
    affinity signature prefers the DLA) takes a free DLA instead;
    everything else waits in one FIFO and is placed on the first cluster
    that frees up and suits it.  The governor clocks a busy GPU to the
    top level without consulting the power budget, which is exactly how
    this scheme overshoots a shared cap when both clusters are loaded.
    """

    name = "static_dvfs"

    def __init__(self):
        self._fifo: deque[str] = deque()

    def decide(self, view, events):
        decisions = []
        planned = {cid: st.occupant for cid, st in view.states.items()}
        self._layout(view.platform)

        def place(rid: str, cid: str):
            planned[cid] = rid
            decisions.append(Decision(_MAP, request_id=rid, cluster_id=cid))

        for e in events:
            if e.kind is _FREED:
                kind = self._kinds[e.cluster_id]
                for rid in self._fifo:
                    if (planned[e.cluster_id] is None
                            and kind in view.tasks[rid].preferred_kinds):
                        # the loop breaks at once: a deque refuses to
                        # iterate on after a change
                        self._fifo.remove(rid)
                        place(rid, e.cluster_id)
                        break
            else:
                rid = e.request_id
                gpus = [c for c in self._gpu_ids if planned[c] is None]
                dlas = [c for c in self._dla_ids if planned[c] is None]
                if gpus:
                    place(rid, gpus[0])
                elif dlas and "DLA" in view.tasks[rid].preferred_kinds:
                    place(rid, dlas[0])
                else:
                    self._fifo.append(rid)
        return decisions


class StaticSubgraphPolicy(_BoardPolicy):
    """Split each model once, at arrival, along its compatibility cuts.

    The supported subgraphs (as one consolidated slice of the work) go
    to the DLA when it is free at that moment and the slice is worth
    offloading; the remainder joins a GPU FIFO.  The plan never changes
    afterwards: no migration, no freezing, and no DVFS control at all --
    clocks stay wherever they boot.
    """

    name = "static_subgraph"

    def __init__(self):
        self._gpu_fifo: deque[tuple[str, str | None, float | None]] = deque()

    def decide(self, view, events):
        decisions = []
        planned = {cid: st.occupant for cid, st in view.states.items()}
        self._layout(view.platform)

        def place(rid, part, work, native, cid):
            planned[cid] = rid
            decisions.append(Decision(
                _MAP, request_id=rid, cluster_id=cid,
                part=part, work_gflops=work, native=native))

        for e in events:
            if e.kind is _FREED:
                if self._kinds[e.cluster_id] != "GPU":
                    continue
                if self._gpu_fifo and planned[e.cluster_id] is None:
                    rid, part, work = self._gpu_fifo.popleft()
                    place(rid, part, work, False, e.cluster_id)
                continue

            rid = e.request_id
            task = view.tasks[rid]
            dlas = [c for c in self._dla_ids if planned[c] is None]
            gpus = [c for c in self._gpu_ids if planned[c] is None]
            frac = task.dla_fraction
            split = frac >= MIN_OFFLOAD_FRACTION and dlas
            if split:
                dla_work = frac * task.work_gflops
                gpu_work = task.work_gflops - dla_work
                place(rid, "dla", dla_work, True, dlas[0])
                if gpu_work > 0.0:
                    if gpus:
                        place(rid, "gpu", gpu_work, False, gpus[0])
                    else:
                        self._gpu_fifo.append((rid, "gpu", gpu_work))
            else:
                # nothing (worth) offloading, or the DLA is taken: the
                # whole request runs on the GPU
                if gpus:
                    place(rid, None, None, False, gpus[0])
                else:
                    self._gpu_fifo.append((rid, None, None))
        return decisions


POLICIES = {
    "twill": TwillPolicy,
    "gpu_queue": GpuQueuePolicy,
    "static_dvfs": StaticDvfsPolicy,
    "static_subgraph": StaticSubgraphPolicy,
}


def make_policy(name: str) -> Policy:
    try:
        return POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; expected one of {sorted(POLICIES)}"
        ) from None
