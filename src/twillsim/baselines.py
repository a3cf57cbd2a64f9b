"""Baseline schedulers: a GPU-only FIFO, a static arrival-time mapper
with uncapped DVFS, and a static subgraph splitter.

All three share two properties that separate them from the adaptive
scheduler: placement is decided once (no migration, no freezing), and
none of them track the power budget.  Each states only where an
arrival goes; what it cannot place at once waits in one shared FIFO.
"""

from __future__ import annotations

from collections import deque

# the Enum members as module globals (see policy.py)
from .policy import (
    _ARRIVAL,
    _MAP,
    _SET_FREQ,
    Decision,
    Policy,
    _BoardPolicy,
)
from .twill import TwillPolicy

# a static splitter does not bother offloading sub-5% crumbs of a model
MIN_OFFLOAD_FRACTION = 0.05

_GPU_ONLY = ("GPU",)


class _MapOnce(_BoardPolicy):
    """Placement decided once: a subclass's `_arrive(task, free_gpus,
    free_dlas, place)` maps an arrival through `place(request id, cluster
    id, part, work_gflops, native)`, or queues it in `_fifo` as (request
    id, part, work_gflops, the cluster kinds that suit it).  A freed
    cluster takes the first queued placement that suits its kind."""

    def __init__(self):
        self._fifo: deque[tuple] = deque()

    def decide(self, view, events):
        decisions = []
        planned = {cid: st.occupant for cid, st in view.states.items()}
        self._layout(view.platform)

        def place(rid, cid, part=None, work=None, native=False):
            planned[cid] = rid
            decisions.append(Decision(_MAP, request_id=rid, cluster_id=cid,
                                      part=part, work_gflops=work,
                                      native=native))

        for e in events:
            if e.kind is _ARRIVAL:
                self._arrive(view.tasks[e.request_id],
                             [c for c in self._gpu_ids if planned[c] is None],
                             [c for c in self._dla_ids if planned[c] is None],
                             place)
                continue
            # a batch is all arrivals or all completions: nothing placed
            # in it can have taken the freed cluster
            kind = self._kinds[e.cluster_id]
            for i, (rid, part, work, kinds) in enumerate(self._fifo):
                if kind in kinds:
                    # the loop breaks at once: a deque refuses to iterate
                    # on after a change
                    del self._fifo[i]
                    place(rid, e.cluster_id, part, work)
                    break
        return decisions


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


class GpuQueuePolicy(_RaceToIdle, _MapOnce):
    """Strict FIFO onto the GPU; the DLA is never used.

    The governor simply pins a busy GPU at its top frequency, trusting
    the binned clocks to be safe for GPU-only operation.
    """

    name = "gpu_queue"

    def _arrive(self, task, free_gpus, free_dlas, place):
        if free_gpus:
            place(task.request_id, free_gpus[0])
        else:
            self._fifo.append((task.request_id, None, None, _GPU_ONLY))


class StaticDvfsPolicy(_RaceToIdle, _MapOnce):
    """Map once at arrival, then race-to-idle at the top frequency.

    An arrival takes the GPU when free; a DLA-suited model (one whose
    affinity signature prefers the DLA) takes a free DLA instead;
    everything else waits in one FIFO and is placed on the first cluster
    that frees up and suits it.  The governor clocks a busy GPU to the
    top level without consulting the power budget, which is exactly how
    this scheme overshoots a shared cap when both clusters are loaded.
    """

    name = "static_dvfs"

    def _arrive(self, task, free_gpus, free_dlas, place):
        rid, kinds = task.request_id, task.preferred_kinds
        if free_gpus:
            place(rid, free_gpus[0])
        elif free_dlas and "DLA" in kinds:
            place(rid, free_dlas[0])
        else:
            self._fifo.append((rid, None, None, kinds))


class StaticSubgraphPolicy(_MapOnce):
    """Split each model once, at arrival, along its compatibility cuts.

    The supported subgraphs (as one consolidated slice of the work) go
    to the DLA when it is free at that moment and the slice is worth
    offloading; the remainder joins a GPU FIFO.  The plan never changes
    afterwards: no migration, no freezing, and no DVFS control at all --
    clocks stay wherever they boot.
    """

    name = "static_subgraph"

    def _arrive(self, task, free_gpus, free_dlas, place):
        rid, frac = task.request_id, task.dla_fraction
        part = work = None  # the whole request, unless the DLA takes a slice
        if frac >= MIN_OFFLOAD_FRACTION and free_dlas:
            dla_work = frac * task.work_gflops
            place(rid, free_dlas[0], "dla", dla_work, True)
            part, work = "gpu", task.work_gflops - dla_work
            if not work > 0.0:
                return
        if free_gpus:
            place(rid, free_gpus[0], part, work)
        else:
            self._fifo.append((rid, part, work, _GPU_ONLY))


POLICIES = {p.name: p for p in (TwillPolicy, GpuQueuePolicy, StaticDvfsPolicy,
                                StaticSubgraphPolicy)}


def make_policy(name: str) -> Policy:
    try:
        return POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; expected one of {sorted(POLICIES)}"
        ) from None
