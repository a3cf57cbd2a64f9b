"""The policy protocol: what a policy sees at each decide cycle, and the
decisions it may return.
"""

from __future__ import annotations

from collections.abc import Mapping
from enum import Enum
from typing import NamedTuple

from .hardware import ClusterKind, ClusterState, PlatformSpec


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
    arrival_ms: float
    preferred_kinds: tuple[str, ...]
    dla_fraction: float
    native: bool


class ControllerView(NamedTuple):
    """What a policy is handed at each call: the time, the board, a copy
    of the cluster states, and `tasks`, a read-only mapping of every
    task, DONE included, in creation order.  `tasks` does not change
    while the call that received it runs, and may change after that
    call returns: a policy that needs history keeps `dict(view.tasks)`,
    or the immutable `TaskView`s themselves."""

    now: float
    platform: PlatformSpec
    states: dict[str, ClusterState]
    tasks: Mapping[str, TaskView]
    dla_fallback_penalty: float


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


class _BoardPolicy(Policy):
    """A policy that keeps the board's layout: each cluster's kind name
    by id, in board order, and the sorted GPU and DLA ids."""

    _board = None

    def _layout(self, platform: PlatformSpec) -> None:
        """Derive the layout once per board, not on every call."""
        if platform is not self._board:
            self._board = platform
            kinds = self._kinds = {c.cluster_id: c.kind.name
                                   for c in platform.clusters}
            self._gpu_ids = sorted(c for c, k in kinds.items() if k == "GPU")
            self._dla_ids = sorted(c for c, k in kinds.items() if k == "DLA")
