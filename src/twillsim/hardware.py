"""Hardware platform model: compute clusters, DVFS tables, and power.

A platform is a set of clusters (GPU and DLA) sharing one thermal design
power budget.  Each cluster has a frequency table with a throughput value
per level; power is an affine function of frequency and utilization:

    total = base + sum(idle_c + util_c * slope_c * freq_c)

The DLA has a single frequency level and does not participate in DVFS.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum


class ClusterKind(Enum):
    GPU = "GPU"
    DLA = "DLA"


class PlatformError(ValueError):
    """Raised for malformed or inconsistent platform configurations,
    including out-of-range engine knobs (control overheads, DLA fallback
    penalty, affinity threshold)."""


@dataclass(frozen=True)
class ClusterSpec:
    cluster_id: str
    kind: ClusterKind
    freq_levels_mhz: tuple[int, ...]
    throughput_gflops: tuple[float, ...]  # effective compute rate per level
    idle_power_mw: float
    active_power_slope_mw_per_mhz: float

    def __post_init__(self):
        if not self.freq_levels_mhz:
            raise PlatformError(f"{self.cluster_id}: empty frequency table")
        if len(self.freq_levels_mhz) != len(self.throughput_gflops):
            raise PlatformError(
                f"{self.cluster_id}: {len(self.freq_levels_mhz)} frequency levels "
                f"but {len(self.throughput_gflops)} throughput entries"
            )
        if not all(math.isfinite(f) and f > 0 for f in self.freq_levels_mhz):
            raise PlatformError(
                f"{self.cluster_id}: frequency levels must be finite and positive MHz")
        if any(b <= a for a, b in zip(self.freq_levels_mhz, self.freq_levels_mhz[1:])):
            raise PlatformError(f"{self.cluster_id}: frequency levels must be strictly ascending")
        if any(b <= a for a, b in zip(self.throughput_gflops, self.throughput_gflops[1:])):
            raise PlatformError(f"{self.cluster_id}: throughput must be strictly increasing")
        if self.kind is ClusterKind.DLA and len(self.freq_levels_mhz) != 1:
            raise PlatformError(f"{self.cluster_id}: DLA clusters have exactly one frequency level")
        if not all(math.isfinite(v) and v >= 0
                   for v in (self.idle_power_mw, self.active_power_slope_mw_per_mhz)):
            raise PlatformError(
                f"{self.cluster_id}: power coefficients must be finite and non-negative")
        if not all(math.isfinite(t) and t > 0 for t in self.throughput_gflops):
            raise PlatformError(
                f"{self.cluster_id}: throughput entries must be finite and positive")

    @property
    def num_levels(self) -> int:
        return len(self.freq_levels_mhz)

    @property
    def max_level(self) -> int:
        return len(self.freq_levels_mhz) - 1


@dataclass(frozen=True)
class PlatformSpec:
    name: str
    tdp_mw: float
    base_power_mw: float
    clusters: tuple[ClusterSpec, ...]

    def __post_init__(self):
        if not (math.isfinite(self.tdp_mw) and self.tdp_mw > 0):
            raise PlatformError(f"tdp_mw must be finite and positive, got {self.tdp_mw}")
        if not (math.isfinite(self.base_power_mw) and self.base_power_mw >= 0):
            raise PlatformError(
                f"base_power_mw must be finite and non-negative, got {self.base_power_mw}")
        ids = [c.cluster_id for c in self.clusters]
        if len(set(ids)) != len(ids):
            raise PlatformError("duplicate cluster_id")

    def cluster(self, cluster_id: str) -> ClusterSpec:
        for c in self.clusters:
            if c.cluster_id == cluster_id:
                return c
        raise PlatformError(f"unknown cluster {cluster_id!r}")


@dataclass(frozen=True)
class ClusterState:
    """Runtime state of one cluster: current DVFS level and occupant."""

    spec: ClusterSpec
    current_level: int = 0
    occupant: str | None = None  # request id of the mapped task, if any

    @property
    def freq_mhz(self) -> int:
        return self.spec.freq_levels_mhz[self.current_level]

    @property
    def throughput(self) -> float:
        return self.spec.throughput_gflops[self.current_level]


def set_frequency(state: ClusterState, level: int) -> ClusterState:
    """Return a copy of `state` pinned to the given table level."""
    if state.spec.kind is not ClusterKind.GPU:
        raise PlatformError(f"{state.spec.cluster_id}: DVFS is only supported on GPU clusters")
    if not 0 <= level < state.spec.num_levels:
        raise PlatformError(
            f"{state.spec.cluster_id}: level {level} outside table [0, {state.spec.max_level}]"
        )
    return ClusterState(state.spec, level, state.occupant)


def power_draw(platform: PlatformSpec, states: dict[str, ClusterState],
               utilization: dict[str, float]) -> float:
    """Total platform power in mW for the given cluster states.

    `utilization` maps cluster_id to a busy fraction in [0, 1]; clusters
    absent from the mapping count as idle.
    """
    total = platform.base_power_mw
    for spec in platform.clusters:
        state = states[spec.cluster_id]
        util = utilization.get(spec.cluster_id, 0.0)
        if not 0.0 <= util <= 1.0:
            raise PlatformError(f"{spec.cluster_id}: utilization {util} outside [0, 1]")
        total += spec.idle_power_mw
        total += util * spec.active_power_slope_mw_per_mhz * state.freq_mhz
    return total


def _cluster_from_dict(d: dict) -> ClusterSpec:
    try:
        return ClusterSpec(
            cluster_id=d["cluster_id"],
            kind=ClusterKind(d["kind"]),
            freq_levels_mhz=tuple(int(f) for f in d["freq_levels_mhz"]),
            throughput_gflops=tuple(float(t) for t in d["throughput_gflops"]),
            idle_power_mw=float(d["idle_power_mw"]),
            active_power_slope_mw_per_mhz=float(d["active_power_slope_mw_per_mhz"]),
        )
    except KeyError as e:
        raise PlatformError(f"cluster entry missing field {e.args[0]!r}") from None


def load_platform(text: str) -> PlatformSpec:
    """Parse a platform description from JSON text."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise PlatformError(f"platform config is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise PlatformError(
            f"platform config must be a JSON object, not {type(doc).__name__}")
    try:
        return PlatformSpec(
            name=doc.get("name", "unnamed"),
            tdp_mw=float(doc["tdp_mw"]),
            base_power_mw=float(doc["base_power_mw"]),
            clusters=tuple(_cluster_from_dict(c) for c in doc["clusters"]),
        )
    except KeyError as e:
        raise PlatformError(f"platform config missing field {e.args[0]!r}") from None
    except PlatformError:
        raise
    except (TypeError, ValueError) as e:
        raise PlatformError(f"platform config has a malformed field: {e}") from None


def initial_states(platform: PlatformSpec) -> dict[str, ClusterState]:
    """All clusters at their lowest level, unoccupied."""
    return {c.cluster_id: ClusterState(spec=c) for c in platform.clusters}
