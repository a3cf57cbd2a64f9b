"""Hardware platform model: compute clusters, DVFS tables, and power.

A platform is a set of clusters (GPU and DLA) sharing one thermal design
power budget.  Each cluster has a frequency table with a throughput value
per level.  A cluster draws active power exactly while it holds a task:

    total = base + sum(idle_c + busy_c * slope_c * freq_c)

with busy_c 1 while cluster c is occupied, else 0.

The DLA has a single frequency level and does not participate in DVFS.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum

from ._fields import document, integers, reading, real, text_id


class ClusterKind(Enum):
    GPU = "GPU"
    DLA = "DLA"


class PlatformError(ValueError):
    """Raised for malformed or inconsistent platform configurations,
    including out-of-range engine knobs (control overheads, DLA fallback
    penalty, affinity threshold)."""


class ClusterSpec(namedtuple("ClusterSpec", (
        "cluster_id", "kind", "freq_levels_mhz", "throughput_gflops",
        "idle_power_mw", "active_power_slope_mw_per_mhz"))):
    """One compute cluster; throughput_gflops is the effective compute
    rate at each of its frequency levels."""

    __slots__ = ()

    def __new__(cls, cluster_id: str, kind: ClusterKind, freq_levels_mhz,
                throughput_gflops, idle_power_mw: float,
                active_power_slope_mw_per_mhz: float):
        text_id(cluster_id, "cluster_id", PlatformError)
        if not isinstance(kind, ClusterKind):  # "DLA" would pass as neither
            raise PlatformError(
                f"{cluster_id}: kind must be a ClusterKind, not {kind!r}")
        levels = integers(freq_levels_mhz, f"{cluster_id}: freq_levels_mhz",
                          PlatformError, lo=1)
        if not isinstance(throughput_gflops, (list, tuple)):
            raise PlatformError(f"{cluster_id}: throughput_gflops must be an "
                                f"array, not {throughput_gflops!r}")
        throughput = tuple(real(t, f"{cluster_id}: throughput_gflops entry",
                                PlatformError, lo=0, strict=True)
                           for t in throughput_gflops)
        idle = real(idle_power_mw, f"{cluster_id}: idle_power_mw",
                    PlatformError, lo=0)
        slope = real(active_power_slope_mw_per_mhz,
                     f"{cluster_id}: active_power_slope_mw_per_mhz",
                     PlatformError, lo=0)
        if not levels:
            raise PlatformError(f"{cluster_id}: empty frequency table")
        if len(levels) != len(throughput):
            raise PlatformError(
                f"{cluster_id}: {len(levels)} frequency levels "
                f"but {len(throughput)} throughput entries"
            )
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise PlatformError(f"{cluster_id}: frequency levels must be strictly ascending")
        if any(b <= a for a, b in zip(throughput, throughput[1:])):
            raise PlatformError(f"{cluster_id}: throughput must be strictly increasing")
        if kind is ClusterKind.DLA and len(levels) != 1:
            raise PlatformError(f"{cluster_id}: DLA clusters have exactly one frequency level")
        return super().__new__(cls, cluster_id, kind, levels, throughput,
                               idle, slope)

    @property
    def num_levels(self) -> int:
        return len(self.freq_levels_mhz)

    @property
    def max_level(self) -> int:
        return len(self.freq_levels_mhz) - 1


class PlatformSpec(namedtuple("PlatformSpec",
                              ("name", "tdp_mw", "base_power_mw", "clusters"))):
    __slots__ = ()

    def __new__(cls, name: str, tdp_mw: float, base_power_mw: float,
                clusters):
        if not isinstance(name, str):
            raise PlatformError(f"platform name must be a string, not {name!r}")
        clusters = tuple(clusters)
        if not clusters:
            raise PlatformError(f"{name}: platform has no clusters")
        # every policy runs a GPU-only model there, and the FIFO baseline
        # runs every model there
        if not any(c.kind is ClusterKind.GPU for c in clusters):
            raise PlatformError(f"{name}: platform has no GPU cluster")
        tdp_mw = real(tdp_mw, "tdp_mw", PlatformError, lo=0, strict=True)
        base_power_mw = real(base_power_mw, "base_power_mw", PlatformError,
                             lo=0)
        ids = [c.cluster_id for c in clusters]
        if len(set(ids)) != len(ids):
            raise PlatformError("duplicate cluster_id")
        platform = super().__new__(cls, name, tdp_mw, base_power_mw, clusters)
        # each term is finite, but their sum may not be; power_draw would
        # report it as an inf in the trace
        if math.isinf(platform.peak_power_mw):
            raise PlatformError(
                f"{name}: peak power draw overflows: base_power_mw plus each "
                f"cluster's idle and active power at its top frequency is "
                f"not finite")
        return platform

    @property
    def peak_power_mw(self) -> float:
        """The draw with every cluster busy at its top frequency, the
        most power_draw reports."""
        busy = {c.cluster_id: ClusterState(c, c.max_level, "busy")
                for c in self.clusters}
        return power_draw(self, busy)

    def cluster(self, cluster_id: str) -> ClusterSpec:
        for c in self.clusters:
            if c.cluster_id == cluster_id:
                return c
        raise PlatformError(f"unknown cluster {cluster_id!r}")


class ClusterState(namedtuple("ClusterState",
                               ("spec", "current_level", "occupant"),
                               defaults=(0, None))):
    """Runtime state of one cluster: current DVFS level and occupant, the
    request id of the mapped task if any."""

    __slots__ = ()

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
    # positionally, past the Python-level named-tuple constructor
    return tuple.__new__(ClusterState, (state.spec, level, state.occupant))


def power_draw(platform: PlatformSpec,
               states: dict[str, ClusterState]) -> float:
    """Total platform power in mW for the given cluster states: each
    cluster's idle power, plus its active power at its current frequency
    while it has an occupant."""
    total = platform.base_power_mw
    for spec in platform.clusters:
        state = states[spec.cluster_id]
        total += spec.idle_power_mw
        if state.occupant is not None:
            # state.freq_mhz, without the property call
            total += (spec.active_power_slope_mw_per_mhz
                      * state.spec.freq_levels_mhz[state.current_level])
    return total


def _cluster_from_dict(d: dict) -> ClusterSpec:
    # a malformed field is worded by load_platform's block, which names
    # the platform config
    with reading("cluster entry", PlatformError, malformed=False):
        return ClusterSpec(
            cluster_id=d["cluster_id"],
            kind=ClusterKind(d["kind"]),
            freq_levels_mhz=d["freq_levels_mhz"],
            throughput_gflops=d["throughput_gflops"],
            idle_power_mw=d["idle_power_mw"],
            active_power_slope_mw_per_mhz=d["active_power_slope_mw_per_mhz"],
        )


def load_platform(text: str) -> PlatformSpec:
    """Parse a platform description from JSON text."""
    doc = document(text, "platform config", PlatformError)
    with reading("platform config", PlatformError):
        return PlatformSpec(
            name=doc.get("name", "unnamed"),
            tdp_mw=doc["tdp_mw"],
            base_power_mw=doc["base_power_mw"],
            clusters=tuple(_cluster_from_dict(c) for c in doc["clusters"]),
        )


def initial_states(platform: PlatformSpec) -> dict[str, ClusterState]:
    """All clusters at their lowest level, unoccupied."""
    return {c.cluster_id: ClusterState(spec=c) for c in platform.clusters}
