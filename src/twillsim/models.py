"""Model analysis: descriptor parsing and DLA-affinity signatures.

A model descriptor is a per-layer table (op type, precision, FLOPs,
shapes, conv geometry).  Against a DLA compatibility matrix, each layer
is classified as DLA-feasible or GPU-only; the FLOPs-weighted feasible
fraction decides whether the model prefers the DLA at all.  Models whose
feasible fraction falls below the affinity threshold are treated as
GPU-only by the schedulers, because unsupported layers fall back at a
heavy penalty when the whole model is pinned to the DLA.

Descriptors repeat layers (a transformer block is the same table row
after row), so `parse_model` builds one `LayerSpec` per distinct entry
and shares it among the identical ones, and `layer_affinity` classifies
each distinct layer once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

# Fraction of FLOPs that must be DLA-feasible before a model is
# considered a DLA candidate at all.
AFFINITY_THRESHOLD = 0.9

PARAM_OPS = ("Conv", "FullyConnected")


class ModelError(ValueError):
    """Raised for malformed descriptors or compatibility matrices."""


@dataclass(frozen=True)
class LayerSpec:
    op_type: str
    precision: str
    flops: int
    in_shape: tuple[int, ...]
    out_shape: tuple[int, ...]
    kernel: tuple[int, int] | None = None
    stride: tuple[int, int] | None = None
    padding: tuple[int, int] | None = None

    def __post_init__(self):
        if self.flops < 0:
            raise ModelError(f"{self.op_type}: negative flops")
        has_geom = self.kernel is not None
        if has_geom != (self.op_type in PARAM_OPS):
            raise ModelError(
                f"{self.op_type}: kernel/stride/padding present iff op is one of {PARAM_OPS}"
            )
        if has_geom and (self.stride is None or self.padding is None):
            raise ModelError(f"{self.op_type}: incomplete conv geometry")


@dataclass(frozen=True)
class AppProfile:
    """A parsed model: its layers and the workload unit their FLOPs cover.

    Priority, workload size and arrival belong to each request.
    """

    name: str
    layers: tuple[LayerSpec, ...]
    reference_workload: int = 1

    @cached_property
    def total_flops(self) -> int:
        return sum(l.flops for l in self.layers)

    def work_gflops(self, workload_size: int) -> float:
        """Work of a request of that size, scaled from the reference unit."""
        return self.total_flops / 1e9 * workload_size / self.reference_workload


@dataclass(frozen=True)
class CompatibilityMatrix:
    name: str
    supported_precisions: frozenset[str]
    unsupported_ops: frozenset[str]
    param_checked_ops: frozenset[str]
    kernel_range: tuple[int, int]
    stride_range: tuple[int, int]
    padding_range: tuple[int, int]
    max_batch: int
    max_spatial_dim: int

    def __post_init__(self):
        if self.unsupported_ops & self.param_checked_ops:
            raise ModelError("an op cannot be both unsupported and param-checked")


@dataclass(frozen=True)
class SignatureMap:
    """Per-model scheduling signature derived from the layer analysis."""

    dla_flops_fraction: float
    preferred_clusters: tuple[str, ...]  # cluster kinds, mapping-attempt order
    layer_feasible: tuple[bool, ...]


def _pair(v) -> tuple[int, int]:
    a, b = v
    return int(a), int(b)


def load_matrix(text: str) -> CompatibilityMatrix:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ModelError(f"compatibility matrix is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ModelError(
            f"compatibility matrix must be a JSON object, not {type(doc).__name__}")
    try:
        return CompatibilityMatrix(
            name=doc.get("name", "unnamed"),
            supported_precisions=frozenset(doc["supported_precisions"]),
            unsupported_ops=frozenset(doc["unsupported_ops"]),
            param_checked_ops=frozenset(doc["param_checked_ops"]),
            kernel_range=_pair(doc["kernel_range"]),
            stride_range=_pair(doc["stride_range"]),
            padding_range=_pair(doc["padding_range"]),
            max_batch=int(doc["max_batch"]),
            max_spatial_dim=int(doc["max_spatial_dim"]),
        )
    except KeyError as e:
        raise ModelError(f"compatibility matrix missing field {e.args[0]!r}") from None
    except ModelError:
        raise
    except (TypeError, ValueError) as e:
        raise ModelError(f"compatibility matrix has a malformed field: {e}") from None


def _layer_from_dict(d: dict) -> LayerSpec:
    try:
        return LayerSpec(
            op_type=d["op_type"],
            precision=d["precision"],
            flops=int(d["flops"]),
            in_shape=tuple(int(x) for x in d["in_shape"]),
            out_shape=tuple(int(x) for x in d["out_shape"]),
            kernel=_pair(d["kernel"]) if "kernel" in d else None,
            stride=_pair(d["stride"]) if "stride" in d else None,
            padding=_pair(d["padding"]) if "padding" in d else None,
        )
    except KeyError as e:
        raise ModelError(f"layer entry missing field {e.args[0]!r}") from None
    except ModelError:
        raise
    except (TypeError, ValueError) as e:
        raise ModelError(f"layer entry has a malformed field: {e}") from None


# Marks a field absent from a layer entry; an explicit null is not absent.
_ABSENT = object()


def _layers_from_list(entries) -> tuple[LayerSpec, ...]:
    """Decode layer entries, one LayerSpec per distinct entry.

    An entry is keyed on exactly the raw values `_layer_from_dict`
    reads (each shape as the tuple it iterates), so entries with equal
    keys decode to equal layers and only the first is decoded.  An
    entry that is not a dict or holds unhashable values is decoded on
    its own, which raises the error it always raised.
    """
    seen: dict[tuple, LayerSpec] = {}
    layers = []
    for d in entries:
        try:
            get = d.get
            key = (get("op_type", _ABSENT), get("precision", _ABSENT),
                   get("flops", _ABSENT),
                   _seq_key(get("in_shape", _ABSENT)),
                   _seq_key(get("out_shape", _ABSENT)),
                   _seq_key(get("kernel", _ABSENT)),
                   _seq_key(get("stride", _ABSENT)),
                   _seq_key(get("padding", _ABSENT)))
            layer = seen.get(key)
        except (AttributeError, TypeError):
            key = layer = None
        if layer is None:
            layer = _layer_from_dict(d)
            if key is not None:
                seen[key] = layer
        layers.append(layer)
    return tuple(layers)


def _seq_key(v):
    return v if v is _ABSENT else tuple(v)


def parse_model(descriptor_text: str) -> AppProfile:
    """Build an AppProfile from a JSON descriptor."""
    try:
        doc = json.loads(descriptor_text)
    except json.JSONDecodeError as e:
        raise ModelError(f"model descriptor is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ModelError(
            f"model descriptor must be a JSON object, not {type(doc).__name__}")
    try:
        layers = _layers_from_list(doc["layers"])
        profile = AppProfile(
            name=doc["name"],
            layers=layers,
            reference_workload=int(doc.get("reference_workload", 1)),
        )
    except KeyError as e:
        raise ModelError(f"model descriptor missing field {e.args[0]!r}") from None
    except ModelError:
        raise
    except (TypeError, ValueError) as e:
        raise ModelError(f"model descriptor has a malformed field: {e}") from None
    if not profile.layers:
        raise ModelError(f"{profile.name}: descriptor has no layers")
    if profile.reference_workload <= 0:
        raise ModelError(f"{profile.name}: reference_workload must be positive")
    declared = doc.get("total_flops")
    if declared is not None and int(declared) != profile.total_flops:
        raise ModelError(
            f"{profile.name}: declared total_flops {declared} != layer sum {profile.total_flops}"
        )
    return profile


def _in_range(pair: tuple[int, int], bounds: tuple[int, int]) -> bool:
    lo, hi = bounds
    return all(lo <= v <= hi for v in pair)


def dla_compatible(layer: LayerSpec, matrix: CompatibilityMatrix) -> bool:
    """True when the layer can execute natively on the DLA."""
    if layer.precision not in matrix.supported_precisions:
        return False
    if layer.op_type in matrix.unsupported_ops:
        return False
    if layer.op_type in matrix.param_checked_ops:
        if not _in_range(layer.kernel, matrix.kernel_range):
            return False
        if not _in_range(layer.stride, matrix.stride_range):
            return False
        if not _in_range(layer.padding, matrix.padding_range):
            return False
        if layer.in_shape and layer.in_shape[0] > matrix.max_batch:
            return False
        spatial = tuple(layer.in_shape[2:]) + tuple(layer.out_shape[2:])
        if any(s > matrix.max_spatial_dim for s in spatial):
            return False
    return True


def layer_affinity(profile: AppProfile, matrix: CompatibilityMatrix,
                   threshold: float = AFFINITY_THRESHOLD) -> SignatureMap:
    """Classify every layer and derive the model's scheduling signature."""
    verdicts: dict[int, bool] = {}  # by id: the profile keeps each layer alive
    feasible = []
    for l in profile.layers:
        ok = verdicts.get(id(l))
        if ok is None:
            ok = verdicts[id(l)] = dla_compatible(l, matrix)
        feasible.append(ok)
    feasible = tuple(feasible)
    total = profile.total_flops
    if total > 0:
        dla_flops = sum(l.flops for l, ok in zip(profile.layers, feasible) if ok)
        fraction = dla_flops / total
    else:
        fraction = 0.0
    preferred = ("DLA", "GPU") if fraction >= threshold else ("GPU",)
    return SignatureMap(
        dla_flops_fraction=fraction,
        preferred_clusters=preferred,
        layer_feasible=feasible,
    )


def segment_fractions(profile: AppProfile,
                      workload_size: int) -> tuple[float, ...]:
    """Cumulative work fractions where a migrated task may resume.

    For a single-unit request the boundaries are the layer edges; for a
    multi-unit stream they are the unit edges (a completed unit is never
    recomputed, the unit in flight restarts).
    """
    if workload_size > 1:
        return tuple(i / workload_size for i in range(workload_size + 1))
    total = profile.total_flops
    if total == 0:
        return (0.0, 1.0)
    fractions = [0.0]
    acc = 0
    for l in profile.layers:
        acc += l.flops
        fractions.append(acc / total)
    return tuple(fractions)
