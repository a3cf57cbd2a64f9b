"""Model analysis: descriptor parsing and DLA-affinity signatures.

A model descriptor is a per-layer table (op type, precision, FLOPs,
shapes, conv geometry).  Against a DLA compatibility matrix, each layer
is classified as DLA-feasible or GPU-only; the FLOPs-weighted feasible
fraction decides whether the model prefers the DLA at all.  Models whose
feasible fraction falls below the affinity threshold are treated as
GPU-only by the schedulers, because unsupported layers fall back at a
heavy penalty when the whole model is pinned to the DLA.

Descriptors repeat layers (a transformer block is the same table row
after row), so `parse_model` shares one `LayerSpec` among entries that
are equal as dicts, and `layer_affinity` classifies each distinct layer
once.  Entries are grouped by `(op_type, flops)` and each group
remembers its first `_GROUP_CAP` distinct entries; a later entry equal
to one of those shares its layer, any other entry is decoded on its
own.  An entry that carries a key the decoder does not read therefore
shares only with an identical entry.
"""

from __future__ import annotations

import json
from collections import namedtuple
from functools import cached_property
from itertools import compress
from operator import itemgetter

from ._fields import integer, integers

# Fraction of FLOPs that must be DLA-feasible before a model is
# considered a DLA candidate at all.
AFFINITY_THRESHOLD = 0.9

PARAM_OPS = ("Conv", "FullyConnected")

# distinct entries each (op_type, flops) group of a descriptor remembers:
# enough for every packaged model, and a cap keeps a descriptor of many
# distinct layers of equal FLOPs linear to parse
_GROUP_CAP = 8


class ModelError(ValueError):
    """Raised for malformed descriptors or compatibility matrices."""


class LayerSpec(namedtuple("LayerSpec", (
        "op_type", "precision", "flops", "in_shape", "out_shape", "kernel",
        "stride", "padding"))):
    __slots__ = ()

    # parameters spelled out: passing *args/**kwargs on to the base
    # doubles the cost of a layer, and a descriptor builds one per
    # distinct entry
    def __new__(cls, op_type: str, precision: str, flops: int,
                in_shape: tuple[int, ...], out_shape: tuple[int, ...],
                kernel: tuple[int, int] | None = None,
                stride: tuple[int, int] | None = None,
                padding: tuple[int, int] | None = None):
        if not isinstance(op_type, str) or not isinstance(precision, str):
            raise ModelError("op_type and precision must be strings, not "
                             f"{op_type!r} and {precision!r}")
        flops = integer(flops, "flops", ModelError, lo=0)
        has_geom = kernel is not None
        if has_geom != (op_type in PARAM_OPS):
            raise ModelError(
                f"{op_type}: kernel/stride/padding present iff op is one of {PARAM_OPS}"
            )
        if has_geom and (stride is None or padding is None):
            raise ModelError(f"{op_type}: incomplete conv geometry")
        return tuple.__new__(cls, (op_type, precision, flops, in_shape,
                                   out_shape, kernel, stride, padding))


_flops = itemgetter(2)  # LayerSpec.flops, read in C


class AppProfile(namedtuple("AppProfile",
                            ("name", "layers", "reference_workload"),
                            defaults=(1,))):
    """A parsed model: its layers and the workload unit their FLOPs cover.

    Priority, workload size and arrival belong to each request.
    """

    # no __slots__: the instance dict holds the cached total_flops

    @cached_property
    def total_flops(self) -> int:
        return sum(map(_flops, self.layers))

    def work_gflops(self, workload_size: int) -> float:
        """Work of a request of that size, scaled from the reference unit."""
        return self.total_flops / 1e9 * workload_size / self.reference_workload


class CompatibilityMatrix(namedtuple("CompatibilityMatrix", (
        "name", "supported_precisions", "unsupported_ops", "param_checked_ops",
        "kernel_range", "stride_range", "padding_range", "max_batch",
        "max_spatial_dim"))):
    __slots__ = ()

    def __new__(cls, name: str, supported_precisions: frozenset[str],
                unsupported_ops: frozenset[str],
                param_checked_ops: frozenset[str], kernel_range: tuple[int, int],
                stride_range: tuple[int, int], padding_range: tuple[int, int],
                max_batch: int, max_spatial_dim: int):
        if unsupported_ops & param_checked_ops:
            raise ModelError("an op cannot be both unsupported and param-checked")
        return super().__new__(cls, name, supported_precisions, unsupported_ops,
                               param_checked_ops, kernel_range, stride_range,
                               padding_range, max_batch, max_spatial_dim)


class SignatureMap(namedtuple("SignatureMap", (
        "dla_flops_fraction", "preferred_clusters", "layer_feasible"))):
    """Per-model scheduling signature derived from the layer analysis;
    preferred_clusters holds cluster kinds in mapping-attempt order."""

    __slots__ = ()


def _names(doc: dict, field: str) -> frozenset[str]:
    v = doc[field]
    # a string or an object would be read by its characters or keys
    if not isinstance(v, list) or not {str}.issuperset(map(type, v)):
        raise ModelError(f"{field} must be an array of strings, not {v!r}")
    return frozenset(v)


def _range(doc: dict, field: str) -> tuple[int, int]:
    low, high = integers(doc[field], field, ModelError, lo=0, length=2)
    if low > high:
        raise ModelError(f"{field} must run from low to high, not {[low, high]}")
    return low, high


def load_matrix(text: str) -> CompatibilityMatrix:
    try:
        doc = json.loads(text)
    except ValueError as e:  # a JSONDecodeError, or an int over 4300 digits
        raise ModelError(f"compatibility matrix is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ModelError(
            f"compatibility matrix must be a JSON object, not {type(doc).__name__}")
    try:
        return CompatibilityMatrix(
            name=doc.get("name", "unnamed"),
            supported_precisions=_names(doc, "supported_precisions"),
            unsupported_ops=_names(doc, "unsupported_ops"),
            param_checked_ops=_names(doc, "param_checked_ops"),
            kernel_range=_range(doc, "kernel_range"),
            stride_range=_range(doc, "stride_range"),
            padding_range=_range(doc, "padding_range"),
            max_batch=integer(doc["max_batch"], "max_batch", ModelError, lo=0),
            max_spatial_dim=integer(doc["max_spatial_dim"], "max_spatial_dim",
                                    ModelError, lo=0),
        )
    except KeyError as e:
        raise ModelError(f"compatibility matrix missing field {e.args[0]!r}") from None


def _layer_from_dict(d: dict) -> LayerSpec:
    try:
        return LayerSpec(
            d["op_type"],
            d["precision"],
            d["flops"],
            integers(d["in_shape"], "in_shape", ModelError, lo=0),
            integers(d["out_shape"], "out_shape", ModelError, lo=0),
            # an explicit null is no absent geometry: the reader refuses it
            integers(d["kernel"], "kernel", ModelError, lo=1, length=2)
            if "kernel" in d else None,
            integers(d["stride"], "stride", ModelError, lo=1, length=2)
            if "stride" in d else None,
            integers(d["padding"], "padding", ModelError, lo=0, length=2)
            if "padding" in d else None,
        )
    except KeyError as e:
        raise ModelError(f"layer entry missing field {e.args[0]!r}") from None
    except TypeError as e:  # an entry that is not an object
        raise ModelError(f"layer entry has a malformed field: {e}") from None


def _layers_from_list(entries, cap: int) -> tuple[LayerSpec, ...]:
    """Decode layer entries, sharing one LayerSpec among equal entries.

    Entries are grouped by `(op_type, flops)`.  An entry equal as a dict
    to one its group remembers shares that entry's layer (`list.index`
    compares in C, and equal dicts decode to equal layers; an explicit
    null is not an absent key).  A group remembers its first `cap`
    distinct entries; later ones are decoded each time.  An
    entry whose group key cannot be formed (not a dict, a missing field,
    an unhashable value) is decoded on its own, which raises the error
    it always raised.
    """
    # per group: the remembered entries plus one scratch slot at the end,
    # and their layers; an entry goes in the scratch slot, so index()
    # finds it there when no remembered entry equals it, in one C scan
    # and without raising
    groups: dict[tuple, tuple[list, list[LayerSpec]]] = {}
    layers = []
    for d in entries:
        try:
            key = (d["op_type"], d["flops"])
            group = groups.get(key)
        except (KeyError, TypeError):
            layers.append(_layer_from_dict(d))
            continue
        if group is None:
            group = groups[key] = ([None], [])
        seen, decoded = group
        seen[-1] = d
        i = seen.index(d)
        if i < len(decoded):
            layer = decoded[i]
        else:
            layer = _layer_from_dict(d)
            if i < cap:
                seen.append(d)  # remembered at i; the scratch slot moves on
                decoded.append(layer)
        layers.append(layer)
    return tuple(layers)


def parse_model(descriptor_text: str) -> AppProfile:
    """Build an AppProfile from a JSON descriptor."""
    floats = []  # float literals, noted as the decoder meets them
    try:
        doc = json.loads(descriptor_text,
                         parse_float=lambda s: floats.append(s) or float(s))
    except ValueError as e:  # a JSONDecodeError, or an int over 4300 digits
        raise ModelError(f"model descriptor is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ModelError(
            f"model descriptor must be a JSON object, not {type(doc).__name__}")
    try:
        name = doc["name"]
        if not isinstance(name, str):  # it is each TaskView.model
            raise ModelError(f"model name must be a string, not {name!r}")
        # 1, 1.0 and true are equal values, so an entry the readers
        # refuse could equal a valid one as a dict and share its layer: a
        # descriptor that spells a float or a bool shares no layer
        loose = floats or "true" in descriptor_text or "false" in descriptor_text
        profile = AppProfile(
            name, _layers_from_list(doc["layers"], 0 if loose else _GROUP_CAP),
            integer(doc.get("reference_workload", 1),
                    f"{name}: reference_workload", ModelError, lo=1))
    except KeyError as e:
        raise ModelError(f"model descriptor missing field {e.args[0]!r}") from None
    except TypeError as e:  # a layers field that is not an array
        raise ModelError(f"model descriptor has a malformed field: {e}") from None
    if not profile.layers:
        raise ModelError(f"{name}: descriptor has no layers")
    declared = doc.get("total_flops")
    if declared is not None and integer(
            declared, f"{name}: total_flops", ModelError,
            lo=0) != profile.total_flops:
        raise ModelError(f"{name}: declared total_flops {declared} "
                         f"!= layer sum {profile.total_flops}")
    return profile


def _in_range(pair: tuple[int, int], bounds: tuple[int, int]) -> bool:
    lo, hi = bounds
    for v in pair:  # a loop, not all() over a generator: half the cost
        if not lo <= v <= hi:
            return False
    return True


def dla_compatible(layer: LayerSpec, matrix: CompatibilityMatrix) -> bool:
    """True when the layer can execute natively on the DLA."""
    if layer.precision not in matrix.supported_precisions:
        return False
    op_type = layer.op_type
    if op_type in matrix.unsupported_ops:
        return False
    if op_type in matrix.param_checked_ops:
        if not (_in_range(layer.kernel, matrix.kernel_range)
                and _in_range(layer.stride, matrix.stride_range)
                and _in_range(layer.padding, matrix.padding_range)):
            return False
        in_shape = layer.in_shape
        if in_shape and in_shape[0] > matrix.max_batch:
            return False
        limit = matrix.max_spatial_dim
        for s in tuple(in_shape[2:]) + tuple(layer.out_shape[2:]):
            if s > limit:
                return False
    return True


def layer_affinity(profile: AppProfile, matrix: CompatibilityMatrix,
                   threshold: float = AFFINITY_THRESHOLD) -> SignatureMap:
    """Classify every layer and derive the model's scheduling signature."""
    layers = profile.layers
    # one dict probe per layer, by id (the profile keeps each layer
    # alive); building the distinct set in C first costs a second probe
    # per layer and measures slower
    verdicts: dict[int, bool] = {}
    feasible = []
    for l in layers:
        ok = verdicts.get(id(l))
        if ok is None:
            ok = verdicts[id(l)] = dla_compatible(l, matrix)
        feasible.append(ok)
    feasible = tuple(feasible)
    total = profile.total_flops
    if total > 0:
        dla_flops = sum(map(_flops, compress(layers, feasible)))
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
