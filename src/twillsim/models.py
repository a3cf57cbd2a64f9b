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

from collections import namedtuple
from functools import cached_property
from itertools import compress
from operator import itemgetter

from ._fields import (_FLOAT_OVERFLOW, _INT, document, integer, integers,
                      reading)

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
    """One layer; kernel, stride and padding are None on an op that is
    not one of PARAM_OPS.  The constructor runs every layer check."""

    __slots__ = ()

    def __new__(cls, op_type: str, precision: str, flops: int,
                in_shape: tuple[int, ...], out_shape: tuple[int, ...],
                kernel: tuple[int, int] | None = None,
                stride: tuple[int, int] | None = None,
                padding: tuple[int, int] | None = None):
        # None is absent geometry here; the decoder refuses a null
        return _layer(op_type, precision, flops, in_shape, out_shape,
                      _ABSENT if kernel is None else kernel,
                      _ABSENT if stride is None else stride,
                      _ABSENT if padding is None else padding)


_ABSENT = object()  # a geometry field the layer does not have
_ARRAYS = (list, tuple)
_ONE = (1,)
_new = tuple.__new__


def _layer(op_type, precision, flops, in_shape, out_shape, kernel, stride,
           padding) -> LayerSpec:
    """The checked `LayerSpec` of these fields, with `_ABSENT` for an
    absent geometry field: every layer check, for the constructor and
    the decoder alike.

    The integers come first.  When each array is a list or a tuple and
    the geometry is all there as pairs or all absent, `flops` and every
    array entry are checked together: plain ints, one min per lower
    bound, one max.  Anything else is read field by field, the arrays in
    field order and then `flops`, which accepts what the pass leaves (an
    int subclass) or raises that field's error.  No generator, `try` or
    argument unpacking: each costs more than the pass saves.
    """
    values = None
    if type(in_shape) in _ARRAYS and type(out_shape) in _ARRAYS:
        if kernel is stride is padding is _ABSENT:
            ones = _ONE  # no entry that must be >= 1
            values = [flops, *in_shape, *out_shape]
        elif (type(kernel) in _ARRAYS and type(stride) in _ARRAYS
                and type(padding) in _ARRAYS
                and len(kernel) == len(stride) == len(padding) == 2):
            ones = [*kernel, *stride]  # >= 1; every other entry >= 0
            values = [flops, *in_shape, *out_shape, *padding, *ones]
    if (values is not None and _INT.issuperset(map(type, values))
            and min(values) >= 0
            and min(ones) >= 1 and max(values) < _FLOAT_OVERFLOW):
        in_shape, out_shape = tuple(in_shape), tuple(out_shape)
        if kernel is _ABSENT:
            kernel = stride = padding = None
        else:
            kernel, stride = tuple(kernel), tuple(stride)
            padding = tuple(padding)
    else:
        in_shape = integers(in_shape, "in_shape", ModelError, lo=0)
        out_shape = integers(out_shape, "out_shape", ModelError, lo=0)
        kernel = (None if kernel is _ABSENT
                  else integers(kernel, "kernel", ModelError, lo=1, length=2))
        stride = (None if stride is _ABSENT
                  else integers(stride, "stride", ModelError, lo=1, length=2))
        padding = (None if padding is _ABSENT
                   else integers(padding, "padding", ModelError, lo=0, length=2))
        flops = integer(flops, "flops", ModelError, lo=0)
    if not isinstance(op_type, str) or not isinstance(precision, str):
        raise ModelError("op_type and precision must be strings, not "
                         f"{op_type!r} and {precision!r}")
    # the kernel decides whether a layer has geometry; the rest follows it
    if (kernel is not None) != (op_type in PARAM_OPS) or (
            kernel is None and (stride is not None or padding is not None)):
        raise ModelError(
            f"{op_type}: kernel/stride/padding present iff op is one of {PARAM_OPS}"
        )
    if kernel is not None and (stride is None or padding is None):
        raise ModelError(f"{op_type}: incomplete conv geometry")
    return _new(LayerSpec, (op_type, precision, flops, in_shape, out_shape,
                            kernel, stride, padding))


_flops = itemgetter(2)  # LayerSpec.flops, read in C


class AppProfile(namedtuple("AppProfile",
                            ("name", "layers", "reference_workload"),
                            defaults=(1,))):
    """A parsed model: its layers and the workload unit their FLOPs cover.

    Priority, workload size and arrival belong to each request.
    """

    # no __slots__: the instance dict holds the cached total_flops

    def __new__(cls, name: str, layers, reference_workload: int = 1):
        if not isinstance(name, str):  # it is each TaskView.model
            raise ModelError(f"model name must be a string, not {name!r}")
        reference_workload = integer(reference_workload,
                                     f"{name}: reference_workload",
                                     ModelError, lo=1)
        # each entry is taken as a LayerSpec, as parse_model builds them:
        # a check per layer would cost ~1% of building the packaged runs
        if not isinstance(layers, _ARRAYS):
            raise ModelError(f"{name}: layers must be an array, not {layers!r}")
        if not layers:
            raise ModelError(f"{name}: descriptor has no layers")
        return super().__new__(cls, name, tuple(layers), reference_workload)

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

    def __new__(cls, name: str, supported_precisions, unsupported_ops,
                param_checked_ops, kernel_range, stride_range, padding_range,
                max_batch: int, max_spatial_dim: int):
        if not isinstance(name, str):
            raise ModelError(
                f"compatibility matrix name must be a string, not {name!r}")
        supported_precisions = _names(supported_precisions,
                                      "supported_precisions")
        unsupported_ops = _names(unsupported_ops, "unsupported_ops")
        param_checked_ops = _names(param_checked_ops, "param_checked_ops")
        if unsupported_ops & param_checked_ops:
            raise ModelError("an op cannot be both unsupported and param-checked")
        return super().__new__(
            cls, name, supported_precisions, unsupported_ops,
            param_checked_ops, _range(kernel_range, "kernel_range"),
            _range(stride_range, "stride_range"),
            _range(padding_range, "padding_range"),
            integer(max_batch, "max_batch", ModelError, lo=0),
            integer(max_spatial_dim, "max_spatial_dim", ModelError, lo=0))


class SignatureMap(namedtuple("SignatureMap", (
        "dla_flops_fraction", "preferred_clusters", "layer_feasible"))):
    """Per-model scheduling signature derived from the layer analysis;
    preferred_clusters holds cluster kinds in mapping-attempt order."""

    __slots__ = ()


def _names(value, field: str) -> frozenset[str]:
    # a string or an object would be read by its characters or keys
    if (not isinstance(value, (list, tuple, set, frozenset))
            or not {str}.issuperset(map(type, value))):
        raise ModelError(f"{field} must be an array of strings, not {value!r}")
    return frozenset(value)


def _range(value, field: str) -> tuple[int, int]:
    low, high = integers(value, field, ModelError, lo=0, length=2)
    if low > high:
        raise ModelError(f"{field} must run from low to high, not {[low, high]}")
    return low, high


def load_matrix(text: str) -> CompatibilityMatrix:
    doc = document(text, "compatibility matrix", ModelError)
    with reading("compatibility matrix", ModelError):
        return CompatibilityMatrix(
            doc.get("name", "unnamed"),
            *[doc[field] for field in CompatibilityMatrix._fields[1:]])


def _layers_from_list(entries, cap: int) -> tuple[LayerSpec, ...]:
    """Decode layer entries, sharing one LayerSpec among equal entries.

    Entries are grouped by `(op_type, flops)`.  An entry equal as a dict
    to one its group remembers shares that entry's layer (`list.index`
    compares in C, and equal dicts decode to equal layers; an explicit
    null is not an absent key).  A group remembers its first `cap`
    distinct entries; later ones are decoded each time.  An entry whose
    group key cannot be formed (not a dict, an absent field, an
    unhashable value) is decoded in a group of its own, which raises the
    error it always raised.  Each entry decoded is checked once, by
    `_layer`.
    """
    # per group: the remembered entries plus one scratch slot at the end,
    # and their layers; an entry goes in the scratch slot, so index()
    # finds it there when no remembered entry equals it, in one C scan
    # and without raising
    groups: dict[tuple, tuple[list, list[LayerSpec]]] = {}
    layers = []
    # outside the block: a `layers` value that cannot be iterated is a
    # malformed field of the descriptor, not of a layer entry
    entries = iter(entries)
    with reading("layer entry", ModelError):
        for d in entries:
            try:
                key = (d["op_type"], d["flops"])
                group = groups.get(key)
                if group is None:
                    group = groups[key] = ([None], [])
            except (KeyError, TypeError):
                group = ([None], [])
            seen, decoded = group
            seen[-1] = d
            i = seen.index(d)
            if i < len(decoded):
                layer = decoded[i]
            else:
                # an explicit null is no absent geometry: it is refused
                layer = _layer(d["op_type"], d["precision"], d["flops"],
                               d["in_shape"], d["out_shape"],
                               d.get("kernel", _ABSENT),
                               d.get("stride", _ABSENT),
                               d.get("padding", _ABSENT))
                if i < cap:
                    seen.append(d)  # remembered at i; the scratch slot moves on
                    decoded.append(layer)
            layers.append(layer)
    return tuple(layers)


def parse_model(descriptor_text: str) -> AppProfile:
    """Build an AppProfile from a JSON descriptor."""
    floats = []  # float literals, noted as the decoder meets them
    doc = document(descriptor_text, "model descriptor", ModelError,
                   parse_float=lambda s: floats.append(s) or float(s))
    with reading("model descriptor", ModelError):
        # 1, 1.0 and true are equal values, so an entry the readers
        # refuse could equal a valid one as a dict and share its layer: a
        # descriptor that spells a float or a bool shares no layer
        loose = floats or "true" in descriptor_text or "false" in descriptor_text
        profile = AppProfile(
            doc["name"],
            _layers_from_list(doc["layers"], 0 if loose else _GROUP_CAP),
            doc.get("reference_workload", 1))
    name = profile.name
    declared = doc.get("total_flops")
    if declared is not None and integer(
            declared, f"{name}: total_flops", ModelError,
            lo=0) != profile.total_flops:
        raise ModelError(f"{name}: declared total_flops {declared} "
                         f"!= layer sum {profile.total_flops}")
    # each layer's flops converts to a float; their sum, which the work
    # of a request is scaled from, must too
    integer(profile.total_flops, f"{name}: layer flops sum", ModelError, lo=0)
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
