"""Descriptor parsing and DLA-compatibility classification."""

import hashlib
import json
import random

import pytest

from twillsim import (
    AFFINITY_THRESHOLD,
    AppProfile,
    CompatibilityMatrix,
    LayerSpec,
    ModelError,
    dla_compatible,
    layer_affinity,
    load_matrix,
    parse_model,
)
import twillsim
from twillsim import presets, zoo
from twillsim._fields import _FLOAT_OVERFLOW, integer, integers, reading
from twillsim.models import PARAM_OPS, _layers_from_list, segment_fractions
import twillsim.models
from test_boundary_fuzz import DROP, VALUES

DENSE_CONV_MODELS = ["vgg-19", "resnet-50", "resnet-152"]


@pytest.fixture()
def matrix():
    return load_matrix(presets.matrix_text())


def _decode(entry):
    """`entry`, decoded on its own."""
    return _layers_from_list([entry], 0)[0]


def _profile(name):
    return parse_model(presets.model_text(name))


@pytest.mark.parametrize("name", DENSE_CONV_MODELS)
def test_conv_flops_recomputed_from_shapes(name):
    """Conv/FC FLOP counts must equal 2*K*K*Cin*Cout*Hout*Wout (dense)
    resp. 2*Nin*Nout, recomputed here from the shapes alone.

    Only checked on models without grouped convolutions.
    """
    profile = _profile(name)
    checked = 0
    for layer in profile.layers:
        if layer.op_type == "Conv":
            cin = layer.in_shape[1]
            cout, hout, wout = layer.out_shape[1], layer.out_shape[2], layer.out_shape[3]
            k = layer.kernel[0] * layer.kernel[1]
            assert layer.flops == 2 * k * cin * cout * hout * wout, layer
            checked += 1
        elif layer.op_type == "FullyConnected":
            assert layer.flops == 2 * layer.in_shape[-1] * layer.out_shape[-1], layer
            checked += 1
    assert checked > 10


def test_declared_total_must_match_layer_sum():
    doc = json.loads(presets.model_text("vgg-19"))
    doc["total_flops"] += 1
    with pytest.raises(ModelError, match="total_flops"):
        parse_model(json.dumps(doc))


def test_a_layer_sum_past_the_float_range_is_refused():
    # each layer converts to a float, but the sum that scales a request's
    # work does not; it used to end in an OverflowError
    doc = json.loads(presets.model_text("vgg-19"))
    del doc["total_flops"]
    for layer in doc["layers"][:2]:
        layer["flops"] = 2 ** 1023
    with pytest.raises(ModelError, match=r"^vgg-19: layer flops sum must "
                       r"convert to a finite float, not \d+$"):
        parse_model(json.dumps(doc))


def test_parse_model_defaults_from_descriptor():
    profile = _profile("bert-base")
    assert profile.reference_workload == 128
    # a request carries its own size: a descriptor's default_workload_size
    # is ignored like any unknown key
    doc = json.loads(presets.model_text("bert-base"))
    doc["default_workload_size"] = 7
    assert parse_model(json.dumps(doc)) == profile


def test_workload_scaling():
    vgg = _profile("vgg-19")
    assert vgg.work_gflops(32) == pytest.approx(32 * vgg.work_gflops(1))
    # tokens scale against the descriptor's reference sequence length
    bert = _profile("bert-base")
    assert bert.work_gflops(128) == pytest.approx(bert.total_flops / 1e9)


def test_parse_model_rejects_bad_input():
    with pytest.raises(ModelError):
        parse_model("{")
    doc = json.loads(presets.model_text("vgg-19"))
    del doc["name"]
    with pytest.raises(ModelError, match="name"):
        parse_model(json.dumps(doc))
    doc = json.loads(presets.model_text("vgg-19"))
    doc["layers"] = []
    del doc["total_flops"]
    with pytest.raises(ModelError, match="no layers"):
        parse_model(json.dumps(doc))


@pytest.mark.parametrize("name", presets.available_models())
def test_interned_layers_equal_a_per_entry_decode(name):
    entries = json.loads(presets.model_text(name))["layers"]
    layers = _profile(name).layers
    assert len(layers) == len(entries)
    for entry, layer in zip(entries, layers):
        assert layer == _decode(entry)
    # identical entries share one object, distinct ones never do
    first = {}
    for entry, layer in zip(entries, layers):
        assert first.setdefault(json.dumps(entry, sort_keys=True), layer) is layer
    assert len({id(l) for l in layers}) == len(first) < len(entries)


def _vgg_with_layers(*extra):
    doc = json.loads(presets.model_text("vgg-19"))
    doc["layers"] += list(extra)
    del doc["total_flops"]
    return json.dumps(doc)


def _first_entry(op_type):
    doc = json.loads(presets.model_text("vgg-19"))
    return next(l for l in doc["layers"] if l["op_type"] == op_type)


def test_explicit_null_geometry_is_not_an_absent_one():
    relu = _first_entry("Relu")
    for field in ("kernel", "stride", "padding"):
        with pytest.raises(ModelError, match="must be an array, not None"):
            parse_model(_vgg_with_layers(relu, {**relu, field: None}))


def _without(entry, field):
    return {k: v for k, v in entry.items() if k != field}


@pytest.mark.parametrize("bad", [
    [1, 2],
    "Relu",
    None,
    _without(_first_entry("Relu"), "flops"),
    _without(_first_entry("Conv"), "in_shape"),
    {**_first_entry("Relu"), "flops": "lots"},
    {**_first_entry("Relu"), "in_shape": [[1, 64]]},
    {**_first_entry("Conv"), "kernel": [3, 3, 3]},
    {**_first_entry("Conv"), "stride": None},
    {**_first_entry("Conv"), "flops": -1},
    {**_first_entry("Conv"), "flops": float("inf")},
    {**_first_entry("Relu"), "op_type": ["Relu"]},
    {**_first_entry("Relu"), "precision": ["FP16"]},
    {**_first_entry("Relu"), "op_type": 5},
    {**_first_entry("Relu"), "precision": None},
    # strings and objects, once read by their characters or keys
    {**_first_entry("Relu"), "in_shape": "1234"},
    {**_first_entry("Relu"), "out_shape": "1"},
    {**_first_entry("Relu"), "in_shape": {"1": 0, "64": 0}},
    {**_first_entry("Conv"), "kernel": "33"},
    {**_first_entry("Conv"), "stride": {"1": 0, "2": 0}},
    {**_first_entry("Conv"), "padding": "11"},
])
def test_malformed_entry_after_an_identical_valid_one(bad):
    """Interning never lets a bad entry borrow a valid twin's layer, and
    the error is the one the entry raises when decoded on its own."""
    with pytest.raises(ModelError) as alone:
        _decode(bad)
    twin = _first_entry("Conv" if isinstance(bad, dict) and "kernel" in bad
                        else "Relu")
    with pytest.raises(ModelError) as parsed:
        parse_model(_vgg_with_layers(twin, bad))
    assert str(parsed.value) == str(alone.value)


@pytest.mark.parametrize("field,value", [
    ("in_shape", "1234"), ("out_shape", "1"), ("in_shape", {"1": 0}),
    ("kernel", "33"), ("stride", {"1": 0, "2": 0}), ("padding", "11"),
])
def test_array_fields_must_be_arrays(field, value):
    entry = {**_first_entry("Conv"), field: value}
    with pytest.raises(ModelError) as e:
        parse_model(_vgg_with_layers(entry))
    assert str(e.value).endswith(f"{field} must be an array, not {value!r}")


@pytest.mark.parametrize("value", [5, None, ["x"], {"n": "x"}])
def test_model_name_must_be_a_string(value):
    doc = json.loads(presets.model_text("vgg-19"))
    doc["name"] = value
    with pytest.raises(ModelError) as e:
        parse_model(json.dumps(doc))
    assert str(e.value) == f"model name must be a string, not {value!r}"


def _descriptor(entries):
    return json.dumps({"name": "probe", "layers": entries})


def _variant(rng, entry):
    """An entry as a descriptor may spell it: equal as a dict to the
    packaged one (keys permuted), or not (an extra key the decoder does
    not read)."""
    roll = rng.random()
    if roll < 0.25:
        return dict(rng.sample(list(entry.items()), len(entry)))
    if roll < 0.45:
        return {**entry, "name": rng.choice(("a", "b"))}
    return dict(entry)


def _refused_twin(rng, twin):
    """A twin of a valid entry that the readers refuse, most of them equal
    to it as a dict: an explicit null where the field is absent, FLOPs
    as a float, or a batch of 1 as a JSON true."""
    roll = rng.random()
    if roll < 0.3:
        return {**twin, "kernel" if "kernel" not in twin else "stride": None}
    if roll < 0.6:
        return {**twin, "flops": float(twin["flops"])}
    return {**twin, "in_shape": [True, *twin["in_shape"][1:]]}


def test_layers_are_shared_exactly_among_equal_entries():
    rng = random.Random(20261018)
    # at most two packaged entries per (op_type, flops) group, so no group
    # holds more distinct entries (3 spellings each) than it remembers
    by_group = {}
    for name in presets.available_models():
        for entry in json.loads(presets.model_text(name))["layers"]:
            kept = by_group.setdefault((entry["op_type"], entry["flops"]), [])
            if entry not in kept and len(kept) < 2:
                kept.append(entry)
    packaged = [e for kept in by_group.values() for e in kept]
    for _ in range(60):
        pool = rng.sample(packaged, 12)
        entries = [_variant(rng, rng.choice(pool)) for _ in range(40)]
        if rng.random() < 0.3:
            entries.insert(rng.randrange(len(entries) + 1),
                           _refused_twin(rng, rng.choice(entries)))
        decoded = []
        for entry in entries:
            try:
                decoded.append(_decode(entry))
            except ModelError as alone:
                with pytest.raises(ModelError) as parsed:
                    parse_model(_descriptor(entries))
                assert str(parsed.value) == str(alone)
                break
        else:
            layers = parse_model(_descriptor(entries)).layers
            assert layers == tuple(decoded)
            for a, la in zip(entries, layers):
                for b, lb in zip(entries, layers):
                    assert (la is lb) == (a == b)


def test_a_full_group_decodes_later_entries_again():
    entries = [{"op_type": "Reshape", "precision": "FP16", "flops": 0,
                "in_shape": [1, i], "out_shape": [i, 1]} for i in range(1000)]
    layers = parse_model(_descriptor(
        entries + [dict(entries[0]), dict(entries[500])])).layers
    assert layers[1000] is layers[0]
    assert layers[1001] == layers[500]
    assert layers[1001] is not layers[500]


@pytest.mark.parametrize("declared", ["abc", [1], float("nan"), float("inf"),
                                      {"flops": 1}])
def test_non_integer_total_flops_is_a_model_error(declared):
    doc = json.loads(presets.model_text("vgg-19"))
    doc["total_flops"] = declared
    with pytest.raises(ModelError,
                       match="vgg-19: total_flops must be an integer, not"):
        parse_model(json.dumps(doc))


def test_reference_workload_must_be_positive():
    doc = json.loads(presets.model_text("bert-base"))
    for value in (0, -128):
        doc["reference_workload"] = value
        with pytest.raises(ModelError, match="reference_workload"):
            parse_model(json.dumps(doc))


@pytest.mark.parametrize("text", ["[]", "5", '"vgg-19"', "null"])
def test_top_level_must_be_an_object(text):
    with pytest.raises(ModelError, match="JSON object"):
        parse_model(text)
    with pytest.raises(ModelError, match="JSON object"):
        load_matrix(text)


@pytest.mark.parametrize("field", ["kernel_range", "stride_range",
                                   "padding_range"])
def test_matrix_ranges_must_be_arrays(field):
    doc = json.loads(presets.matrix_text())
    doc[field] = "15"  # once read as (1, 5)
    with pytest.raises(ModelError) as e:
        load_matrix(json.dumps(doc))
    assert str(e.value).endswith(f"{field} must be an array, not '15'")


@pytest.mark.parametrize("field,value", [
    ("supported_precisions", "FP16"),  # once frozenset({'F', 'P', '1', '6'})
    ("unsupported_ops", {"MatMul": 1}),  # once read by its keys
    ("param_checked_ops", [1, 2]),
    ("supported_precisions", None),
])
def test_matrix_name_sets_must_be_arrays_of_strings(field, value):
    doc = json.loads(presets.matrix_text())
    doc[field] = value
    with pytest.raises(ModelError, match=f"{field} must be an array of strings"):
        load_matrix(json.dumps(doc))


@pytest.mark.parametrize("field", ["kernel_range", "stride_range",
                                   "padding_range"])
def test_matrix_ranges_run_from_low_to_high(field):
    doc = json.loads(presets.matrix_text())
    doc[field] = [16, 1]
    with pytest.raises(ModelError,
                       match=rf"{field} must run from low to high, not \[16, 1\]"):
        load_matrix(json.dumps(doc))
    doc[field] = [3, 3]
    assert getattr(load_matrix(json.dumps(doc)), field) == (3, 3)


@pytest.mark.parametrize("field,value,refusal", [
    # once matched as substrings of "FP16"
    ("supported_precisions", "FP16",
     "supported_precisions must be an array of strings, not 'FP16'"),
    ("unsupported_ops", ["Softmax", 5],
     r"unsupported_ops must be an array of strings, not \['Softmax', 5\]"),
    ("param_checked_ops", {"Conv", "MatMul"},
     "an op cannot be both unsupported and param-checked"),
    ("kernel_range", (5, 1),
     r"kernel_range must run from low to high, not \[5, 1\]"),
    ("stride_range", "15", "stride_range must be an array, not '15'"),
    ("padding_range", (0, 1, 2),
     r"padding_range must be an array of 2 integers, not \(0, 1, 2\)"),
    ("max_batch", -3, "max_batch must be >= 0, not -3"),
    ("max_spatial_dim", 2.0, "max_spatial_dim must be an integer, not 2.0"),
], ids=["precisions_string", "ops_int", "ops_overlap", "kernel_reversed",
        "stride_string", "padding_triple", "batch_negative",
        "spatial_float"])
def test_a_hand_built_matrix_checks_each_field(matrix, field, value,
                                               refusal):
    with pytest.raises(ModelError, match=f"^{refusal}$"):
        CompatibilityMatrix(**{**matrix._asdict(), field: value})


def test_a_hand_built_matrix_stores_what_load_matrix_stores(matrix):
    assert CompatibilityMatrix(**matrix._asdict()) == matrix
    # any collection of names is a frozenset, and a range a tuple
    built = CompatibilityMatrix(**{
        **matrix._asdict(),
        "supported_precisions": ["INT8", "FP16"],
        "param_checked_ops": ("Conv", "FullyConnected"),
        "unsupported_ops": set(matrix.unsupported_ops),
        "kernel_range": [1, 16]})
    assert built == matrix
    assert type(built.supported_precisions) is frozenset
    assert type(built.kernel_range) is tuple


@pytest.mark.parametrize("name", [5, None, ["m"]])
def test_a_matrix_name_must_be_a_string(matrix, name):
    refusal = f"compatibility matrix name must be a string, not {name!r}"
    with pytest.raises(ModelError) as built:
        CompatibilityMatrix(**{**matrix._asdict(), "name": name})
    doc = json.loads(presets.matrix_text())
    doc["name"] = name
    with pytest.raises(ModelError) as loaded:
        load_matrix(json.dumps(doc))
    assert str(built.value) == str(loaded.value) == refusal


@pytest.mark.parametrize("field,value,refusal", [
    ("name", 5, "model name must be a string, not 5"),
    ("reference_workload", 0, "vgg-19: reference_workload must be >= 1, not 0"),
    ("reference_workload", 2.0,
     "vgg-19: reference_workload must be an integer, not 2.0"),
    ("layers", [], "vgg-19: descriptor has no layers"),
], ids=["int_name", "zero_workload", "float_workload", "no_layers"])
def test_a_hand_built_profile_checks_each_field(field, value, refusal):
    profile = _profile("vgg-19")
    with pytest.raises(ModelError, match=f"^{refusal}$"):
        AppProfile(**{**profile._asdict(), field: value})
    # parse_model words the same fault the same way
    doc = json.loads(presets.model_text("vgg-19"))
    doc[field] = value
    del doc["total_flops"]
    with pytest.raises(ModelError, match=f"^{refusal}$"):
        parse_model(json.dumps(doc))
    assert AppProfile(**profile._asdict()) == profile


def test_layer_geometry_invariant():
    # kernel/stride/padding appear exactly on Conv and FullyConnected
    with pytest.raises(ModelError):
        LayerSpec("Relu", "FP16", 10, (1, 64), (1, 64), kernel=(3, 3),
                  stride=(1, 1), padding=(0, 0))
    with pytest.raises(ModelError):
        LayerSpec("Conv", "FP16", 10, (1, 3, 8, 8), (1, 8, 8, 8))


@pytest.mark.parametrize("op,geometry", [
    ("Relu", {"stride": [1, 1]}), ("Relu", {"padding": [0, 0]}),
    ("Relu", {"stride": [1, 1], "padding": [0, 0]}),
    ("Conv", {"stride": [1, 1], "padding": [0, 0]}),
])
def test_the_kernel_decides_whether_a_layer_has_geometry(op, geometry):
    # a Relu carrying a stride was once kept, stride and all
    refusal = (f"^{op}: kernel/stride/padding present iff op is one of "
               rf"\('Conv', 'FullyConnected'\)$")
    entry = {**_first_entry(op), **geometry}
    entry.pop("kernel", None)
    with pytest.raises(ModelError, match=refusal):
        LayerSpec(**entry)
    with pytest.raises(ModelError, match=refusal):
        parse_model(_descriptor([entry]))


def test_a_hand_built_profile_holds_an_array_of_layers():
    # a list was once kept, and the profile could not be hashed
    for layers in (5, None, {"a": 1}, "ab"):
        with pytest.raises(ModelError,
                           match=f"^m: layers must be an array, not {layers!r}$"):
            AppProfile("m", layers)
    layers = list(_profile("vgg-19").layers)
    profile = AppProfile("m", layers)
    assert type(profile.layers) is tuple and profile.layers == tuple(layers)
    hash(profile)


def test_a_hand_built_layer_checks_its_arrays():
    with pytest.raises(ModelError, match="^in_shape must be an array, not 'ab'$"):
        LayerSpec("Relu", "FP16", 1, "ab", None)
    with pytest.raises(ModelError,
                       match=r"^kernel entries must be >= 1, not \(0, 3\)$"):
        LayerSpec("Conv", "FP16", 1, (1, 3, 8, 8), (1, 8, 8, 8), kernel=(0, 3),
                  stride=(1, 1), padding=(0, 0))
    # None is absent geometry, so a layer rebuilds from its own fields
    relu = LayerSpec("Relu", "FP16", 1, [1, 64], [1, 64], None, None, None)
    assert LayerSpec(*relu) == relu == ("Relu", "FP16", 1, (1, 64), (1, 64),
                                        None, None, None)


class _Int(int):
    def __repr__(self):
        return f"_Int({int(self)})"


def _read_layer(entry):
    """`entry` as read field by field: each array by `integers`, in field
    order, then the op, the precision, the FLOPs and the geometry; an
    absent geometry field is an absent key."""
    with reading("layer entry", ModelError):
        op_type, precision, flops = (entry["op_type"], entry["precision"],
                                     entry["flops"])
        fields = [integers(entry["in_shape"], "in_shape", ModelError, lo=0),
                  integers(entry["out_shape"], "out_shape", ModelError, lo=0)]
        for field, lo in (("kernel", 1), ("stride", 1), ("padding", 0)):
            fields.append(integers(entry[field], field, ModelError, lo=lo,
                                   length=2) if field in entry else None)
        if not isinstance(op_type, str) or not isinstance(precision, str):
            raise ModelError("op_type and precision must be strings, not "
                             f"{op_type!r} and {precision!r}")
        flops = integer(flops, "flops", ModelError, lo=0)
        has_geom = "kernel" in entry
        if has_geom != (op_type in PARAM_OPS) or not (
                has_geom or {"stride", "padding"}.isdisjoint(entry)):
            raise ModelError(f"{op_type}: kernel/stride/padding present iff op "
                             f"is one of {PARAM_OPS}")
        if has_geom and not ("stride" in entry and "padding" in entry):
            raise ModelError(f"{op_type}: incomplete conv geometry")
        return tuple.__new__(LayerSpec, (op_type, precision, flops, *fields))


def _outcome(build, entry):
    """repr of the layer `build(entry)` returns (types and all), or its
    refusal, each beside the field-by-field reading's."""
    try:
        expected = repr(_read_layer(entry))
    except ModelError as e:
        expected = f"refused: {e}"
    try:
        got = repr(build(entry))
    except ModelError as e:
        got = f"refused: {e}"
    return got, expected


# beyond the fuzz values: a string, the float range's edge, an int subclass
_ODD_VALUES = ("11", 2 ** 1024, _FLOAT_OVERFLOW - 1, _Int(3))
_ODD_ARRAYS = ((3, 3), [True, 3], [_Int(3), 2], [2 ** 1024, 1],
               [_FLOAT_OVERFLOW], [_FLOAT_OVERFLOW - 1],
               [_FLOAT_OVERFLOW - 1, 2], [3, 3, 3], [], [0, 0], [1, 1],
               [3, -1])
# a Relu whose shapes hold a single 0: an array set on it is every
# nonzero entry of the layer, so it alone meets the sum bound, and an
# empty in_shape leaves the layer no entry at all
_ZEROS = {"op_type": "Relu", "precision": "FP16", "flops": 0,
          "in_shape": [0], "out_shape": []}


def _odd_entries():
    """Entries with one field changed: each field set to each fuzz value,
    or to an array holding one, or to an array that is odd in itself, on
    a Conv, a Relu and a layer of zeros."""
    for base in (_first_entry("Conv"), _first_entry("Relu"), _ZEROS):
        yield base
        for field in LayerSpec._fields:
            values = (*VALUES, *_ODD_VALUES, *_ODD_ARRAYS,
                      *([v, 2] for v in VALUES if v is not DROP))
            for value in values:
                if value is DROP:
                    yield _without(base, field)
                else:
                    yield {**base, field: value}


def test_the_one_pass_accepts_exactly_what_the_readers_accept(monkeypatch):
    reads = []

    def counted(*args, **kwargs):
        reads.append(args[1])
        return integers(*args, **kwargs)

    monkeypatch.setattr(twillsim.models, "integers", counted)
    one_pass, readers, cases = 0, 0, 0
    for entry in _odd_entries():
        # a one-entry descriptor: JSON spells a tuple as a list and an
        # int subclass as an int
        text = _descriptor([entry])
        got, expected = _outcome(lambda e: parse_model(text).layers[0],
                                 json.loads(text)["layers"][0])
        assert got == expected, entry
        # built by hand, where None is absent geometry and every other
        # value is kept as given
        if set(LayerSpec._fields[:5]) <= entry.keys():
            present = {k: v for k, v in entry.items() if v is not None
                       or k not in ("kernel", "stride", "padding")}
            del reads[:]
            got, expected = _outcome(lambda e: LayerSpec(**e), present)
            assert got == expected, entry
            if not got.startswith("refused"):
                if reads:
                    readers += 1
                else:
                    one_pass += 1
        cases += 1
    assert cases > 500
    # the pass takes the common layer and leaves an odd one to the readers
    assert one_pass and readers


def test_compatibility_brute_force(matrix):
    """Re-derive every layer's verdict straight from the matrix JSON and
    compare with dla_compatible across the whole model library."""
    raw = json.loads(presets.matrix_text())
    k_lo, k_hi = raw["kernel_range"]
    s_lo, s_hi = raw["stride_range"]
    p_lo, p_hi = raw["padding_range"]

    def expected(layer):
        if layer.precision not in raw["supported_precisions"]:
            return False
        if layer.op_type in raw["unsupported_ops"]:
            return False
        if layer.op_type in raw["param_checked_ops"]:
            if not (k_lo <= layer.kernel[0] <= k_hi and k_lo <= layer.kernel[1] <= k_hi):
                return False
            if not (s_lo <= layer.stride[0] <= s_hi and s_lo <= layer.stride[1] <= s_hi):
                return False
            if not (p_lo <= layer.padding[0] <= p_hi and p_lo <= layer.padding[1] <= p_hi):
                return False
            if layer.in_shape[0] > raw["max_batch"]:
                return False
            for s in list(layer.in_shape[2:]) + list(layer.out_shape[2:]):
                if s > raw["max_spatial_dim"]:
                    return False
        return True

    total = 0
    for name in presets.available_models():
        profile = _profile(name)
        for layer in profile.layers:
            assert dla_compatible(layer, matrix) == expected(layer), (name, layer)
            total += 1
    assert total > 2000


def test_fp32_layers_are_rejected(matrix):
    fp16 = LayerSpec("Conv", "FP16", 100, (1, 3, 8, 8), (1, 8, 8, 8),
                     kernel=(3, 3), stride=(1, 1), padding=(1, 1))
    fp32 = LayerSpec("Conv", "FP32", 100, (1, 3, 8, 8), (1, 8, 8, 8),
                     kernel=(3, 3), stride=(1, 1), padding=(1, 1))
    assert dla_compatible(fp16, matrix)
    assert not dla_compatible(fp32, matrix)


def test_kernel_bounds_are_inclusive(matrix):
    lo, hi = matrix.kernel_range

    def conv(k):
        return LayerSpec("Conv", "FP16", 100, (1, 3, 64, 64), (1, 8, 64, 64),
                         kernel=(k, k), stride=(1, 1), padding=(0, 0))

    assert dla_compatible(conv(lo), matrix)
    assert dla_compatible(conv(hi), matrix)
    assert not dla_compatible(conv(hi + 1), matrix)


def test_batch_and_spatial_bounds_are_inclusive(matrix):
    top, limit = matrix.max_batch, matrix.max_spatial_dim

    def conv(batch=1, side=64, out_side=64):
        return LayerSpec("Conv", "FP16", 100, (batch, 3, side, side),
                         (batch, 8, out_side, out_side),
                         kernel=(3, 3), stride=(1, 1), padding=(1, 1))

    assert dla_compatible(conv(batch=top), matrix)
    assert not dla_compatible(conv(batch=top + 1), matrix)
    assert dla_compatible(conv(side=limit, out_side=limit), matrix)
    assert not dla_compatible(conv(side=limit + 1), matrix)
    assert not dla_compatible(conv(out_side=limit + 1), matrix)


def test_matmul_never_runs_natively(matrix):
    mm = LayerSpec("MatMul", "FP16", 100, (1, 128, 768), (1, 128, 768))
    assert not dla_compatible(mm, matrix)


@pytest.mark.parametrize("name,lo,hi", [
    ("vgg-19", 0.99, 1.0),
    ("resnet-152", 0.99, 1.0),
    ("efficientnet-b4", 0.9, 1.0),
    ("vit-base", 0.0, 0.05),
    ("bert-large", 0.0, 0.05),
    ("gemma-3-1b", 0.0, 0.05),
])
def test_affinity_fractions(matrix, name, lo, hi):
    sig = layer_affinity(_profile(name), matrix)
    assert lo <= sig.dla_flops_fraction <= hi


def test_preferred_clusters_follow_threshold(matrix):
    cnn = layer_affinity(_profile("resnet-50"), matrix)
    assert cnn.preferred_clusters == ("DLA", "GPU")
    llm = layer_affinity(_profile("deepseek-r1-1.5b"), matrix)
    assert llm.preferred_clusters == ("GPU",)
    # threshold is a parameter: demand perfection and the CNN with a
    # squeeze-excite tail drops off the DLA
    effnet = layer_affinity(_profile("efficientnet-b4"), matrix, threshold=0.9999)
    assert effnet.preferred_clusters == ("GPU",)
    assert 0.0 < AFFINITY_THRESHOLD < 1.0


@pytest.mark.parametrize("name", presets.available_models())
def test_affinity_classifies_every_layer(matrix, name):
    profile = _profile(name)
    sig = layer_affinity(profile, matrix)
    assert sig.layer_feasible == tuple(dla_compatible(l, matrix)
                                       for l in profile.layers)


def test_engine_parses_and_analyses_each_model_once(monkeypatch):
    """The engine looks both functions up on twillsim.engine per
    Simulation; the benchmark's models.* metrics wrap those names and
    read the descriptor text from the first argument or descriptor_text=."""
    calls = {"parse": [], "affinity": []}
    texts = {}
    parse, affinity = twillsim.engine.parse_model, twillsim.engine.layer_affinity

    def counted_parse(*args, **kwargs):
        profile = parse(*args, **kwargs)
        calls["parse"].append(profile.name)
        texts[profile.name] = args[0] if args else kwargs.get("descriptor_text")
        return profile

    def counted_affinity(profile, *args, **kwargs):
        calls["affinity"].append(profile.name)
        return affinity(profile, *args, **kwargs)

    monkeypatch.setattr(twillsim.engine, "parse_model", counted_parse)
    monkeypatch.setattr(twillsim.engine, "layer_affinity", counted_affinity)
    mix2 = twillsim.load_mix(presets.mix_text("mix2"))
    repeated = twillsim.random_mix(5, presets.available_models(), n_requests=30)
    assert len(repeated.requests) > len({r.model for r in repeated.requests})
    # a second build of mix2 parses again: there is no cache across builds
    for scenario in (mix2, repeated, mix2):
        models = sorted({r.model for r in scenario.requests})
        calls["parse"].clear()
        calls["affinity"].clear()
        twillsim.build_simulation(scenario, "twill")
        assert sorted(calls["parse"]) == models
        assert sorted(calls["affinity"]) == models
        assert all(texts[m] == presets.model_text(m) for m in models)


def test_affinity_is_deterministic(matrix):
    a = layer_affinity(_profile("vit-base"), matrix)
    b = layer_affinity(_profile("vit-base"), matrix)
    assert a == b


def test_segment_fractions_single_unit():
    profile = _profile("vgg-19")
    fr = segment_fractions(profile, 1)
    assert fr[0] == 0.0 and fr[-1] == pytest.approx(1.0)
    assert len(fr) == len(profile.layers) + 1
    assert all(a <= b for a, b in zip(fr, fr[1:]))


def test_segment_fractions_batched():
    profile = _profile("resnet-50")
    assert segment_fractions(profile, 4) == (0.0, 0.25, 0.5, 0.75, 1.0)


ZERO_FLOP = json.dumps({"name": "no-op", "layers": [
    {"op_type": "Relu", "precision": "FP16", "flops": 0,
     "in_shape": [1, 8], "out_shape": [1, 8]}] * 3})


def test_segment_fractions_of_a_zero_flop_model():
    assert segment_fractions(parse_model(ZERO_FLOP), 1) == (0.0, 1.0)


@pytest.mark.parametrize("policy", sorted(twillsim.POLICIES))
def test_a_zero_flop_model_takes_only_the_control_hold(policy, tmp_path,
                                                       monkeypatch, matrix):
    # no work to place, so no affinity: it prefers the GPU alone
    assert layer_affinity(parse_model(ZERO_FLOP), matrix).preferred_clusters \
        == ("GPU",)
    (tmp_path / "models").mkdir()
    (tmp_path / "models" / "no-op.json").write_text(ZERO_FLOP)
    monkeypatch.setenv(presets.CONFIG_ENV_VAR, str(tmp_path))
    scenario = twillsim.load_mix(json.dumps({"requests": [
        {"model": "no-op", "priority": 1 + i % 3, "arrival_ms": 100 * i,
         "workload_size": 1 + i} for i in range(3)]}),
        known_models=presets.available_models())
    trace = twillsim.build_simulation(scenario, policy).run()
    assert [(r.waiting_ms, r.latency_ms, r.work_gflops)
            for r in trace.requests] == [(0.0, 15.0, 0.0)] * 3


# sha256 of the sorted-key JSON, total FLOPs and layer count of each
# packaged model, taken from the descriptor files the zoo replaced, with
# their never-read "workload_unit" and "default_workload_size" keys dropped
PACKAGED_CONTENT = [
    ("bert-base", "d9547ce62361b168478ccf17c3cf8c5f1814ae40a791ce6fd52a5fd90c101eab", 22374875904, 172),
    ("bert-large", "da105b89a67f4a25c39b30636ed1d65dc651987d17128643f6ec6db8e4dbce2d", 78991983616, 340),
    ("deepseek-r1-1.5b", "4c4e02fd5ba92c12f4d2b87eb89e2bee437de7f8dfc7f9cdca2bf8431d98d513", 3177129088, 452),
    ("efficientnet-b4", "3c3a681a13317805224d289206b7e9d29b93a2708342a41bfa3ee4739f8acdf0", 8973760824, 476),
    ("gemma-3-1b", "dae8519b2c9148b51be4ad66156d2f8101b72d5d3402c940541adbbc8e350079", 2055639040, 420),
    ("resnet-152", "f9b388f1b6fb750cd9cf170d7aa3c03f4d43f904cbc8105845960fb4a68fe0ef", 22644463544, 515),
    ("resnet-50", "982a3e36173b838fd23b6608fa0cae960a3fe3ca84686da5ecfb580c6b821454", 7753631672, 175),
    ("vgg-19", "9e33932184c5cc2cd5fac09efb55a4649d745485bb594b4a561b6b90d9ab4d0e", 39285109688, 44),
    ("vit-base", "f5c2e9380181e6c194b2ef96c1b35488dd9bedededdee5241ab80a5d93194c53", 35174230248, 172),
    ("vit-large", "a5c88093b133d4ee9c977759690723bf171ee334d5a8a4596082ce835872523d", 123232608312, 340),
]


def test_content_pin_covers_the_zoo():
    assert sorted(zoo.MODELS) == [name for name, *_ in PACKAGED_CONTENT]


@pytest.mark.parametrize("name,digest,total_flops,n_layers", PACKAGED_CONTENT,
                         ids=[name for name, *_ in PACKAGED_CONTENT])
def test_packaged_model_content_is_pinned(name, digest, total_flops, n_layers):
    doc = json.loads(presets.model_text(name))
    canonical = json.dumps(doc, sort_keys=True).encode()
    assert hashlib.sha256(canonical).hexdigest() == digest
    assert doc["total_flops"] == total_flops
    assert len(doc["layers"]) == n_layers


@pytest.mark.parametrize("name,lo,hi", [
    ("vgg-19", 37.0, 42.0),
    ("resnet-50", 7.5, 9.5),
    ("resnet-152", 21.0, 25.5),
    ("efficientnet-b4", 7.0, 10.5),
    ("vit-base", 33.0, 37.0),
    ("vit-large", 118.0, 128.0),
    ("bert-base", 21.0, 24.0),
    ("bert-large", 76.0, 82.0),
    ("deepseek-r1-1.5b", 2.8, 3.6),
    ("gemma-3-1b", 1.7, 2.4),
])
def test_packaged_model_gflops_match_the_published_architecture(name, lo, hi):
    """Windows around each architecture's published GFLOPs per
    reference unit, so a slip in a builder shows up as a wrong model."""
    assert lo <= _profile(name).total_flops / 1e9 <= hi


def test_config_dir_adds_and_replaces_models(tmp_path, monkeypatch):
    toy = json.loads(presets.model_text("vgg-19"))
    toy["name"] = "toy"
    bert = json.loads(presets.model_text("bert-base"))
    bert["reference_workload"] = 7
    (tmp_path / "models").mkdir()
    (tmp_path / "models" / "toy.json").write_text(json.dumps(toy))
    (tmp_path / "models" / "bert-base.json").write_text(json.dumps(bert))
    monkeypatch.setenv(presets.CONFIG_ENV_VAR, str(tmp_path))
    assert "toy" in presets.available_models()
    assert "bert-base" in presets.available_models()
    scenario = twillsim.load_mix(json.dumps({"requests": [
        {"model": "toy", "priority": 1, "arrival_ms": 0, "workload_size": 1}]}),
        known_models=presets.available_models())
    trace = twillsim.build_simulation(scenario, "twill").run()
    assert trace.requests[0].completed_ms is not None
    assert parse_model(presets.model_text("bert-base")).reference_workload == 7
    with pytest.raises(presets.PresetError, match="no-such-model"):
        presets.model_text("no-such-model")
