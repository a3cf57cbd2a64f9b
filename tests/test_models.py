"""Descriptor parsing and DLA-compatibility classification."""

import hashlib
import json

import pytest

from twillsim import (
    AFFINITY_THRESHOLD,
    LayerSpec,
    ModelError,
    dla_compatible,
    layer_affinity,
    load_matrix,
    parse_model,
)
import twillsim
from twillsim import presets, zoo
from twillsim.models import _layer_from_dict, segment_fractions

DENSE_CONV_MODELS = ["vgg-19", "resnet-50", "resnet-152"]


@pytest.fixture()
def matrix():
    return load_matrix(presets.matrix_text())


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
        assert layer == _layer_from_dict(entry)
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
        with pytest.raises(ModelError, match="malformed"):
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
])
def test_malformed_entry_after_an_identical_valid_one(bad):
    """Interning never lets a bad entry borrow a valid twin's layer, and
    the error is the one the entry raises when decoded on its own."""
    with pytest.raises(ModelError) as alone:
        _layer_from_dict(bad)
    twin = _first_entry("Conv" if isinstance(bad, dict) and "kernel" in bad
                        else "Relu")
    with pytest.raises(ModelError) as parsed:
        parse_model(_vgg_with_layers(twin, bad))
    assert str(parsed.value) == str(alone.value)


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


def test_layer_geometry_invariant():
    # kernel/stride/padding appear exactly on Conv and FullyConnected
    with pytest.raises(ModelError):
        LayerSpec("Relu", "FP16", 10, (1, 64), (1, 64), kernel=(3, 3),
                  stride=(1, 1), padding=(0, 0))
    with pytest.raises(ModelError):
        LayerSpec("Conv", "FP16", 10, (1, 3, 8, 8), (1, 8, 8, 8))


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
