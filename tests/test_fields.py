"""Every numeric input field, read by one rule: a number is an int or a
float, not a bool, and finite; an integer is an int, not a bool.  Each
bad value is the boundary's typed error at the API, and `error: …` with
exit 1 at the command line."""

import json
import math
import sys

import pytest

from twillsim import (ModelError, PlatformError, WorkloadError,
                      build_simulation, load_matrix, load_mix, load_platform,
                      parse_model, presets)
from twillsim._fields import real
from twillsim.cli import main

NAN, INF = float("nan"), float("inf")
# JSON true, a number spelled as a string, NaN, Infinity and -1 break
# every numeric field; 1.5 breaks every integer field too
BAD_NUMBERS = (True, "1", NAN, INF, -1)
BAD_INTEGERS = BAD_NUMBERS + (1.5,)


def _cases(fields):
    """(path, value) for each bad value of each field; a field is a path
    into the document and whether it is an integer field."""
    return [pytest.param(path, value, id=f"{'.'.join(map(str, path))}={value!r}")
            for path, is_integer in fields
            for value in (BAD_INTEGERS if is_integer else BAD_NUMBERS)]


def _edited(text, path, value):
    doc = json.loads(text)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(doc)


def _field(path):
    return next(k for k in reversed(path) if isinstance(k, str))


def _assert_refused(error, path, value):
    message = str(error)
    assert _field(path) in message
    assert repr(value) in message


def _assert_exits_one(argv, capsys, path, value):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    _assert_refused(err, path, value)


PLATFORM_FIELDS = [
    (["tdp_mw"], False),
    (["base_power_mw"], False),
    (["clusters", 0, "freq_levels_mhz", 0], True),
    (["clusters", 0, "throughput_gflops", 1], False),
    (["clusters", 1, "idle_power_mw"], False),
    (["clusters", 1, "active_power_slope_mw_per_mhz"], False),
]


@pytest.mark.parametrize("path,value", _cases(PLATFORM_FIELDS))
def test_bad_platform_number(path, value, tmp_path, capsys):
    text = _edited(presets.platform_text(), path, value)
    with pytest.raises(PlatformError) as e:
        load_platform(text)
    _assert_refused(e.value, path, value)
    board = tmp_path / "board.json"
    board.write_text(text)
    _assert_exits_one(["run", "--mix", "mix1", "--platform", str(board)],
                      capsys, path, value)


MATRIX_FIELDS = [
    (["kernel_range", 0], True),
    (["stride_range", 1], True),
    (["padding_range", 0], True),
    (["max_batch"], True),
    (["max_spatial_dim"], True),
]


@pytest.mark.parametrize("path,value", _cases(MATRIX_FIELDS))
def test_bad_matrix_number(path, value, tmp_path, capsys, monkeypatch):
    text = _edited(presets.matrix_text(), path, value)
    with pytest.raises(ModelError) as e:
        load_matrix(text)
    _assert_refused(e.value, path, value)
    (tmp_path / "dla_matrix.json").write_text(text)
    monkeypatch.setenv(presets.CONFIG_ENV_VAR, str(tmp_path))
    _assert_exits_one(["run", "--mix", "mix1"], capsys, path, value)


# vgg-19's first layer is a Conv, its second a Relu
DESCRIPTOR_FIELDS = [
    (["reference_workload"], True),
    (["total_flops"], True),
    (["layers", 1, "flops"], True),
    (["layers", 1, "in_shape", 0], True),
    (["layers", 1, "out_shape", 2], True),
    (["layers", 0, "kernel", 0], True),
    (["layers", 0, "stride", 1], True),
    (["layers", 0, "padding", 0], True),
]


@pytest.mark.parametrize("path,value", _cases(DESCRIPTOR_FIELDS))
def test_bad_descriptor_number(path, value, tmp_path, capsys, monkeypatch):
    text = _edited(presets.model_text("vgg-19"), path, value)
    with pytest.raises(ModelError) as e:
        parse_model(text)
    _assert_refused(e.value, path, value)
    (tmp_path / "models").mkdir()
    (tmp_path / "models" / "vgg-19.json").write_text(text)
    monkeypatch.setenv(presets.CONFIG_ENV_VAR, str(tmp_path))
    _assert_exits_one(["run", "--mix", "mix2"], capsys, path, value)


MIX = json.dumps({
    "name": "probe",
    "requests": [{"id": "a", "model": "vgg-19", "priority": 1,
                  "arrival_ms": 0, "workload_size": 1}],
    "platform_overrides": {"tdp_mw": 12000, "base_power_mw": 2500},
})

MIX_FIELDS = [
    (["requests", 0, "priority"], True),
    (["requests", 0, "arrival_ms"], False),
    (["requests", 0, "workload_size"], True),
    (["platform_overrides", "tdp_mw"], False),
    (["platform_overrides", "base_power_mw"], False),
]


@pytest.mark.parametrize("path,value", _cases(MIX_FIELDS))
def test_bad_mix_number(path, value, tmp_path, capsys):
    text = _edited(MIX, path, value)
    with pytest.raises(WorkloadError) as e:
        load_mix(text)
    _assert_refused(e.value, path, value)
    mix = tmp_path / "mix.json"
    mix.write_text(text)
    _assert_exits_one(["run", "--mix", str(mix)], capsys, path, value)


def test_negative_zero_is_read_as_zero(tmp_path, capsys):
    # -0.0 >= 0 holds, so it used to pass through and write "-0.000000"
    # time cells and "arrival_ms": -0.0
    x = real(-0.0, "arrival_ms", WorkloadError, lo=0)
    assert x == 0.0 and math.copysign(1.0, x) == 1.0
    mix = tmp_path / "mix.json"
    mix.write_text(MIX.replace('"arrival_ms": 0', '"arrival_ms": -0.0'))
    assert main(["run", "--mix", str(mix), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    texts = [(tmp_path / "out" / name).read_text() for name in
             ("decisions.csv", "requests.csv", "power.csv", "summary.json")]
    assert all("-0.0" not in text for text in texts)
    assert '"arrival_ms": 0.0' in texts[3]


# an integer literal past CPython's 4,300-digit limit on int-string
# conversion; json.dumps cannot write it, so it is spliced into the text
OVERLONG = "1" + "0" * 5000


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no limit on int-string conversion")
@pytest.mark.parametrize("file", ["board.json", "dla_matrix.json",
                                  "models/vgg-19.json", "mix.json"])
def test_overlong_integer_is_invalid_json(file, tmp_path, capsys, monkeypatch):
    # each used to end in a raw ValueError from json.loads
    target = tmp_path / file
    text, path, load, error, argv = {
        "board.json": (presets.platform_text(), ["tdp_mw"], load_platform,
                       PlatformError, ["--mix", "mix1", "--platform", str(target)]),
        "dla_matrix.json": (presets.matrix_text(), ["max_batch"], load_matrix,
                            ModelError, ["--mix", "mix1"]),
        "models/vgg-19.json": (presets.model_text("vgg-19"), ["total_flops"],
                               parse_model, ModelError, ["--mix", "mix2"]),
        "mix.json": (MIX, ["requests", 0, "priority"], load_mix,
                     WorkloadError, ["--mix", str(target)]),
    }[file]
    text = _edited(text, path, "OVERLONG").replace('"OVERLONG"', OVERLONG)
    with pytest.raises(error, match="is not valid JSON"):
        load(text)
    target.parent.mkdir(exist_ok=True)
    target.write_text(text)
    monkeypatch.setenv(presets.CONFIG_ENV_VAR, str(tmp_path))
    assert main(["run", *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "is not valid JSON" in err
    assert "Traceback" not in err


KNOBS = ["ctrl_overhead_ms", "migration_overhead_ms", "freeze_overhead_ms",
         "dla_fallback_penalty", "affinity_threshold", "max_time_ms"]


@pytest.mark.parametrize("value", BAD_NUMBERS, ids=repr)
@pytest.mark.parametrize("knob", KNOBS)
def test_bad_simulation_knob(knob, value):
    with pytest.raises(PlatformError) as e:
        build_simulation("mix1", **{knob: value})
    assert knob in str(e.value)
    assert repr(value) in str(e.value)
