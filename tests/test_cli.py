"""Command-line interface: exit codes, output files, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from twillsim import (Decision, DecisionKind, EventKind, Simulation,
                      TwillPolicy, cli, presets)
from twillsim.cli import main


def test_run_prints_the_summary_line(capsys):
    assert main(["run", "--mix", "mix1"]) == 0
    out = capsys.readouterr().out
    assert "scenario=mix1 policy=twill platform=orin-nx-10w" in out
    assert "makespan_ms=1344.372843" in out
    assert "total_waiting_ms=0.0" in out
    # one table row per request
    assert "bert-base-0" in out and "efficientnet-b4-0" in out


def test_run_writes_the_four_trace_files(tmp_path, capsys):
    out_dir = tmp_path / "trace"
    assert main(["run", "--mix", "mix2", "--out", str(out_dir)]) == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["decisions.csv", "power.csv", "requests.csv", "summary.json"]
    header = (out_dir / "decisions.csv").read_text().splitlines()[0]
    assert header == "time_ms,kind,request_id,part,cluster_id,level,freq_mhz"
    doc = json.loads((out_dir / "summary.json").read_text())
    assert doc["scenario"] == "mix2"
    assert doc["policy"] == "twill"


def test_trace_bytes_do_not_depend_on_the_locale(tmp_path, capsys):
    doc = {"name": "naïve", "requests": [{**_ENTRY, "id": "naïve-π"}]}
    mix = tmp_path / "mix.json"
    mix.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    assert main(["run", "--mix", str(mix), "--out", str(tmp_path / "here")]) == 0
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    # the subprocess imports the same package as this test
    env.update(PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]),
               PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C")
    done = subprocess.run(
        [sys.executable, "-m", "twillsim.cli", "run", "--mix", str(mix),
         "--out", str(tmp_path / "ascii")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    for name in ("decisions.csv", "requests.csv", "power.csv", "summary.json"):
        assert ((tmp_path / "ascii" / name).read_bytes()
                == (tmp_path / "here" / name).read_bytes()), name
    assert "naïve-π" in (tmp_path / "here" / "requests.csv").read_text("utf-8")


def test_repeat_invocations_write_identical_bytes(tmp_path, capsys):
    for sub in ("one", "two"):
        assert main(["run", "--mix", "mix3", "--policy", "static_dvfs",
                     "--out", str(tmp_path / sub)]) == 0
    for name in ("decisions.csv", "requests.csv", "power.csv", "summary.json"):
        assert ((tmp_path / "one" / name).read_bytes()
                == (tmp_path / "two" / name).read_bytes()), name


def test_missing_scenario_file_exits_one(capsys):
    assert main(["run", "--mix", "/no/such/file.json"]) == 1
    assert "/no/such/file.json" in capsys.readouterr().err


def test_unknown_mix_name_lists_the_options(capsys):
    assert main(["run", "--mix", "mix99"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "mix1" in err


def test_unknown_set_key_exits_one(capsys):
    assert main(["run", "--mix", "mix1", "--set", "bogus=1"]) == 1
    assert "bogus" in capsys.readouterr().err


def test_set_overrides_reach_the_platform(capsys):
    assert main(["run", "--mix", "mix1", "--set", "tdp_mw=12000"]) == 0
    out = capsys.readouterr().out
    # a looser cap lets the governor hold the top bin with both busy
    assert "makespan_ms=1317.534973" in out


def test_platform_file_flag_loads_a_custom_board(tmp_path, capsys):
    doc = json.loads(presets.platform_text())
    doc["tdp_mw"] = 12000.0
    board = tmp_path / "board.json"
    board.write_text(json.dumps(doc))
    assert main(["run", "--mix", "mix1", "--platform", str(board)]) == 0
    assert "makespan_ms=1317.534973" in capsys.readouterr().out

    assert main(["run", "--mix", "mix1", "--platform",
                 str(tmp_path / "nope.json")]) == 1
    assert "nope.json" in capsys.readouterr().err


def test_random_mix_is_seeded(capsys):
    assert main(["run", "--mix", "random", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["run", "--mix", "random", "--seed", "7"]) == 0
    again = capsys.readouterr().out
    assert first == again
    assert main(["run", "--mix", "random", "--seed", "8"]) == 0
    other = capsys.readouterr().out
    assert other != first


def test_compare_needs_at_least_two_policies(capsys):
    assert main(["compare", "--mixes", "mix1", "--policies", "twill"]) == 1
    assert "compare requires >=2 policies" in capsys.readouterr().err


def test_compare_rejects_unknown_policies(capsys):
    assert main(["compare", "--mixes", "mix1",
                 "--policies", "twill", "round_robin"]) == 1
    assert "round_robin" in capsys.readouterr().err


@pytest.mark.parametrize("mixes, policies, named", [
    (["mix1", "mix1"], ["twill", "gpu_queue", "twill"], "--mixes names mix1"),
    (["mix1", "mix2"], ["twill", "gpu_queue", "twill"],
     "--policies names twill"),
], ids=["mix", "policy"])
def test_compare_refuses_a_repeated_mix_or_policy(mixes, policies, named,
                                                 tmp_path, capsys):
    # a repeat would be simulated again and written as rows of its own
    assert main(["compare", "--mixes", *mixes, "--policies", *policies,
                 "--out", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert f"error: {named} more than once" in err
    assert out == ""
    assert not (tmp_path / "comparison.csv").exists()


def test_compare_reports_improvement_and_writes_csv(tmp_path, capsys):
    assert main(["compare", "--mixes", "mix1",
                 "--policies", "twill", "gpu_queue",
                 "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "twill_makespan_improvement_pct" in out

    rows = (tmp_path / "comparison.csv").read_text().splitlines()
    assert rows[0] == ("mix,policy,makespan_ms,total_waiting_ms,"
                       "violation_fraction,energy_mj,"
                       "twill_makespan_improvement_pct")
    assert len(rows) == 3  # header + one row per policy
    twill_row = next(r for r in rows[1:] if ",twill," in r)
    base_row = next(r for r in rows[1:] if ",gpu_queue," in r)
    assert twill_row.split(",")[-1] == ""  # no improvement over itself
    assert base_row.split(",")[-1] == "16.71"


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["run"]) == 1  # --mix is required


def test_protocol_breakage_is_an_internal_error(capsys, monkeypatch):
    # a policy that breaks the decision protocol is a fault in the
    # program, not bad input
    def map_nowhere(self, view, events):
        return [Decision(kind=DecisionKind.MAP, request_id=e.request_id,
                         cluster_id="gpu9")
                for e in events if e.kind is EventKind.ARRIVAL]
    monkeypatch.setattr(TwillPolicy, "decide", map_nowhere)
    assert main(["run", "--mix", "mix1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("internal error:")
    assert "gpu9" in err


def test_nan_arrival_exits_one_before_any_run(tmp_path, capsys, monkeypatch):
    # a NaN arrival never equals the loop's clock; should validation let
    # it through, fail here instead of starting a run that would spin
    def no_run(*args, **kwargs):
        raise AssertionError("a NaN arrival reached build_simulation")
    monkeypatch.setattr(cli, "build_simulation", no_run)
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps({
        "name": "nan",
        "requests": [{"model": "vgg-19", "priority": 1,
                      "arrival_ms": float("nan"), "workload_size": 1}],
    }))
    assert main(["run", "--mix", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "finite" in err


@pytest.mark.parametrize("knob", [
    "ctrl_overhead_ms=-100",       # would credit work done before the map
    "migration_overhead_ms=inf",   # would run to the time cut-off
    "dla_fallback_penalty=0",      # would make fallback faster than native
    "affinity_threshold=nan",
    "tdp_mw=nan",                  # would never count time over budget
    "freeze_overhead_ms=-1",
    "base_power_mw=inf",
    "affinity_threshold=1.5",
])
def test_bad_set_values_exit_one(knob, capsys):
    assert main(["run", "--mix", "mix1", "--set", knob]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert knob.split("=")[0] in err


def test_a_set_value_that_overflows_the_peak_draw_exits_one(tmp_path,
                                                           capsys):
    # the override is checked with the board it is applied to
    doc = json.loads(presets.platform_text())
    doc["clusters"][0]["idle_power_mw"] = 1e308
    board = tmp_path / "board.json"
    board.write_text(json.dumps(doc))
    _assert_input_error(["run", "--mix", "mix1", "--platform", str(board),
                         "--set", "base_power_mw=1e308"], capsys,
                        "orin-nx-10w: peak power draw overflows")


def _assert_input_error(argv, capsys, field):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert field in err
    assert "Traceback" not in err


_ENTRY = {"model": "vgg-19", "priority": 1, "arrival_ms": 0, "workload_size": 1}


@pytest.mark.parametrize("doc,field", [
    ({"requests": [{**_ENTRY, "priority": "high"}]}, "high"),
    ({"requests": [{**_ENTRY, "depends_on": 5}]}, "a list of request ids, not 5"),
    ({"requests": {"a": _ENTRY}}, "list"),
    ({"requests": [], "platform_overrides": {"tdp_mw": "lots"}}, "lots"),
    ({"requests": [], "platform_overrides": [1, 2]}, "platform_overrides"),
    ({"requests": [], "platform_overrides": {"bogus": 1.0}}, "bogus"),
    ({"requests": [{**_ENTRY, "priority": 2.7}]},
     "priority must be an integer, not 2.7"),
    ({"requests": [{**_ENTRY, "workload_size": 2.9}]},
     "workload_size must be an integer, not 2.9"),
    ({"requests": [{**_ENTRY, "priority": True}]},
     "priority must be an integer, not True"),
    ({"requests": [{**_ENTRY, "arrival_ms": "soon"}]},
     "arrival_ms must be a number, not 'soon'"),
    ({"requests": [{**_ENTRY, "id": [1]}]},
     "request_id must be a string, not [1]"),
    ({"requests": [{**_ENTRY, "depends_on": [[1]]}]},
     "depends_on must be a list of request ids, not [[1]]"),
    ({"requests": [{**_ENTRY, "id": "a", "depends_on": "a"}]},
     "a: depends_on must be a list of request ids, not 'a'"),
    ({"requests": [{**_ENTRY, "id": "a\udc80"}]},
     "request_id must be UTF-8 text, not 'a\\udc80'"),
    ({"name": {"x": 1}, "requests": [_ENTRY]},
     "scenario name must be a string, not {'x': 1}"),
    ({"name": "empty"}, "scenario missing field 'requests'"),
    ({"requests": [{"model": "vgg-19"}]},
     "request entry missing field 'priority'"),
    ({"requests": [5]}, "request entry has a malformed field: 'int' object "
                        "is not subscriptable"),
])
def test_wrong_typed_scenario_field_exits_one(doc, field, tmp_path, capsys):
    mix = tmp_path / "mix.json"
    mix.write_text(json.dumps(doc))
    _assert_input_error(["run", "--mix", str(mix)], capsys, field)


def test_wrong_typed_platform_field_exits_one(tmp_path, capsys):
    doc = json.loads(presets.platform_text())
    doc["clusters"][0]["freq_levels_mhz"] = ["fast"]
    board = tmp_path / "board.json"
    board.write_text(json.dumps(doc))
    _assert_input_error(["run", "--mix", "mix1", "--platform", str(board)],
                        capsys, "fast")


@pytest.mark.parametrize("relative,path,value", [
    ("dla_matrix.json", ["max_batch"], "many"),
    ("models/efficientnet-b4.json", ["layers", 0, "flops"], "lots"),
    ("models/efficientnet-b4.json", ["layers", 0, "kernel"], [3, 3, 3]),
    ("models/efficientnet-b4.json", ["reference_workload"], "one"),
    # an infinity used to end the run in a raw OverflowError
    ("dla_matrix.json", ["max_batch"], float("inf")),
    ("models/efficientnet-b4.json", ["layers", 0, "flops"], float("inf")),
    ("models/efficientnet-b4.json", ["reference_workload"], float("inf")),
])
def test_wrong_typed_descriptor_field_exits_one(relative, path, value, tmp_path,
                                                capsys, monkeypatch):
    doc = json.loads(presets.model_text(Path(relative).stem)
                     if relative.startswith("models/")
                     else presets.read_data(relative))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    (tmp_path / relative).parent.mkdir(parents=True, exist_ok=True)
    (tmp_path / relative).write_text(json.dumps(doc))
    monkeypatch.setenv(presets.CONFIG_ENV_VAR, str(tmp_path))
    _assert_input_error(["run", "--mix", "mix1"], capsys, f"{path[-1]} must be")


@pytest.mark.parametrize("path,value,message", [
    # each used to end the run in a raw ValueError or TypeError traceback
    (["total_flops"], "abc", "vgg-19: total_flops must be an integer, not 'abc'"),
    (["total_flops"], [1], "vgg-19: total_flops must be an integer, not [1]"),
    (["total_flops"], float("nan"), "vgg-19: total_flops must be an integer, not nan"),
    (["layers", 1, "op_type"], ["Relu"], "op_type and precision must be strings"),
    (["layers", 1, "precision"], ["FP16"], "op_type and precision must be strings"),
    # each used to be read by its characters or keys, or to run
    (["layers", 1, "in_shape"], "1234", "in_shape must be an array, not '1234'"),
    (["layers", 1, "out_shape"], {"1": 0}, "out_shape must be an array"),
    (["layers", 0, "kernel"], "33", "kernel must be an array, not '33'"),
    (["name"], 5, "model name must be a string, not 5"),
    (["name"], None, "model name must be a string, not None"),
    (["name"], ["x"], "model name must be a string, not ['x']"),
    (["layers", 0], {"op_type": "Conv", "precision": "FP16", "flops": 1,
                     "in_shape": [1, 3, 8, 8], "out_shape": [1, 3, 8, 8],
                     "kernel": [3, 3], "padding": [1, 1]},
     "Conv: incomplete conv geometry"),
    (["layers"], 5, "model descriptor has a malformed field: 'int' object "
                    "is not iterable"),
], ids=["str_total", "list_total", "nan_total", "list_op_type", "list_precision",
        "str_in_shape", "object_out_shape", "str_kernel", "int_name",
        "null_name", "list_name", "conv_without_stride", "int_layers"])
def test_bad_descriptor_value_exits_one(path, value, message, tmp_path, capsys,
                                        monkeypatch):
    doc = json.loads(presets.model_text("vgg-19"))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    if path[0] == "layers":
        del doc["total_flops"]  # so only the bad field is reported
    (tmp_path / "models").mkdir()
    (tmp_path / "models" / "vgg-19.json").write_text(json.dumps(doc))
    mix = tmp_path / "mix.json"
    mix.write_text(json.dumps({"requests": [_ENTRY]}))
    monkeypatch.setenv(presets.CONFIG_ENV_VAR, str(tmp_path))
    _assert_input_error(["run", "--mix", str(mix)], capsys, message)


@pytest.mark.parametrize("edit,message", [
    # each used to run, then die with a raw TypeError or UnicodeEncodeError
    (lambda d: d["clusters"][0].update(cluster_id=5),
     "cluster_id must be a string, not 5"),
    (lambda d: d["clusters"][0].update(cluster_id="g\udc80"),
     "cluster_id must be UTF-8 text"),
    # used to exit 0 and write the object into summary.json
    (lambda d: d.update(name={"a": 1}), "platform name must be a string"),
    # used to exit 2 as an internal error
    (lambda d: d.update(clusters=[]), "platform has no clusters"),
    # each used to be read by its characters or keys
    (lambda d: d["clusters"][0].update(throughput_gflops="abc"),
     "gpu0: throughput_gflops must be an array, not 'abc'"),
    (lambda d: d["clusters"][0].update(throughput_gflops={"1": 2}),
     "gpu0: throughput_gflops must be an array, not {'1': 2}"),
    # the table and identity checks, each reached from a board file
    (lambda d: d["clusters"][0].update(freq_levels_mhz=[],
                                       throughput_gflops=[]),
     "gpu0: empty frequency table"),
    (lambda d: d["clusters"][0]["throughput_gflops"].pop(),
     "gpu0: 8 frequency levels but 7 throughput entries"),
    (lambda d: d["clusters"][0]["freq_levels_mhz"].reverse(),
     "gpu0: frequency levels must be strictly ascending"),
    (lambda d: d["clusters"][0]["throughput_gflops"].reverse(),
     "gpu0: throughput must be strictly increasing"),
    (lambda d: d["clusters"][1].update(freq_levels_mhz=[800, 900],
                                       throughput_gflops=[1000.0, 1100.0]),
     "dla0: DLA clusters have exactly one frequency level"),
    (lambda d: d["clusters"][1].update(cluster_id="gpu0"),
     "duplicate cluster_id"),
    (lambda d: d["clusters"][0].pop("idle_power_mw"),
     "cluster entry missing field 'idle_power_mw'"),
    (lambda d: d["clusters"][0].update(kind="TPU"),
     "platform config has a malformed field: 'TPU' is not a valid "
     "ClusterKind"),
], ids=["int_cluster_id", "surrogate_cluster_id", "object_name", "no_clusters",
        "str_throughput", "object_throughput", "empty_table",
        "misaligned_table", "unsorted_levels", "unsorted_throughput",
        "two_level_dla", "duplicate_cluster_id", "cluster_missing_field",
        "unknown_kind"])
def test_bad_platform_identity_exits_one(edit, message, tmp_path, capsys):
    doc = json.loads(presets.platform_text())
    edit(doc)
    board = tmp_path / "board.json"
    board.write_text(json.dumps(doc))
    _assert_input_error(["run", "--mix", "mix1", "--platform", str(board)],
                        capsys, message)


@pytest.mark.parametrize("where", ["mix", "platform", "config_dir_model"])
def test_non_utf8_input_file_exits_one(where, tmp_path, capsys, monkeypatch):
    # a 0xff byte used to end the run in a raw UnicodeDecodeError
    bad = tmp_path / "models" / "bert-base.json"
    bad.parent.mkdir()
    bad.write_bytes(b'{"name": "bad\xff"}')
    if where == "config_dir_model":
        monkeypatch.setenv(presets.CONFIG_ENV_VAR, str(tmp_path))
    argv = {"mix": ["run", "--mix", str(bad)],
            "platform": ["run", "--mix", "mix1", "--platform", str(bad)],
            "config_dir_model": ["run", "--mix", "mix1"]}[where]
    _assert_input_error(argv, capsys, f"{bad}: 'utf-8' codec can't decode")


@pytest.mark.parametrize("field", ["idle_power_mw", "active_power_slope_mw_per_mhz"])
def test_non_finite_cluster_power_exits_one(field, tmp_path, capsys):
    # a NaN coefficient used to run, writing nan power and reporting no
    # time over budget
    doc = json.loads(presets.platform_text())
    doc["clusters"][0][field] = float("nan")
    board = tmp_path / "board.json"
    board.write_text(json.dumps(doc))
    _assert_input_error(["run", "--mix", "mix1", "--platform", str(board)],
                        capsys, "finite")


@pytest.mark.parametrize("level", [0, -500])
def test_non_positive_frequency_level_exits_one(level, tmp_path, capsys):
    # a level of -500 MHz used to run and write -500 into power.csv
    doc = json.loads(presets.platform_text())
    doc["clusters"][0]["freq_levels_mhz"][0] = level
    board = tmp_path / "board.json"
    board.write_text(json.dumps(doc))
    _assert_input_error(["run", "--mix", "mix1", "--platform", str(board)],
                        capsys, "gpu0: freq_levels_mhz entries must be >= 1")


@pytest.mark.parametrize("value", [0, -128])
def test_non_positive_reference_workload_exits_one(value, tmp_path, capsys,
                                                   monkeypatch):
    doc = json.loads(presets.model_text("bert-base"))
    doc["reference_workload"] = value
    (tmp_path / "models").mkdir()
    (tmp_path / "models" / "bert-base.json").write_text(json.dumps(doc))
    monkeypatch.setenv(presets.CONFIG_ENV_VAR, str(tmp_path))
    _assert_input_error(["run", "--mix", "mix1"], capsys, "reference_workload")


@pytest.mark.parametrize("edit,message", [
    (lambda d: d["param_checked_ops"].append("MatMul"),
     "an op cannot be both unsupported and param-checked"),
    (lambda d: d.pop("max_batch"),
     "compatibility matrix missing field 'max_batch'"),
], ids=["op_both_unsupported_and_checked", "missing_max_batch"])
def test_bad_matrix_exits_one(edit, message, tmp_path, capsys, monkeypatch):
    doc = json.loads(presets.matrix_text())
    edit(doc)
    (tmp_path / "dla_matrix.json").write_text(json.dumps(doc))
    monkeypatch.setenv(presets.CONFIG_ENV_VAR, str(tmp_path))
    _assert_input_error(["run", "--mix", "mix1"], capsys, message)


@pytest.mark.parametrize("pair,message", [
    ("tdp_mw", "--set expects key=value, got 'tdp_mw'"),
    ("tdp_mw=lots", "--set tdp_mw: 'lots' is not a number"),
], ids=["no_equals", "not_a_number"])
def test_malformed_set_exits_one(pair, message, capsys):
    _assert_input_error(["run", "--mix", "mix1", "--set", pair], capsys,
                        message)


@pytest.mark.parametrize("relative", [
    "platform.json", "dla_matrix.json", "models/bert-base.json"])
def test_non_object_data_file_exits_one(relative, tmp_path, capsys, monkeypatch):
    (tmp_path / relative).parent.mkdir(parents=True, exist_ok=True)
    (tmp_path / relative).write_text("[]")
    monkeypatch.setenv(presets.CONFIG_ENV_VAR, str(tmp_path))
    _assert_input_error(["run", "--mix", "mix1"], capsys, "JSON object")


@pytest.mark.parametrize("text", ["[]", "5"])
def test_non_object_platform_and_mix_files_exit_one(text, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    _assert_input_error(["run", "--mix", "mix1", "--platform", str(bad)],
                        capsys, "JSON object")
    _assert_input_error(["run", "--mix", str(bad)], capsys, "JSON object")


@pytest.mark.parametrize("edit,message", [
    (lambda d: d.update(tdp_mw=True), "tdp_mw must be a number, not True"),
    (lambda d: d.update(base_power_mw=False),
     "base_power_mw must be a number, not False"),
    (lambda d: d["clusters"][0].update(idle_power_mw=True),
     "gpu0: idle_power_mw must be a number, not True"),
    (lambda d: d["clusters"][0].update(active_power_slope_mw_per_mhz=True),
     "gpu0: active_power_slope_mw_per_mhz must be a number, not True"),
    (lambda d: d["clusters"][1].update(freq_levels_mhz=[True]),
     "dla0: freq_levels_mhz entry must be an integer, not True"),
    (lambda d: d["clusters"][1].update(throughput_gflops=[True]),
     "dla0: throughput_gflops entry must be a number, not True"),
], ids=["tdp_mw", "base_power_mw", "idle_power_mw",
        "active_power_slope_mw_per_mhz", "freq_levels_mhz",
        "throughput_gflops"])
def test_bool_board_field_exits_one(edit, message, tmp_path, capsys):
    # a JSON true used to be read as 1: "tdp_mw": true ran to exit 0
    # under a 1 mW budget
    doc = json.loads(presets.platform_text())
    edit(doc)
    board = tmp_path / "board.json"
    board.write_text(json.dumps(doc))
    _assert_input_error(["run", "--mix", "mix1", "--platform", str(board)],
                        capsys, message)


@pytest.mark.parametrize("key", ["tdp_mw", "base_power_mw"])
def test_bool_platform_override_exits_one(key, tmp_path, capsys):
    mix = tmp_path / "mix.json"
    mix.write_text(json.dumps({"requests": [_ENTRY],
                               "platform_overrides": {key: True}}))
    _assert_input_error(["run", "--mix", str(mix)], capsys,
                        f"'{key}' must be a number, not True")


@pytest.mark.parametrize("command,out,bad", [
    (["run", "--mix", "mix1"], "afile", "afile"),
    (["compare", "--mixes", "mix1"], "afile", "afile"),
    (["run", "--mix", "mix1"], "afile/sub", "afile"),
    (["run", "--mix", "mix1"], "dangling", "dangling"),
], ids=["run", "compare", "run_below_a_file", "run_dangling_symlink"])
def test_out_that_is_no_directory_exits_one_before_any_run(
        command, out, bad, tmp_path, capsys, monkeypatch):
    # each used to simulate in full, then end in a raw FileExistsError or
    # NotADirectoryError
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")
    monkeypatch.setattr(cli, "build_simulation", no_run)
    afile = tmp_path / "afile"
    afile.write_text("kept")
    (tmp_path / "dangling").symlink_to(tmp_path / "nowhere")
    _assert_input_error(command + ["--out", str(tmp_path / out)], capsys,
                        f"{tmp_path / bad} is not a directory")
    assert afile.read_text() == "kept"
    assert not (tmp_path / "nowhere").exists()


@pytest.mark.parametrize("command,name", [
    (["run", "--mix", "mix1"], "decisions.csv"),
    (["run", "--mix", "mix1"], "summary.json"),
    (["compare", "--mixes", "mix1"], "comparison.csv"),
], ids=["run", "run_last_file", "compare"])
def test_trace_file_that_is_no_regular_file_exits_one_before_any_run(
        command, name, tmp_path, capsys, monkeypatch):
    # each used to simulate in full, then end in a raw IsADirectoryError
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")
    monkeypatch.setattr(cli, "build_simulation", no_run)
    (tmp_path / "od" / name).mkdir(parents=True)
    _assert_input_error(command + ["--out", str(tmp_path / "od")], capsys,
                        f"{tmp_path / 'od' / name} is not a regular file")


@pytest.mark.parametrize("command,name", [
    (["run", "--mix", "mix1"], "power.csv"),
    (["compare", "--mixes", "mix1", "--policies", "twill", "gpu_queue"],
     "comparison.csv"),
], ids=["run", "compare"])
def test_failed_final_write_exits_one(command, name, tmp_path, capsys):
    # a symlink to itself passes the check before the run but cannot be
    # opened; the OSError used to end the run in a raw traceback
    (tmp_path / name).symlink_to(tmp_path / name)
    _assert_input_error(command + ["--out", str(tmp_path)], capsys,
                        f"Too many levels of symbolic links: "
                        f"'{tmp_path / name}'")


def test_request_past_the_horizon_exits_one(tmp_path, capsys, monkeypatch):
    # used to simulate up to the 1e7 ms cut-off, then exit 2 as an
    # internal error ("likely a stuck policy")
    def no_run(self):
        raise AssertionError("a run started")
    monkeypatch.setattr(Simulation, "run", no_run)
    mix = tmp_path / "mix.json"
    mix.write_text(json.dumps({"requests": [
        {**_ENTRY, "workload_size": 1_000_000_000}]}))
    _assert_input_error(["run", "--mix", str(mix)], capsys,
                        "vgg-19-0: cannot finish before ")
