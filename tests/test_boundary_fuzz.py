"""A seeded fuzz of every input document.

Each case takes the packaged platform, DLA matrix, one of mix1–mix5 or
the efficientnet-b4 descriptor (a model mix1 runs), changes one node of
it, or two nodes neither of which holds the other, and runs the mix on
the result (mix1 for a document that is not a mix): each node is
dropped, or set to null, a bool, an array, an object, NaN, an infinity,
-1, 1e308, an integer past the float range, or a tiny positive float:
5e-324, the least subnormal, or 1e-308, near the least normal.  A case
either runs with every request complete and a finite energy total, or
is refused with the boundary's typed error.  Every few cases also go
through `twillsim run`, which must then exit 0, or 1 with the same
`error: …` line, never a traceback or an internal error.
"""

import json
import math
import random

import pytest

from twillsim import (POLICIES, ModelError, PlatformError, WorkloadError,
                      build_simulation, presets)
from twillsim.cli import main

TYPED = (PlatformError, ModelError, WorkloadError, presets.PresetError)
DROP = object()
VALUES = (DROP, None, True, [], {}, math.nan, math.inf, -math.inf, -1, 1e308,
          10 ** 400, 5e-324, 1e-308)
POLICY_NAMES = sorted(POLICIES)
MODEL = "efficientnet-b4"
# each document, as the config-dir file that replaces the packaged one,
# and the mix that runs on it
DOCUMENTS = {
    "platform.json": (presets.platform_text, "mix1"),
    "dla_matrix.json": (presets.matrix_text, "mix1"),
    f"models/{MODEL}.json": (lambda: presets.model_text(MODEL), "mix1"),
    **{f"mixes/{mix}.json": (lambda mix=mix: presets.mix_text(mix), mix)
       for mix in presets.available_mixes()},
}
# per document, by the number of nodes a case changes; one case in
# CLI_EVERY also runs through the CLI
CASES = {1: 100, 2: 30}
CLI_EVERY = 5


def _nodes(node, path=()):
    """The path of every node of a decoded document, the root first."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _mutated(text, edits) -> str:
    """JSON `text` with each `(path, value)` of `edits` made: the node at
    path dropped, or set to value.  No path holds another, and the last
    path goes first, so that a dropped array entry moves no entry
    another edit names."""
    path, value = edits[0]
    if not path:  # the root holds every other node
        return "" if value is DROP else json.dumps(value)
    doc = json.loads(text)
    for path, value in sorted(edits, key=lambda edit: edit[0], reverse=True):
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return json.dumps(doc)


def _outcome(mix, policy) -> str | None:
    """None when `mix` runs with every request complete, else the typed
    refusal's message."""
    try:
        sim = build_simulation(mix, policy)
        trace = sim.run()
    except TYPED as e:
        return str(e)
    assert len(trace.requests) == len(sim.scenario.requests)
    assert all(r.completed_ms is not None for r in trace.requests)
    assert math.isfinite(trace.energy_mj)
    return None


def _check_cli(mix, policy, refusal, capsys):
    code = main(["run", "--mix", mix, "--policy", policy])
    err = capsys.readouterr().err
    if refusal is None:
        assert (code, err) == (0, "")
    else:
        assert (code, err) == (1, f"error: {refusal}\n")


def _fuzz(file, nodes, tmp_path, monkeypatch, capsys):
    """CASES[nodes] seeded cases of `file`, each changing that many
    nodes of it."""
    load, mix = DOCUMENTS[file]
    text = load()
    paths = list(_nodes(json.loads(text)))
    if nodes > 1:
        paths = paths[1:]  # the root holds every other node
    target = tmp_path / file
    target.parent.mkdir(exist_ok=True)
    monkeypatch.setenv(presets.CONFIG_ENV_VAR, str(tmp_path))
    rng = random.Random(file if nodes == 1 else f"{file}/{nodes}")
    for i in range(CASES[nodes]):
        edits = []
        while len(edits) < nodes:
            path = rng.choice(paths)
            if not any(path[:len(p)] == p or p[:len(path)] == path
                       for p, _ in edits):
                edits.append((path, rng.choice(VALUES)))
        policy = rng.choice(POLICY_NAMES)
        target.write_text(_mutated(text, edits))
        case = ([(p, "drop" if v is DROP else v) for p, v in edits], policy)
        try:
            refusal = _outcome(mix, policy)
            if i % CLI_EVERY == 0:
                _check_cli(mix, policy, refusal, capsys)
        except Exception as e:  # name the case, so that it can be rerun
            raise AssertionError(f"{file} {case}: {e!r}") from e


@pytest.mark.parametrize("file", sorted(DOCUMENTS))
def test_a_mutated_document_runs_or_is_refused(file, tmp_path, monkeypatch,
                                               capsys):
    _fuzz(file, 1, tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("file", sorted(DOCUMENTS))
def test_a_document_with_two_mutated_nodes_runs_or_is_refused(
        file, tmp_path, monkeypatch, capsys):
    _fuzz(file, 2, tmp_path, monkeypatch, capsys)


def _edit(file, path, value):
    """One pinned edit: `file`'s node at `path` set to `value`."""
    load, _ = DOCUMENTS[file]
    return file, _mutated(load(), [(path, value)]), ()


def _knob(setting):
    """One pinned engine knob, `--set` on the packaged documents."""
    return None, None, ("--set", setting)


# each of these escaped every refusal once: an int past the float range
# ended in an OverflowError traceback, and a board faster than the
# clock can time, or with no GPU, in an internal error (exit 2); a
# cluster too slow to finish anything in a ZeroDivisionError traceback
# or an internal error, and a board whose power sums past the float
# range in an exit 0 with inf in power.csv or the energy total; a
# fallback penalty that stalls the DLA in an internal error under the
# policies that place a model there whole
PINNED = [
    pytest.param(*_edit("mixes/mix1.json", ["requests", 1, "workload_size"],
                        10 ** 400),
                 POLICY_NAMES, "efficientnet-b4-0: workload_size must convert "
                 "to a finite float, not 1" + "0" * 400, id="workload_size"),
    pytest.param(*_edit("platform.json",
                        ["clusters", 0, "freq_levels_mhz", 7], 10 ** 400),
                 POLICY_NAMES, "gpu0: freq_levels_mhz entries must convert to "
                 "a finite float", id="freq_levels_mhz"),
    pytest.param(*_edit(f"models/{MODEL}.json", ["layers", 3, "flops"],
                        10 ** 400),
                 POLICY_NAMES, "flops must convert to a finite float",
                 id="layer_flops"),
    pytest.param(*_edit("platform.json",
                        ["clusters", 0, "throughput_gflops", 7], 1e15),
                 ["twill"], "orin-nx-10w: clusters too fast for the clock: "
                 "1e+15 GFLOPS", id="gpu_1e15"),
    pytest.param(*_edit("platform.json",
                        ["clusters", 1, "throughput_gflops", 0], 1e308),
                 POLICY_NAMES, "orin-nx-10w: clusters too fast for the clock: "
                 "1e+308 GFLOPS", id="dla_1e308"),
    pytest.param(*_edit("platform.json", ["clusters", 0], DROP),
                 POLICY_NAMES, "orin-nx-10w: platform has no GPU cluster",
                 id="no_gpu"),
    pytest.param(*_edit("platform.json",
                        ["clusters", 0, "throughput_gflops", 0], 5e-324),
                 POLICY_NAMES, "orin-nx-10w: cluster gpu0 too slow for the "
                 "horizon: 4.94066e-324 GFLOPS", id="gpu0_level0_5e-324"),
    pytest.param(*_edit("platform.json",
                        ["clusters", 1, "throughput_gflops", 0], 1e-308),
                 POLICY_NAMES, "orin-nx-10w: cluster dla0 too slow for the "
                 "horizon: 1e-308 GFLOPS", id="dla_1e-308"),
    pytest.param(*_edit("platform.json",
                        ["clusters", 0, "active_power_slope_mw_per_mhz"],
                        1e308),
                 POLICY_NAMES, "orin-nx-10w: peak power draw overflows",
                 id="gpu_slope_1e308"),
    pytest.param(*_edit("platform.json", ["base_power_mw"], 1e308),
                 POLICY_NAMES, "orin-nx-10w: a peak power draw of 1e+308 mW "
                 "over the 10000000.0 ms horizon overflows the energy total",
                 id="base_power_1e308"),
    pytest.param(*_knob("dla_fallback_penalty=1e308"), POLICY_NAMES,
                 "orin-nx-10w: cluster dla0 too slow for the horizon under a "
                 "dla_fallback_penalty of 1e+308", id="dla_penalty_1e308"),
]


@pytest.mark.parametrize("file,text,args,policies,refusal", PINNED)
def test_a_pinned_escape_is_refused(file, text, args, policies, refusal,
                                    tmp_path, monkeypatch, capsys):
    if file is not None:
        target = tmp_path / file
        target.parent.mkdir(exist_ok=True)
        target.write_text(text)
        monkeypatch.setenv(presets.CONFIG_ENV_VAR, str(tmp_path))
    for policy in policies:
        assert main(["run", "--mix", "mix1", "--policy", policy, *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {refusal}")
        assert err.count("\n") == 1
