"""The paired A/B runner: its summary of a metric and a failed run."""

import json

import pytest

from ab import summarise

SPECS = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
         {"name": "hits", "unit": "count", "better": "higher", "bound": 0.1}]


def _pair(head, base):
    return {side: {"metrics": {name: {"value": value}
                               for name, value in zip(("wall_s", "hits"),
                                                      values)}}
            for side, values in (("head", head), ("base", base))}


def test_medians_quartiles_ratio_and_wins():
    runs = [_pair((1.0, 10), (2.0, 10)), _pair((3.0, 12), (2.0, 9)),
            _pair((2.0, 11), (4.0, 11))]
    wall, hits = summarise(runs, SPECS)
    assert wall["head"] == (1.0, 2.0, 3.0) and wall["base"] == (2.0, 2.0, 4.0)
    assert (wall["ratio"], wall["wins"], wall["pairs"]) == (1.0, 2, 3)
    assert hits["ratio"] == pytest.approx(11 / 10)
    assert hits["wins"] == 1  # ties count for neither side
    assert not wall["worse"] and not hits["worse"]


def test_a_metric_worse_than_its_bound_is_marked():
    wall, hits = summarise([_pair((1.3, 8), (1.0, 10))], SPECS)
    assert wall["head"] == (1.3, 1.3, 1.3)
    assert wall["worse"] and hits["worse"]
    wall, hits = summarise([_pair((1.2, 9.5), (1.0, 10))], SPECS)
    assert not wall["worse"] and not hits["worse"]


def test_a_failed_run_ends_the_comparison_and_keeps_the_runs(monkeypatch,
                                                             tmp_path):
    import ab

    results = iter([{"correct": True}, {"correct": True},
                    {"error": "bench/run.py exited 1:\nboom"},
                    {"correct": True}])
    monkeypatch.setattr(ab, "extract", lambda rev, into: "0" * 40)
    monkeypatch.setattr(ab, "bench", lambda root, w, args: next(results))
    monkeypatch.setattr(ab, "OUT", tmp_path)
    assert ab.main(["--base", "HEAD", "--workload", "zoo", "--pairs", "3"]) == 1
    saved, = tmp_path.iterdir()
    runs = json.loads(saved.read_text())["runs"]["zoo"]
    # both pairs run so far, the second with base run first, and failed
    assert [pair["first"] for pair in runs] == ["head", "base"]
    assert runs[1]["base"] == {"error": "bench/run.py exited 1:\nboom"}
    assert runs[1]["head"] == runs[0]["head"] == {"correct": True}
