"""Platform model: specs, frequency scaling, and the power model."""

import json

import pytest

from twillsim import (
    ClusterKind,
    ClusterSpec,
    ClusterState,
    PlatformError,
    initial_states,
    load_platform,
    power_draw,
    set_frequency,
)
from twillsim import presets


@pytest.fixture()
def platform():
    return load_platform(presets.platform_text())


def test_load_default_platform(platform):
    assert platform.name == "orin-nx-10w"
    assert platform.tdp_mw == 10000.0
    gpu, dla = platform.clusters
    assert (gpu.cluster_id, dla.cluster_id) == ("gpu0", "dla0")
    assert gpu.kind is ClusterKind.GPU
    assert dla.kind is ClusterKind.DLA
    assert gpu.max_level == 7
    assert gpu.freq_levels_mhz[0] == 306.0
    assert gpu.freq_levels_mhz[-1] == 1173.0
    assert dla.max_level == 0


def test_set_frequency(platform):
    states = initial_states(platform)
    gpu = states["gpu0"]
    assert gpu.current_level == 0
    fast = set_frequency(gpu, 7)
    assert fast.freq_mhz == 1173.0
    assert fast.spec is gpu.spec
    assert fast.spec.throughput_gflops[fast.current_level] == 2500.0
    # original state untouched
    assert gpu.current_level == 0


def test_set_frequency_out_of_range(platform):
    gpu = initial_states(platform)["gpu0"]
    with pytest.raises(PlatformError):
        set_frequency(gpu, 8)
    with pytest.raises(PlatformError):
        set_frequency(gpu, -1)


def test_dla_has_no_dvfs(platform):
    dla = initial_states(platform)["dla0"]
    with pytest.raises(PlatformError):
        set_frequency(dla, 0)


def test_throughput_increases_with_level(platform):
    table = platform.clusters[0].throughput_gflops
    assert all(a < b for a, b in zip(table, table[1:]))


def _busy(states, *cluster_ids):
    """`states` with each named cluster occupied."""
    return {cid: st._replace(occupant="r") if cid in cluster_ids else st
            for cid, st in states.items()}


def test_power_all_idle(platform):
    states = initial_states(platform)
    # base 3000 + gpu idle 500 + dla idle 300
    assert power_draw(platform, states) == pytest.approx(3800.0)


def test_power_both_busy_at_max_exceeds_budget(platform):
    """Worst-case draw: GPU at top level plus an active DLA.

    3000 + (500 + 4.5 * 1173) + (300 + 2.5 * 800) = 11078.5 mW, above
    the 10 W budget -- the platform cannot run flat out on both
    clusters, which is what makes the governor necessary.
    """
    states = initial_states(platform)
    states["gpu0"] = set_frequency(states["gpu0"], 7)
    p = power_draw(platform, _busy(states, "gpu0", "dla0"))
    assert p == pytest.approx(11078.5)
    assert p > platform.tdp_mw


def test_power_capped_level_fits_budget(platform):
    """One step down (918 MHz) keeps the same pair under the budget."""
    states = initial_states(platform)
    states["gpu0"] = set_frequency(states["gpu0"], 6)
    p = power_draw(platform, _busy(states, "gpu0", "dla0"))
    assert p == pytest.approx(9931.0)
    assert p <= platform.tdp_mw


def test_power_gpu_alone_at_max_fits_budget(platform):
    states = initial_states(platform)
    states["gpu0"] = set_frequency(states["gpu0"], 7)
    p = power_draw(platform, _busy(states, "gpu0"))
    assert p == pytest.approx(9078.5)
    assert p <= platform.tdp_mw


def test_power_monotonic_in_level_and_occupancy(platform):
    states = initial_states(platform)
    prev = None
    for level in range(platform.clusters[0].max_level + 1):
        states["gpu0"] = set_frequency(initial_states(platform)["gpu0"], level)
        lo = power_draw(platform, states)
        hi = power_draw(platform, _busy(states, "gpu0"))
        # an idle cluster draws its idle power at any level
        assert hi > lo == 3800.0
        if prev is not None:
            assert hi > prev
        prev = hi


def test_cluster_spec_validation():
    # integer levels, so that each table reaches the check it is named
    # for and not the integer reader's refusal of a float
    with pytest.raises(PlatformError,
                       match="^g: frequency levels must be strictly ascending$"):
        ClusterSpec("g", ClusterKind.GPU, (400, 300), (1.0, 2.0), 0.0, 1.0)
    with pytest.raises(PlatformError,
                       match="^g: throughput must be strictly increasing$"):
        ClusterSpec("g", ClusterKind.GPU, (300, 400), (2.0, 1.0), 0.0, 1.0)
    with pytest.raises(PlatformError,
                       match="^g: 1 frequency levels but 2 throughput entries$"):
        ClusterSpec("g", ClusterKind.GPU, (300,), (1.0, 2.0), 0.0, 1.0)
    with pytest.raises(PlatformError, match="^g: empty frequency table$"):
        ClusterSpec("g", ClusterKind.GPU, (), (), 0.0, 1.0)
    with pytest.raises(PlatformError,
                       match="^d: DLA clusters have exactly one frequency level$"):
        ClusterSpec("d", ClusterKind.DLA, (300, 400), (1.0, 2.0), 0.0, 1.0)


@pytest.mark.parametrize("kind", ["DLA", "GPU", None, 1])
def test_a_cluster_kind_must_be_a_cluster_kind(kind):
    # a string kind was once kept, and the cluster was then neither GPU
    # nor DLA
    with pytest.raises(PlatformError,
                       match=f"^d: kind must be a ClusterKind, not {kind!r}$"):
        ClusterSpec("d", kind, (300, 400), (1.0, 2.0), 0.0, 1.0)
    # the loader reads a kind by its value
    doc = json.loads(presets.platform_text())
    doc["clusters"][1]["kind"] = kind
    if kind in ("DLA", "GPU"):
        assert load_platform(json.dumps(doc)).clusters[1].kind.value == kind
    else:
        with pytest.raises(PlatformError, match=f"^platform config has a "
                           f"malformed field: {kind!r} is not a valid "
                           "ClusterKind$"):
            load_platform(json.dumps(doc))


@pytest.mark.parametrize("levels", [(0, 400), (-500, 400), (float("nan"), 400),
                                    (300, float("inf"))])
def test_cluster_frequency_levels_must_be_positive(levels):
    with pytest.raises(PlatformError, match="freq_levels_mhz"):
        ClusterSpec("g", ClusterKind.GPU, levels, (1.0, 2.0), 0.0, 1.0)


@pytest.mark.parametrize("field", ["idle_power_mw", "active_power_slope_mw_per_mhz"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
def test_cluster_power_coefficients_must_be_finite(field, value):
    good = dict(idle_power_mw=100.0, active_power_slope_mw_per_mhz=1.0)
    with pytest.raises(PlatformError, match=f"{field} must be finite"):
        ClusterSpec("g", ClusterKind.GPU, (300, 400), (1.0, 2.0),
                    **{**good, field: value})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0])
def test_cluster_throughput_must_be_finite_and_positive(value):
    with pytest.raises(PlatformError, match="throughput"):
        ClusterSpec("g", ClusterKind.GPU, (300, 400), (1.0, value), 0.0, 1.0)


@pytest.mark.parametrize("edit,match", [
    (lambda d: d["clusters"][0].update(cluster_id=5), "cluster_id must be a string"),
    (lambda d: d["clusters"][0].update(cluster_id="g\udc80"), "UTF-8"),
    (lambda d: d.update(name={"a": 1}), "name must be a string"),
    (lambda d: d.update(clusters=[]), "no clusters"),
    (lambda d: d["clusters"][1].update(cluster_id="gpu0"),
     "^duplicate cluster_id$"),
    (lambda d: d["clusters"][1].pop("kind"),
     "^cluster entry missing field 'kind'$"),
    (lambda d: d["clusters"][1].update(kind="TPU"),
     "^platform config has a malformed field: 'TPU' is not a valid "
     "ClusterKind$"),
], ids=["int_cluster_id", "surrogate_cluster_id", "object_name", "no_clusters",
        "duplicate_cluster_id", "cluster_without_kind", "unknown_kind"])
def test_load_platform_rejects_bad_ids_names_and_empty_boards(edit, match):
    doc = json.loads(presets.platform_text())
    edit(doc)
    with pytest.raises(PlatformError, match=match):
        load_platform(json.dumps(doc))


def test_peak_power_is_every_cluster_busy_at_its_top_level(platform):
    states = {c.cluster_id: ClusterState(c, c.max_level, "r")
              for c in platform.clusters}
    assert platform.peak_power_mw == power_draw(platform, states)
    assert platform.peak_power_mw == 11078.5


@pytest.mark.parametrize("edit", [
    lambda d: d["clusters"][0].update(active_power_slope_mw_per_mhz=1e308),
    lambda d: [c.update(idle_power_mw=1e308) for c in d["clusters"]],
    lambda d: d.update(base_power_mw=1e308,
                       clusters=[{**d["clusters"][0],
                                  "idle_power_mw": 1e308}]),
], ids=["gpu_slope", "idle_on_both", "base_and_idle"])
def test_a_board_whose_peak_draw_overflows_is_refused(edit):
    # each field is finite, but the sum used to reach power.csv and the
    # energy total as inf
    doc = json.loads(presets.platform_text())
    edit(doc)
    with pytest.raises(PlatformError, match=(
            r"^orin-nx-10w: peak power draw overflows: base_power_mw plus "
            r"each cluster's idle and active power at its top frequency is "
            r"not finite$")):
        load_platform(json.dumps(doc))


@pytest.mark.parametrize("text", ["[]", "5", '"board"', "null"])
def test_load_platform_rejects_a_non_object(text):
    with pytest.raises(PlatformError, match="JSON object"):
        load_platform(text)


def test_load_platform_rejects_garbage():
    with pytest.raises(PlatformError):
        load_platform("not json at all {")
    doc = json.loads(presets.platform_text())
    del doc["tdp_mw"]
    with pytest.raises(PlatformError, match="tdp_mw"):
        load_platform(json.dumps(doc))


def test_states_are_immutable(platform):
    gpu = initial_states(platform)["gpu0"]
    with pytest.raises(AttributeError):
        gpu.current_level = 3
