"""Tour of the simulated board: clusters, DVFS table, and the power model.

Prints the frequency/throughput table for each cluster and evaluates the
affine power model at a few operating points so the 10 W budget math is
visible at a glance.
"""

from twillsim import initial_states, load_platform, power_draw, presets, set_frequency


def show_point(platform, states, busy, label):
    # a cluster draws active power while it holds a task
    occupied = {cid: st._replace(occupant="task") if cid in busy else st
                for cid, st in states.items()}
    p = power_draw(platform, occupied)
    headroom = platform.tdp_mw - p
    print(f"  {label:<42} {p:8.1f} mW   headroom {headroom:+8.1f} mW")


def main():
    platform = load_platform(presets.platform_text())
    print(f"board: {platform.name}")
    print(f"budget: {platform.tdp_mw:.0f} mW   base draw: {platform.base_power_mw:.0f} mW")
    print()

    for spec in platform.clusters:
        print(f"{spec.cluster_id} ({spec.kind.name}), idle {spec.idle_power_mw:.0f} mW, "
              f"active slope {spec.active_power_slope_mw_per_mhz} mW/MHz")
        for level in range(spec.num_levels):
            rate = spec.throughput_gflops[level] / 1000.0
            print(f"  level {level}: {spec.freq_levels_mhz[level]:6.0f} MHz -> "
                  f"{spec.throughput_gflops[level]:7.1f} GF/s ({rate:.4f} GF/ms)")
        print()

    states = initial_states(platform)
    top = {c.cluster_id: c.max_level for c in platform.clusters if c.kind.name == "GPU"}
    pinned = {cid: (set_frequency(st, top[cid]) if cid in top else st)
              for cid, st in states.items()}

    print("power model at selected operating points:")
    show_point(platform, states, (), "everything idle, boot frequencies")
    show_point(platform, pinned, ("gpu0",), "GPU busy at top level, DLA idle")
    show_point(platform, pinned, ("dla0",), "DLA busy, GPU idle at top level")
    show_point(platform, pinned, ("gpu0", "dla0"), "both busy, GPU at top level")
    # the last point is the one a scheduler has to dodge: it exceeds the
    # budget, so concurrent execution forces the GPU down a few bins
    over = {cid: set_frequency(st, 6) if cid in top else st for cid, st in states.items()}
    show_point(platform, over, ("gpu0", "dla0"), "both busy, GPU one bin lower")


if __name__ == "__main__":
    main()
