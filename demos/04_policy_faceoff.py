"""Run every packaged mix under all four policies and tabulate the results.

Columns: makespan, summed waiting time across requests, fraction of the
run spent over the power budget, and energy.  Each mix is prepared once
(its models parsed and analysed once), and each policy runs from that
build.  The adaptive scheduler
should win makespan on every mix while staying inside the budget.
"""

from twillsim import POLICIES, Simulation, make_policy, prepare_mix, presets


def main():
    names = sorted(POLICIES)
    for mix in presets.available_mixes():
        print(f"--- {mix} ---")
        print(f"{'policy':<16} {'makespan_ms':>12} {'waiting_ms':>11} "
              f"{'over-budget':>11} {'energy_mj':>10}")
        spans = {}
        prepared = prepare_mix(mix)
        for policy in names:
            trace = Simulation(prepared, make_policy(policy)).run()
            waiting = sum(r.waiting_ms for r in trace.requests)
            spans[policy] = trace.makespan_ms
            print(f"{policy:<16} {trace.makespan_ms:>12.1f} {waiting:>11.1f} "
                  f"{trace.violation_fraction:>10.1%} {trace.energy_mj:>10.1f}")
        best_other = min(v for k, v in spans.items() if k != "twill")
        gain = (best_other - spans["twill"]) / best_other
        print(f"adaptive vs best baseline: {gain:+.1%} makespan\n")


if __name__ == "__main__":
    main()
