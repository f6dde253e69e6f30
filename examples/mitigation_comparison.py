#!/usr/bin/env python3
"""Compare mitigation strategies on a trace-driven DCN simulation (§7.1).

Replays the same synthetic corruption trace (Table-1 rates, weak locality,
Poisson arrivals) under four policies — CorrOpt, fast-checker-only,
switch-local (today's practice), and no mitigation — and reports total
penalty, worst-ToR capacity, and disable counts for each.

Run:  python examples/mitigation_comparison.py [--capacity 0.75] [--days 45]
"""

import argparse

from repro.simulation import make_scenario, run_scenario
from repro.workloads import MEDIUM_DCN

STRATEGIES = ("corropt", "fast-checker-only", "switch-local", "none")

DAY_S = 86_400.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--capacity", type=float, default=0.75)
    parser.add_argument("--days", type=int, default=45)
    parser.add_argument("--scale", type=float, default=0.4)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    scenario = make_scenario(
        profile=MEDIUM_DCN,
        scale=args.scale,
        duration_days=args.days,
        seed=args.seed,
        capacity=args.capacity,
        events_per_10k_links_per_day=15,
    )
    topo = scenario.topo_factory()
    print(
        f"medium DCN at scale {args.scale}: {topo.num_links} links; "
        f"{len(scenario.trace)} corruption events over {args.days} days; "
        f"capacity constraint {args.capacity:.0%}"
    )

    # Same trace, same repair seed: only the disabling strategy differs.
    results = {
        name: run_scenario(scenario, name, repair_accuracy=0.8)
        for name in STRATEGIES
    }

    print(
        f"\n{'strategy':20s} {'penalty ∫':>12s} {'mean/s':>10s} "
        f"{'disabled':>9s} {'kept':>5s} {'worstToR':>9s}"
    )
    baseline = results["switch-local"].penalty_integral
    for name, result in sorted(
        results.items(), key=lambda kv: kv[1].penalty_integral
    ):
        m = result.metrics
        disabled = m.disabled_on_onset + m.disabled_on_activation
        print(
            f"{name:20s} {result.penalty_integral:12.3e} "
            f"{result.mean_penalty():10.2e} {disabled:9d} "
            f"{m.kept_active_on_onset:5d} "
            f"{m.worst_tor_fraction.min_value():9.3f}"
        )

    corropt = results["corropt"].penalty_integral
    if baseline > 0 and corropt > 0:
        print(
            f"\nCorrOpt reduces corruption losses by "
            f"{baseline / corropt:,.0f}x vs switch-local "
            f"(paper: 3-6 orders of magnitude at c=75%)"
        )
    elif baseline > 0:
        print(
            "\nCorrOpt eliminated corruption losses entirely on this trace "
            f"(switch-local accumulated {baseline:.3e}; "
            "paper: 3-6 orders of magnitude reduction at c=75%)"
        )

    print("\nhourly penalty sparkline (corropt vs switch-local):")
    for name in ("corropt", "switch-local"):
        series = results[name].metrics.penalty
        marks = []
        for day in range(0, args.days, max(1, args.days // 60)):
            value = series.value_at(day * DAY_S)
            if value <= 0:
                marks.append(".")
            elif value < 1e-5:
                marks.append("-")
            elif value < 1e-3:
                marks.append("+")
            else:
                marks.append("#")
        print(f"  {name:14s} {''.join(marks)}")
    print("  legend: . none   - <1e-5   + <1e-3   # >=1e-3 penalty/s")


if __name__ == "__main__":
    main()
