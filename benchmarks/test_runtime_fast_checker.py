"""§5.1 runtime claim: "the fast checker takes only 100-300 ms for the
largest DCN, effectively providing instantaneous decisions."

We time one fast-checker decision per link of a seeded sample from every
stage of the full-size medium and large DCNs (O(15K) and O(35K) links):
ToR uplinks, whose check walks one ToR, and agg–spine links, whose check
walks a whole pod.  Each sampled link is checked once, so no memo is warm.
The checker is incremental: a decision costs its dirty region (the links
below the checked one), not |E|, which the second test pins with the DP's
own link counter.  Absolute times depend on the host; the shape claims
are interactive time and a cost that follows the dirty region.
"""

import random
import statistics
import time

import pytest

from conftest import write_benchmark_json, write_report

from repro.core import CapacityConstraint, FastChecker
from repro.workloads import LARGE_DCN, MEDIUM_DCN

#: Links sampled per stage.
SAMPLE = 200
STAGES = {0: "tor_agg", 1: "agg_spine"}


@pytest.fixture(scope="module")
def topos():
    return {
        "medium": (MEDIUM_DCN, MEDIUM_DCN.build(scale=1.0)),
        "large": (LARGE_DCN, LARGE_DCN.build(scale=1.0)),
    }


def _sample(topo, count, seed=0):
    """``count`` seeded-random links per stage of their lower endpoint."""
    by_stage = {}
    for lid in topo.link_ids():
        by_stage.setdefault(topo.switch(lid[0]).stage, []).append(lid)
    rng = random.Random(seed)
    return {
        stage: rng.sample(links, count)
        for stage, links in sorted(by_stage.items())
    }


def _p50_p90(samples):
    return statistics.median(samples), statistics.quantiles(samples, n=10)[8]


def test_fast_checker_latency(topos):
    metrics, lines = {}, [
        "§5.1 fast-checker latency, one decision per link, "
        f"{SAMPLE} seeded links per stage (first check of each)",
    ]
    for tag, (_profile, topo) in topos.items():
        checker = FastChecker(topo, CapacityConstraint(0.75))
        lines.append(f"{tag} DCN ({topo.num_links} links):")
        everything = []
        p50_of = {}
        for stage, links in _sample(topo, SAMPLE).items():
            took_us = []
            for lid in links:
                start = time.perf_counter()
                checker.check(lid)
                took_us.append((time.perf_counter() - start) * 1e6)
            p50, p90 = _p50_p90(took_us)
            p50_of[stage] = p50
            metrics[f"check_us_p50_{tag}_{STAGES[stage]}"] = round(p50, 2)
            metrics[f"check_us_p90_{tag}_{STAGES[stage]}"] = round(p90, 2)
            lines.append(
                f"  {STAGES[stage]:9s} p50 {p50:7.1f} us  p90 {p90:7.1f} us"
            )
            everything += took_us
        p50, p90 = _p50_p90(everything)
        metrics[f"check_us_p50_{tag}"] = round(p50, 2)
        metrics[f"check_us_p90_{tag}"] = round(p90, 2)
        metrics[f"mean_ms_{tag}"] = round(statistics.fmean(everything) / 1e3, 4)
        metrics[f"links_{tag}"] = topo.num_links
        lines.append(f"  all       p50 {p50:7.1f} us  p90 {p90:7.1f} us")
        # Interactive-time decisions (generous bound for slow CI hosts).
        assert p90 < 1e6
        # A pod's worth of ToRs below an agg-spine link costs more than
        # the one ToR below a ToR uplink.
        assert p50_of[1] > p50_of[0]
    lines.append("paper: 100-300 ms on the largest DCN")
    write_report("runtime_fast_checker", lines)
    write_benchmark_json("runtime_fast_checker", metrics)


def test_check_walks_the_links_below_it_whatever_the_fabric_size(topos):
    """On a fully enabled fabric a check crosses the checked link, then
    pushes the change down every enabled link below it: nothing for a ToR
    uplink, one link per ToR of the pod for an agg-spine link.  The
    medium and large DCNs differ 2.3x in |E| and not at all in that."""
    for profile, topo in topos.values():
        checker = FastChecker(topo, CapacityConstraint(0.75))
        stats = checker.counter.stats
        below = {0: 0, 1: profile.tors_per_pod}
        for stage, links in _sample(topo, 20, seed=1).items():
            for lid in links:
                before = stats.links_visited
                checker.check(lid)
                assert stats.links_visited - before == 1 + below[stage]
