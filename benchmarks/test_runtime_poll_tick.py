"""One poll tick at the large DCN's full size.

ROADMAP item 5's target: digest one 15-minute poll of the paper's 350K
links (§2) in well under a second.  This times ``SnmpPoller.poll_once``
(collect → transport → sanitize → store as one array pass; the fault
chain's draws are read ahead in blocks, and Python runs only where a
fault fires and on frozen and held directions) on ``LARGE_DCN.build(scale=
1.0)`` — 36,864 links, 73,728 directions — under the ``none``, ``mild``
and ``harsh`` chaos presets, and scales the per-direction figure to 350K
links.  The ``hotspots`` row is ``mild`` with the congestion co-model on
(``CongestionModel.traffic``: one array call per tick, each direction's
draws read a block of ticks ahead), and records what a direction's traffic
state adds to a checkpoint.  The median of a few ticks hides the tick that
refills the blocks, so that row also reports the mean over one block of
ticks starting at a refill, and is gated on it.  Recorded to
``benchmarks/results/runtime_poll_tick.{txt,json}``.

The closed-loop end-to-end numbers (sensing, controller, snapshots
included) are the ``chaos_*`` workloads of ``python3 -m bench.run``; this
isolates the telemetry path at a size those do not reach.
"""

import pickle
import time
from functools import partial

import numpy as np
from conftest import write_benchmark_json, write_report

from repro.congestion import congestion_model
from repro.congestion.losses import BLOCK_TICKS
from repro.core.diagnosis import CauseClassifier
from repro.faults import FaultyTransport
from repro.simulation.chaos import chaos_preset
from repro.telemetry import SnmpPoller, TelemetrySanitizer, TelemetryStore
from repro.telemetry.poller import ConstantTraffic
from repro.topology import sprinkle_corruption
from repro.workloads import LARGE_DCN

#: Row name → (chaos preset, congestion preset).
ROWS = {
    "none": ("none", None),
    "mild": ("mild", None),
    "harsh": ("harsh", None),
    "hotspots": ("mild", "hotspots"),
}
PAPER_LINKS = 350_000
#: Ticks timed per preset, after a warm-up that builds the direction
#: table, seeds baselines and — under ``harsh`` — lets rebased, frozen and
#: held directions accumulate (after two ticks almost none are rebased).
TICKS = 6
#: Whole blocks, so the first timed tick of the co-model row refills.
WARMUP_TICKS = 3 * BLOCK_TICKS
#: Gate, with room for a slow CI box.  Measured on the 2-core reference
#: host, medians of five runs alternated with a per-row draw loop (one
#: ``random()`` call per drawing fault per direction): mild 0.31 s with
#: that loop, 0.25 s with the draws read ahead in blocks and Python run
#: only where a fault fires; harsh 0.44 s either way (a fault fires on
#: about one direction in six, and each of those runs its rest in
#: Python; two more draws per direction than mild, the fault state in
#: columns, a second and third wave of deliveries; 2.8 s when rebased
#: directions went through the per-sample API); none 0.18-0.21 s.  The
#: per-sample loop this replaced needs ~8 s under any preset.  hotspots:
#: 1.54 s with one Python ``gauss`` and ``random`` call, a sine and two
#: powers per direction; 0.42 s median and 0.58 s over a block from a
#: refill with each stream read 16 ticks at a time (per direction and
#: tick: half a Gaussian pair's log, cos and sin, a sine, one power — two
#: near saturation), 0.37 s and 0.52 s with the fault draws in blocks.
#: The co-model gate is twice the block mean.
CEILING_350K_S = 1.5
CEILING_350K_CO_MODEL_S = 1.2
#: A direction's traffic state in a checkpoint: twelve 8-byte columns, a
#: cached Gaussian and a row-index entry (a generator state is ~2.5 KB).
CEILING_CHECKPOINT_BYTES = 128


def _traffic_state_bytes(congestion: str) -> float:
    """What one direction's traffic state adds to the pickled co-model
    (measured away from a poller, which would hang its own state off the
    topology's subscriber lists)."""
    topo = LARGE_DCN.build(scale=1.0)
    model = congestion_model(congestion, topo, seed=1)
    empty_bytes = len(pickle.dumps(model, protocol=4))
    rows = np.arange(2 * topo.num_links)
    # One tick: every stream holds a cached Gaussian, the larger state.
    model.traffic(rows, 900.0, 900.0)
    grown_bytes = len(pickle.dumps(model, protocol=4))
    return (grown_bytes - empty_bytes) / len(rows)


def _tick_seconds(preset: str, congestion=None):
    topo = LARGE_DCN.build(scale=1.0)
    sprinkle_corruption(topo, fraction=0.02)
    transport = FaultyTransport(topo, chaos_preset(preset, seed=1))
    sanitizer = TelemetrySanitizer(topo)
    if congestion is None:
        traffic = dict(traffic_fn=ConstantTraffic(10_000_000))
    else:
        model = congestion_model(congestion, topo, seed=1)
        traffic = dict(traffic_fn=partial(model.traffic, interval_s=900.0))
    poller = SnmpPoller(
        topo,
        TelemetryStore(topo, CauseClassifier().correlation_window),
        transport=transport,
        sanitizer=sanitizer,
        **traffic,
    )
    poller.run(WARMUP_TICKS)
    ticks = []
    # With the co-model on, one block of ticks: the first refills them all.
    for _ in range(TICKS if congestion is None else BLOCK_TICKS):
        start = time.perf_counter()
        poller.poll_once()
        ticks.append(time.perf_counter() - start)
    directions = 2 * topo.num_links
    handled = sanitizer.stats.samples + sanitizer.stats.missing
    assert handled >= (WARMUP_TICKS + len(ticks) - 1) * directions * 0.7
    median = sorted(ticks[:TICKS])[TICKS // 2]
    return median, sum(ticks) / len(ticks), directions


def test_poll_tick_at_paper_scale():
    lines = [
        "one SnmpPoller.poll_once on LARGE_DCN.build(scale=1.0), "
        f"median of {TICKS} ticks after {WARMUP_TICKS}",
        f"{'preset':<8}{'directions':>12}{'tick_ms':>10}"
        f"{'us/direction':>14}{'350K-link tick_s':>18}",
    ]
    metrics = {}
    for preset, (chaos, congestion) in ROWS.items():
        tick_s, block_mean_s, directions = _tick_seconds(chaos, congestion)
        us_per_direction = tick_s / directions * 1e6
        at_paper_scale_s = us_per_direction * 1e-6 * 2 * PAPER_LINKS
        lines.append(
            f"{preset:<8}{directions:>12}{tick_s * 1e3:>10.1f}"
            f"{us_per_direction:>14.3f}{at_paper_scale_s:>18.3f}"
        )
        metrics[f"{preset}_directions"] = directions
        metrics[f"{preset}_tick_ms"] = tick_s * 1e3
        metrics[f"{preset}_us_per_direction"] = us_per_direction
        metrics[f"{preset}_tick_s_at_350k_links"] = at_paper_scale_s
        if congestion is None:
            assert at_paper_scale_s < CEILING_350K_S, (preset, at_paper_scale_s)
        else:
            block_at_paper_scale_s = block_mean_s / directions * 2 * PAPER_LINKS
            lines.append(
                f"{preset}: mean of {BLOCK_TICKS} ticks from a refill "
                f"{block_mean_s * 1e3:.1f} ms, "
                f"{block_at_paper_scale_s:.3f} s at 350K links"
            )
            metrics[f"{preset}_block_mean_tick_ms"] = block_mean_s * 1e3
            metrics[f"{preset}_block_mean_tick_s_at_350k_links"] = (
                block_at_paper_scale_s
            )
            assert block_at_paper_scale_s < CEILING_350K_CO_MODEL_S, (
                preset, block_at_paper_scale_s
            )
            state_bytes = _traffic_state_bytes(congestion)
            lines.append(
                f"{preset}: {state_bytes:.1f} checkpoint bytes per "
                "direction of traffic state"
            )
            metrics[f"{preset}_checkpoint_bytes_per_direction"] = state_bytes
            assert 0 < state_bytes < CEILING_CHECKPOINT_BYTES
    write_report("runtime_poll_tick", lines)
    write_benchmark_json("runtime_poll_tick", metrics)
