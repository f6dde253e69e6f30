"""Command-line interface to the CorrOpt reproduction.

Subcommands mirror the system's operational surfaces:

- ``topology``  — build a Clos/fat-tree topology and save it as JSON;
- ``study``     — run the §2–3 measurement study and print its statistics;
- ``simulate``  — replay a corruption trace under a mitigation strategy
  (or several at once with ``--strategies a,b --jobs N``);
- ``sweep``     — run a strategies × capacities × seeds grid through the
  deterministic parallel runner, emitting canonical JSONL;
- ``tournament`` — every mitigation strategy head-to-head across presets ×
  penalty functions × LG coverages, with a canonical leaderboard;
- ``chaos``     — closed-loop run with telemetry faults injected into the
  monitoring path (sanitizer + fail-safe controller in the loop);
- ``serve``     — the chaos loop as a long-running service: streaming
  ingestion behind bounded queues, sharded per-segment controllers, and
  deterministic checkpoint/restore (kill at any boundary, resume with
  ``--resume-from``, byte-identical reports);
- ``recommend`` — run Algorithm 1 on one link's observed symptoms;
- ``gadget``    — build the Appendix-A reduction for a random 3-SAT
  instance and solve it with the optimizer;
- ``obs``       — inspect / validate observability artifacts (Prometheus
  snapshots, JSONL event and audit streams, Chrome traces) written by
  ``simulate``/``chaos`` via ``--metrics-out``/``--trace-out`` etc.;
- ``health``    — summarize any run's health artifacts (scorecards,
  service reports, sweep/tournament JSONL) into per-shard and fleet
  SLO scorecards.

Run ``python -m repro <subcommand> --help`` for options.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from functools import partial
from typing import List, Optional

#: Choice tuples are aliases into :mod:`repro.registry` (stdlib-only),
#: so ``--help`` works without importing the simulation stack while the
#: names stay pinned to the single canonical registry.
from repro.registry import (
    CHAOS_PRESETS as CHAOS_CHOICES,
    CONGESTION_PRESETS as CONGESTION_CHOICES,
    PENALTIES as PENALTY_CHOICES,
    SENSING_PIPELINES as SENSING_CHOICES,
    STRATEGIES as STRATEGY_CHOICES,
    TOPO_KINDS as TOPO_CHOICES,
    require,
)


def _registered(group: str):
    """An argparse type for a comma list of :mod:`repro.registry` ``group``
    names: an unknown name is a usage error."""

    def parse(text: str) -> List[str]:
        names = [part.strip() for part in text.split(",")]
        names = [name for name in names if name]
        if not names:
            raise argparse.ArgumentTypeError("invalid choice: none")
        for name in names:
            try:
                require(group, name)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(
                    f"invalid choice: {exc}"
                ) from None
        return names

    return parse


def _numbers(kind: str):
    """An argparse type for a comma list of ``kind`` (``"int"`` or
    ``"float"``) numbers; an int list also takes an ``a:b`` range.  A
    malformed or empty list is a usage error."""

    def parse(text: str) -> list:
        from repro.parallel import grid

        try:
            values = getattr(grid, f"parse_{kind}_list")(text)
        except ValueError:
            values = []
        if not values:
            raise argparse.ArgumentTypeError(f"invalid {kind} list: {text!r}")
        return values

    return parse


#: The flags two or more subcommands share, each declared here once with
#: the ``add_argument`` keywords those subcommands have in common; a
#: subcommand passes its own default, help or type where it differs.
_FLAGS = {
    "--scale": dict(type=float),
    "--days": dict(type=float),
    "--seed": dict(type=int, default=0),
    "--seeds": dict(
        type=_numbers("int"), default="0",
        help="trace seeds: comma list or 'a:b' range",
    ),
    "--dcns": dict(type=int),
    "--capacity": dict(type=float, default=0.75),
    "--repair-accuracy": dict(type=float, default=0.8),
    "--events": dict(
        type=float, help="fault arrival intensity (events/10K links/day)"
    ),
    "--fault-seed": dict(type=int, default=0),
    "--miswire-pairs": dict(type=int, default=0, metavar="N"),
    "--sensing": dict(choices=list(SENSING_CHOICES), default="telemetry"),
    "--strategy": dict(choices=list(STRATEGY_CHOICES), default="corropt"),
    "--strategies": dict(type=_registered("strategy")),
    "--presets": dict(type=_registered("preset")),
    "--penalties": dict(type=_registered("penalty")),
    "--capacities": dict(type=_numbers("float")),
    "--lg-coverages": dict(type=_numbers("float"), metavar="FRACS"),
    "--chaos-preset": dict(choices=list(CHAOS_CHOICES)),
    "--congestion-preset": dict(choices=list(CONGESTION_CHOICES)),
    "--congestion-presets": dict(
        type=_registered("congestion_preset"), metavar="NAMES"
    ),
    "--jobs": dict(type=int, default=1),
    "--out": dict(metavar="FILE.jsonl"),
    "--metrics-out": dict(
        metavar="FILE", help="write a Prometheus text snapshot here"
    ),
    "--trace-out": dict(
        metavar="FILE",
        help="write a Chrome trace (Perfetto-loadable JSON) here",
    ),
    "--events-out": dict(
        metavar="FILE", help="write the structured JSONL event stream here"
    ),
    "--manifest-out": dict(
        metavar="FILE", help="write the run manifest (JSON provenance) here"
    ),
    "--health-out": dict(
        metavar="FILE",
        help="write the health scorecard (canonical JSON) here",
    ),
    "--alerts-out": dict(
        metavar="FILE",
        help="write the SLO alert stream (canonical JSONL) here",
    ),
    "--audit-out": dict(
        metavar="FILE", help="write the controller audit log as JSONL here"
    ),
    "--sweep": dict(metavar="FILE"),
    "--service-report": dict(metavar="FILE"),
}


def _flag(parser, name: str, **own) -> None:
    """Add the shared flag ``name``: its :data:`_FLAGS` keywords, with
    this subcommand's ``own`` ones over them."""
    parser.add_argument(name, **{**_FLAGS[name], **own})


class _Refused(Exception):
    """A value that a run's config, scenario or grid refused before the
    run started; :func:`main` reports it as one usage line, exit 2."""


@contextlib.contextmanager
def _refusing():
    """Raise a ``ValueError`` of the block as :class:`_Refused`."""
    try:
        yield
    except ValueError as exc:
        raise _Refused(exc) from None


def _checked(specs):
    """``specs``, each validated before any job runs."""
    for spec in specs:
        spec.validate()
    return specs


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    """Observability artifact flags of the runs that record one."""
    group = parser.add_argument_group("observability")
    for name in ("--metrics-out", "--trace-out", "--events-out",
                 "--manifest-out"):
        _flag(group, name)


def _add_health_args(
    parser: argparse.ArgumentParser, alerts: bool = True
) -> None:
    """Health/SLO artifact flags (``chaos``/``serve``; ``simulate`` gets
    only the scorecard — oracle runs have no SLO engine)."""
    group = parser.add_argument_group("health / SLO")
    _flag(group, "--health-out")
    if alerts:
        _flag(group, "--alerts-out")


def _add_pool_args(parser: argparse.ArgumentParser) -> None:
    """Parallel-runner flags shared by every campaign command."""
    group = parser.add_argument_group("parallel runner")
    _flag(group, "--jobs", help="worker processes (0 = all CPUs)")
    group.add_argument("--retries", type=int, default=2,
                       help="retry budget per job after crashes/exceptions")
    group.add_argument("--timeout", type=float, default=None,
                       help="no-progress watchdog in seconds")
    group.add_argument(
        "--no-timing", action="store_true",
        help="omit wall-clock fields so outputs are byte-identical "
             "across --jobs values",
    )


def _health_summary_line(report) -> str:
    """One-line fleet health digest for run summaries."""
    from repro.obs.health import _fmt

    row = report.row()
    return (
        f"health: detection p95 {_fmt(row['detection_latency_p95_s'], 's')}, "
        f"ttm p95 {_fmt(row['ttm_p95_s'], 's')}, "
        f"false disables {row['false_disables']}, "
        f"headroom min {_fmt(row['headroom_min'])}, "
        f"alerts {row['alerts_fired']} "
        f"-> SLO {'OK' if row['slo_ok'] else 'FIRING'}"
    )


def _diagnosis_summary_lines(stats) -> List[str]:
    """Cause-attribution digest for chaos / localize run summaries."""
    lines = [
        f"diagnosis: {stats.diagnoses} verdicts, "
        f"{stats.congestion_mitigations} congestion-only links disabled "
        f"(must be 0), "
        f"{stats.missed_corrupting} corrupting links missed"
    ]
    row = stats.row()
    for cause in ("corruption", "congestion", "both", "miswired"):
        precision = row.get(f"precision_{cause}")
        recall = row.get(f"recall_{cause}")
        if precision is None and recall is None:
            continue
        fmt = lambda v: "n/a" if v is None else f"{v:.3f}"
        lines.append(
            f"  {cause:<10s} precision {fmt(precision)}  recall {fmt(recall)}"
        )
    return lines


def _wants_obs(args: argparse.Namespace) -> bool:
    return any(
        getattr(args, name, None)
        for name in (
            "metrics_out", "trace_out", "events_out", "manifest_out",
            "audit_out",
        )
    )


def _build_obs(command: str, args: argparse.Namespace, seeds, topo=None):
    """Construct a live recorder stamped with this invocation's manifest."""
    from repro.obs import ObsRecorder, build_manifest

    config = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("func", "command")
        and not key.endswith("_out")
        and isinstance(value, (bool, int, float, str, type(None)))
    }
    manifest = build_manifest(command, config=config, seeds=seeds, topo=topo)
    return ObsRecorder(manifest=manifest)


def _write_obs_artifacts(obs, args: argparse.Namespace) -> None:
    """Write whichever artifacts were requested, reporting each path."""
    if args.metrics_out:
        obs.write_metrics(args.metrics_out)
        print(f"metrics snapshot: {args.metrics_out}")
    if args.events_out:
        obs.write_events(args.events_out)
        print(f"event stream: {args.events_out}")
    if args.trace_out:
        obs.write_trace(args.trace_out)
        print(f"chrome trace: {args.trace_out} (open in Perfetto)")
    if args.manifest_out:
        obs.manifest.write(args.manifest_out)
        print(f"run manifest: {args.manifest_out}")


def _write_loop_artifacts(
    args: argparse.Namespace, obs, audit, health, note: str = ""
) -> None:
    """Write what a closed-loop run was asked for: the recorder's
    artifacts, the audit log, and the scorecard and alerts of ``health``
    (a HealthReport, or ``None``)."""
    from repro.obs import alert_lines_from_report, write_scorecard

    if obs.enabled and _wants_obs(args):
        _write_obs_artifacts(obs, args)
    if args.audit_out:
        audit.write_jsonl(args.audit_out)
        print(f"audit log: {args.audit_out}{note}")
    if health is None:
        return
    if args.health_out:
        write_scorecard(args.health_out, health)
        print(f"health scorecard: {args.health_out}{note}")
    if args.alerts_out:
        with open(args.alerts_out, "w", encoding="utf-8") as handle:
            for line in alert_lines_from_report(health):
                handle.write(line + "\n")
        print(f"slo alerts: {args.alerts_out}{note}")


def _invariants_line(result) -> str:
    chaos = result.chaos
    return (
        "invariants: "
        f"quarantine violations {chaos.quarantine_violations}, "
        f"capacity violations {chaos.capacity_violations} "
        f"-> {'OK' if result.invariants_ok() else 'VIOLATED'}"
    )


def _runner(args: argparse.Namespace):
    """The campaign commands' pool, as ``--jobs/--retries/--timeout`` set."""
    from repro.parallel import ParallelRunner

    return ParallelRunner(
        jobs=args.jobs, max_retries=args.retries, timeout_s=args.timeout
    )


def _cmd_topology(args: argparse.Namespace) -> int:
    from repro.topology import build_clos, build_fattree, save_topology, validate

    with _refusing():
        if args.kind == "fattree":
            topo = build_fattree(args.k)
        else:
            topo = build_clos(
                num_pods=args.pods,
                tors_per_pod=args.tors,
                aggs_per_pod=args.aggs,
                num_spines=args.spines,
            )
    validate(topo)
    print(
        f"built {topo.name}: {topo.num_switches} switches, "
        f"{topo.num_links} links, {topo.num_stages} stages"
    )
    if args.output:
        save_topology(topo, args.output)
        print(f"saved to {args.output}")
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    from repro.analysis import (
        bidirectional_share,
        loss_bucket_table,
        mean_pearson,
        total_loss_ratio,
    )
    from repro.workloads import generate_study

    with _refusing():
        dataset = generate_study(
            seed=args.seed, num_dcns=args.dcns, days=args.days, scale=args.scale
        )
    table = loss_bucket_table(dataset)
    print(f"study: {args.dcns} DCNs x {args.days} days (scale {args.scale})")
    print(f"corruption buckets: {[round(x, 3) for x in table['corruption']]}")
    print(f"congestion buckets: {[round(x, 3) for x in table['congestion']]}")
    print(f"aggregate corruption/congestion losses: {total_loss_ratio(dataset):.2f}")
    print(
        "pearson(util, loss): corruption "
        f"{mean_pearson(dataset, 'corruption'):+.2f}, congestion "
        f"{mean_pearson(dataset, 'congestion'):+.2f}"
    )
    print(
        "bidirectional: corruption "
        f"{bidirectional_share(dataset, 'corruption'):.1%}, congestion "
        f"{bidirectional_share(dataset, 'congestion'):.1%}"
    )
    return 0


def _run_one(command: str, args: argparse.Namespace, spec):
    """Run ``spec`` in this process through the pool's worker, recording
    the artifacts ``args`` asks for; ``(scenario, result, recorder)``."""
    from repro.obs import NULL_RECORDER
    from repro.parallel import worker_cache
    from repro.parallel.worker import execute_job

    with _refusing():
        spec.validate()
        # The run reuses this cached build (the manifest digests it).
        scenario, _ = worker_cache().get(spec)
    obs = NULL_RECORDER
    if _wants_obs(args):
        seeds = {"trace": spec.trace_seed, "repair": spec.seed_used()}
        if spec.kind == "chaos":
            seeds["faults"] = spec.fault_seed
        obs = _build_obs(command, args, seeds, topo=scenario._base_topo)
    return scenario, execute_job(spec, obs=obs).result, obs


def _simulate_specs(args: argparse.Namespace) -> list:
    """One oracle job per strategy (``--strategies``, else
    ``--strategy``), each on the ``--seed`` trace with repair seed
    ``--seed``."""
    from repro.parallel import JobSpec

    return [
        JobSpec(
            preset=args.dcn,
            scale=args.scale,
            duration_days=args.days,
            trace_seed=args.seed,
            events_per_10k=args.events,
            capacity=args.capacity,
            strategy=name,
            penalty=args.penalty,
            repair_accuracy=args.repair_accuracy,
            repair_seed=args.seed,
            lg_coverage=args.lg_coverage,
        )
        for name in args.strategies or [args.strategy]
    ]


def _simulate_header(args: argparse.Namespace, scenario) -> str:
    return (
        f"{args.dcn} DCN (scale {args.scale}), c={args.capacity:.0%}, "
        f"{len(scenario.trace)} events / {args.days} days"
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    specs = _simulate_specs(args)
    if args.strategies:
        return _simulate_comparison(args, specs)
    scenario, result, obs = _run_one("simulate", args, specs[0])
    metrics = result.metrics
    print(_simulate_header(args, scenario))
    print(f"strategy: {result.strategy_name}")
    print(f"penalty integral: {result.penalty_integral:.3e}")
    print(f"mean penalty/s:  {result.mean_penalty():.3e}")
    print(
        f"disabled: {metrics.disabled_on_onset} on onset, "
        f"{metrics.disabled_on_activation} on activation; "
        f"kept active: {metrics.kept_active_on_onset}"
    )
    print(f"worst ToR path fraction: {metrics.worst_tor_fraction.min_value():.3f}")
    if args.lg_coverage:
        print(
            f"linkguardian: coverage {args.lg_coverage:.0%}, "
            f"{metrics.lg_protections} protections, "
            f"effective capacity min "
            f"{metrics.effective_capacity.min_value():.3f}"
        )
    if result.optimizer_stats is not None and result.optimizer_stats.runs:
        print(f"optimizer: {result.optimizer_stats.summary()}")
    if obs.enabled:
        _write_obs_artifacts(obs, args)
    if args.health_out:
        from repro.obs import health_from_run_result

        card = health_from_run_result(result)
        with open(args.health_out, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps(card, sort_keys=True, separators=(",", ":")) + "\n"
            )
        print(f"health scorecard: {args.health_out} (oracle sensing)")
    return 0


def _simulate_comparison(args: argparse.Namespace, specs) -> int:
    """``simulate --strategies a,b,c``: same trace, several strategies,
    through the same runner and worker as ``sweep``."""
    from repro.parallel import ParallelRunner, worker_cache

    with _refusing():
        _checked(specs)
        # Built here for the header; a serial run then reuses the cached build.
        scenario, _ = worker_cache().get(specs[0])
    sweep = ParallelRunner(jobs=args.jobs).run(specs)
    failures = sweep.failures()
    for record in failures:
        print(
            f"{record.spec.strategy}: {record.error['message']}",
            file=sys.stderr,
        )
    if failures:
        return 1
    print(f"{_simulate_header(args, scenario)}, {args.jobs} worker(s)")
    names = args.strategies
    baseline = sweep.records[0].result.penalty_integral
    for name, record in zip(names, sweep.records):
        integral = record.result.penalty_integral
        # Against a zero baseline no ratio exists.
        ratio = f"{integral / baseline:5.2f}x" if baseline > 0 else "  n/a"
        print(
            f"  {name:<18s} penalty integral {integral:.3e} "
            f"({ratio} vs {names[0]})"
        )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Run a strategy/capacity/seed grid through the parallel runner."""
    from repro.parallel import (
        GridSpec,
        build_sweep_manifest,
        summary_lines,
        sweep_registry,
        write_sweep_jsonl,
    )

    if args.grid:
        grid = GridSpec.from_json_file(args.grid)
    else:
        grid = GridSpec(
            presets=args.presets,
            strategies=args.strategies,
            capacities=args.capacities,
            trace_seeds=args.seeds,
            repair_seeds=args.repair_seeds,
            scale=args.scale,
            duration_days=args.days,
            events_per_10k=args.events,
            repair_accuracy=args.repair_accuracy,
            chaos_presets=args.chaos_preset,
            fault_seed=args.fault_seed,
            penalties=args.penalties,
            lg_coverages=args.lg_coverages,
            congestion_presets=args.congestion_presets,
            miswire_pairs=args.miswire_pairs,
            sensing=args.sensing,
        )
    with _refusing():
        specs = _checked(grid.expand())
    sweep = _runner(args).run(specs)
    for line in summary_lines(sweep):
        print(line)
    violated = 0
    if any(spec.kind == "chaos" for spec in specs):
        ok = sweep.ok_records()
        violated = sum(
            1 for record in ok
            if record.result is not None and not record.result.invariants_ok()
        )
        print(
            f"invariants: {violated} of {len(ok)} runs violated "
            f"-> {'VIOLATED' if violated else 'OK'}"
        )
    if args.out:
        write_sweep_jsonl(args.out, sweep, timing=not args.no_timing)
        print(f"sweep results: {args.out}")
    manifest = None
    if args.metrics_out or args.manifest_out:
        manifest = build_sweep_manifest(sweep, config=grid.to_dict())
    if args.metrics_out:
        from repro.obs.exporters import write_prometheus

        write_prometheus(args.metrics_out, sweep_registry(sweep), manifest)
        print(f"metrics snapshot: {args.metrics_out}")
    if args.manifest_out:
        manifest.write(args.manifest_out)
        print(f"run manifest: {args.manifest_out}")
    return 0 if not sweep.failures() and not violated else 1


def _cmd_fleet(args: argparse.Namespace) -> int:
    """Simulate the §2 fleet: one job per study DCN, one roll-up row."""
    from repro.parallel.fleet import (
        fleet_dcns,
        fleet_specs,
        fleet_summary_lines,
        write_fleet_jsonl,
    )

    with _refusing():
        dcns = fleet_dcns(args.dcns)
        specs = _checked(fleet_specs(
            dcns,
            scale=args.scale,
            duration_days=args.days,
            trace_seed=args.seed,
            capacity=args.capacity,
            strategy=args.strategy,
        ))
    sweep = _runner(args).run(specs)
    for line in fleet_summary_lines(sweep, dcns):
        print(line)
    if args.out:
        write_fleet_jsonl(args.out, sweep, dcns, timing=not args.no_timing)
        print(f"fleet results: {args.out}")
    return 0 if not sweep.failures() else 1


def _cmd_tournament(args: argparse.Namespace) -> int:
    """Run every strategy head-to-head and print the leaderboard."""
    from repro.parallel import (
        leaderboard_lines,
        run_tournament,
        summary_lines,
        tournament_grid,
        write_tournament_jsonl,
    )

    grid = tournament_grid(
        presets=args.presets,
        capacities=args.capacities,
        penalties=args.penalties,
        lg_coverages=args.lg_coverages,
        strategies=args.strategies,
        trace_seeds=args.seeds,
        scale=args.scale,
        duration_days=args.days,
        events_per_10k=args.events,
        repair_accuracy=args.repair_accuracy,
    )
    with _refusing():
        _checked(grid.expand())
    sweep = run_tournament(
        grid,
        jobs=args.jobs,
        max_retries=args.retries,
        timeout_s=args.timeout,
    )
    for line in summary_lines(sweep):
        print(line)
    print("leaderboard (lower penalty integral wins):")
    for line in leaderboard_lines(sweep):
        print(f"  {line}")
    if args.out:
        write_tournament_jsonl(args.out, sweep, timing=not args.no_timing)
        print(f"tournament results: {args.out}")
    return 0 if not sweep.failures() else 1


def _cmd_localize(args: argparse.Namespace) -> int:
    """Run the diagnosis-accuracy campaign: sensing × congestion × miswiring.

    Each cell of the cross-product runs every trace seed as one
    ``kind="chaos"`` job; per-cell :class:`~repro.core.diagnosis.
    DiagnosisStats` are merged across seeds into an accuracy report
    (per-cause precision/recall, congestion links spared, corrupting
    links missed).  Results are byte-identical across ``--jobs`` with
    ``--no-timing``, like any sweep.
    """
    from repro.core.diagnosis import DiagnosisStats
    from repro.parallel import GridSpec, summary_lines, write_sweep_jsonl

    specs = []
    with _refusing():
        for sensing in args.sensing:
            for pairs in args.miswire_pairs:
                grid = GridSpec(
                    presets=["medium"],
                    chaos_presets=[args.chaos_preset],
                    capacities=[args.capacity],
                    trace_seeds=args.seeds,
                    scale=args.scale,
                    duration_days=args.days,
                    events_per_10k=args.events,
                    repair_accuracy=args.repair_accuracy,
                    fault_seed=args.fault_seed,
                    congestion_presets=args.congestion_presets,
                    miswire_pairs=pairs,
                    sensing=sensing,
                )
                specs.extend(_checked(grid.expand()))
    sweep = _runner(args).run(specs)
    for line in summary_lines(sweep):
        print(line)

    # Merge per-seed ledgers into one DiagnosisStats per campaign cell.
    cells = {}
    for record in sweep.ok_records():
        diagnosis = getattr(record.result, "diagnosis", None)
        key = (
            record.spec.sensing,
            record.spec.congestion_preset or "none",
            record.spec.miswire_pairs,
        )
        merged = cells.setdefault(key, DiagnosisStats())
        if diagnosis is not None:
            merged.merge(diagnosis)
    print("localization accuracy (per sensing × congestion × miswiring):")
    report_cells = []
    for key in sorted(cells, key=lambda k: (k[0], k[1], k[2])):
        sensing, congestion, pairs = key
        merged = cells[key]
        label = f"{sensing:<10s} congestion={congestion:<9s} miswire={pairs}"
        if merged.diagnoses == 0:
            print(f"  {label}  (no diagnosis layer active)")
        else:
            print(f"  {label}")
            for line in _diagnosis_summary_lines(merged):
                print(f"    {line}")
        report_cells.append(
            {
                "sensing": sensing,
                "congestion_preset": congestion,
                "miswire_pairs": pairs,
                **merged.row(),
            }
        )
    if args.out:
        write_sweep_jsonl(args.out, sweep, timing=not args.no_timing)
        print(f"localize results: {args.out}")
    if args.report_out:
        report = {
            "format": "repro-localize-report",
            "format_version": 1,
            "seeds": args.seeds,
            "cells": report_cells,
        }
        with open(args.report_out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, sort_keys=True, indent=2)
            handle.write("\n")
        print(f"accuracy report: {args.report_out}")
    return 0 if not sweep.failures() else 1


#: ``repro chaos``'s custom fault-mix flags: the ``TelemetryFaultConfig``
#: field each sets, and its ``args`` name.
_FAULT_RATE_FLAGS = {
    "delay_rate": "delays",
    "duplicate_rate": "duplicates",
    "freeze_rate": "freezes",
    "missed_poll_rate": "missed_polls",
    "optical_garbage_rate": "garbage_optics",
    "reset_rate": "resets",
    "wrap_32bit": "wrap_32bit",
}


def _chaos_spec(args: argparse.Namespace):
    """The chaos job ``repro chaos`` runs: trace and repair seed
    ``--seed``, and ``--preset`` or else the mix of the rate flags."""
    from repro.parallel import JobSpec

    rates = () if args.preset else tuple(
        (name, getattr(args, dest)) for name, dest in _FAULT_RATE_FLAGS.items()
    )
    return JobSpec(
        kind="chaos",
        scale=args.scale,
        duration_days=args.days,
        trace_seed=args.seed,
        events_per_10k=400.0,  # chaos_scenario's rate
        capacity=args.capacity,
        repair_accuracy=args.repair_accuracy,
        repair_seed=args.seed,
        chaos_preset=args.preset,
        fault_seed=args.fault_seed,
        congestion_preset=args.congestion_preset,
        miswire_pairs=args.miswire_pairs,
        sensing=args.sensing,
        fault_rates=rates,
    )


def _cmd_chaos(args: argparse.Namespace) -> int:
    _, result, obs = _run_one("chaos", args, _chaos_spec(args))
    metrics, chaos = result.metrics, result.chaos
    print(
        f"chaos run: medium DCN (scale {args.scale}), c={args.capacity:.0%}, "
        f"{args.days} days, faults={'preset ' + args.preset if args.preset else 'custom'}"
    )
    print(
        f"polls: {chaos.polls} ticks, {chaos.missed_polls} per-direction "
        f"misses, {chaos.degraded_samples} degraded samples"
    )
    print(
        f"ground truth: {metrics.onsets} onsets, "
        f"{chaos.detections} detected "
        f"(mean delay {chaos.mean_detection_delay_polls():.1f} polls), "
        f"{chaos.missed_mitigations} never detected"
    )
    print(
        f"mitigation: {metrics.disabled_on_onset} disabled on report, "
        f"{metrics.disabled_on_activation} on activation, "
        f"{metrics.kept_active_on_onset} kept by capacity, "
        f"{metrics.repairs_completed} repairs"
    )
    print(
        f"degraded mode: {chaos.decisions_in_degraded_mode} decisions, "
        f"quarantined peak {chaos.quarantined_peak} directions, "
        f"{chaos.false_disables} false disables"
    )
    print(f"penalty integral: {result.penalty_integral:.3e}")
    if result.diagnosis is not None:
        for line in _diagnosis_summary_lines(result.diagnosis):
            print(line)
    if result.optimizer_stats.runs:
        print(f"optimizer: {result.optimizer_stats.summary()}")
    print(_invariants_line(result))
    if result.health is not None:
        print(_health_summary_line(result.health))
    _write_loop_artifacts(args, obs, result.audit, result.health)
    return 0 if result.invariants_ok() else 1


def _serve_config(args: argparse.Namespace):
    """A fresh run's config, one field per ``serve`` flag; ``ValueError``
    lists the values it refuses."""
    from dataclasses import fields

    from repro.service import ServiceConfig

    flag = {
        "events_per_10k_links_per_day": "events",
        "poll_interval_s": "poll_interval",
    }
    config = ServiceConfig(**{
        f.name: getattr(args, flag.get(f.name, f.name))
        for f in fields(ServiceConfig)
    })
    config.validate()
    return config


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.obs import NULL_RECORDER
    from repro.service import ControllerService

    checkpoint_every_s = (
        args.checkpoint_every * 3600.0
        if args.checkpoint_every is not None
        else None
    )
    with _refusing():
        ControllerService.check_checkpoint_every(
            checkpoint_every_s, args.stop_after_checkpoint
        )
        if args.resume_from:
            # A checkpoint that cannot be read or is not one is refused
            # like a bad flag, before anything is written.
            try:
                header, service = ControllerService.restore(args.resume_from)
            except OSError as exc:
                raise ValueError(f"cannot read checkpoint: {exc}") from None
            if checkpoint_every_s is None:
                checkpoint_every_s = header["config"].get("checkpoint_every_s")
        if checkpoint_every_s is not None and not args.checkpoint_dir:
            raise ValueError(
                "--checkpoint-every (or a resumed run's checkpoint "
                "interval) requires --checkpoint-dir"
            )
        config = None if args.resume_from else _serve_config(args)

    if args.resume_from:
        print(
            f"resumed from {args.resume_from} "
            f"(boundary {header['boundary_index']}, "
            f"sim t={header['sim_time_s'] / 3600.0:.1f}h)"
        )
    else:
        obs = NULL_RECORDER
        if _wants_obs(args):
            obs = _build_obs(
                "serve",
                args,
                seeds={
                    "trace": args.seed,
                    "repair": args.seed,
                    "faults": args.fault_seed,
                },
            )
        service = ControllerService(config, obs=obs)

    # Graceful drain: SIGTERM (and Ctrl-C) finish the current slice, flush
    # one final checkpoint, and exit resumable.
    stop = {"requested": False}

    def _request_stop(_signum, _frame):
        stop["requested"] = True
        print("stop requested; draining to the next checkpoint boundary...")

    previous_handlers = {
        sig: signal.signal(sig, _request_stop)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        status = service.run(
            checkpoint_every_s=checkpoint_every_s,
            checkpoint_dir=args.checkpoint_dir,
            max_boundaries=args.stop_after_checkpoint,
            should_stop=lambda: stop["requested"],
        )
    finally:
        for sig, handler in previous_handlers.items():
            signal.signal(sig, handler)

    cfg = service.config
    print(
        f"service: medium DCN (scale {cfg.scale}), c={cfg.capacity:.0%}, "
        f"{cfg.days} days, chaos={cfg.chaos_preset or 'clean'}, "
        f"{len(service.pipeline.shards)} shard(s)"
    )
    if status.checkpoints:
        print(
            f"checkpoints: {len(status.checkpoints)} written, "
            f"last {status.checkpoints[-1]}"
        )
    if not status.completed:
        print(
            f"stopped ({status.stop_reason}) at boundary "
            f"{status.boundary_index}; resume with "
            f"--resume-from {status.checkpoints[-1]}"
        )
        # Graceful drain flushes inspection artifacts too — the report
        # (--out) stays final-only.  HealthTracker.report() is pure, so
        # a partial scorecard never perturbs the later resume.
        _write_loop_artifacts(
            args,
            service.kernel.obs,
            service.pipeline.audit,
            (
                service.pipeline.health.report(complete=False)
                if args.health_out or args.alerts_out
                else None
            ),
            note=" (partial)",
        )
        return 0

    result = status.result
    chaos = result.chaos
    queue = service.pipeline.queue
    qs = queue.stats
    print(
        f"ingest: {qs.offered} pushes "
        f"({qs.accepted} accepted, {qs.deferred} deferred, "
        f"{qs.dropped} dropped), peak depth {qs.high_watermark}, "
        f"accounting {'OK' if queue.accounting_ok() else 'BROKEN'}"
    )
    print(
        f"chaos: {chaos.polls} polls, {chaos.missed_polls} misses, "
        f"{chaos.degraded_samples} degraded samples, "
        f"{chaos.decisions_in_degraded_mode} degraded decisions"
    )
    print(
        f"mitigation: {result.metrics.onsets} onsets, "
        f"{result.metrics.disabled_on_onset} disabled on report, "
        f"{result.metrics.disabled_on_activation} on activation, "
        f"{result.metrics.repairs_completed} repairs"
    )
    print(f"penalty integral: {result.penalty_integral:.3e}")
    print(_invariants_line(result))
    if result.diagnosis is not None:
        for line in _diagnosis_summary_lines(result.diagnosis):
            print(line)
    if result.health is not None:
        print(_health_summary_line(result.health))
    if args.out:
        service.write_report(args.out, result)
        print(f"service report: {args.out}")
    _write_loop_artifacts(
        args, service.kernel.obs, service.pipeline.audit, result.health
    )
    return 0 if result.invariants_ok() else 1


def _cmd_recommend(args: argparse.Namespace) -> int:
    from repro.core import LinkObservation, deployed_engine, full_engine
    from repro.optics import TECHNOLOGIES

    tech = TECHNOLOGIES.get(args.tech) if args.tech else None
    engine = deployed_engine() if args.deployed else full_engine()
    observation = LinkObservation(
        link_id=("side1", "side2"),
        corruption_rate=args.rate,
        rx1_dbm=args.rx1,
        rx2_dbm=args.rx2,
        tx1_dbm=args.tx1,
        tx2_dbm=args.tx2,
        neighbor_corrupting=args.neighbor_corrupting,
        opposite_corrupting=args.opposite_corrupting,
        recently_reseated=args.recently_reseated,
        tech=tech,
    )
    recommendation = engine.recommend(observation)
    print(f"recommended repair: {recommendation.action.value}")
    print(f"reason: {recommendation.reason}")
    return 0


def _cmd_gadget(args: argparse.Namespace) -> int:
    from repro.core import GlobalOptimizer, connectivity_constraint
    from repro.theory import (
        assignment_from_disable_set,
        build_gadget,
        is_satisfiable,
        random_instance,
    )

    with _refusing():
        instance = random_instance(args.vars, args.clauses, seed=args.seed)
    gadget = build_gadget(instance)
    sat = is_satisfiable(instance)
    optimizer = GlobalOptimizer(
        gadget.topo, connectivity_constraint(), method="branch_and_bound"
    )
    result = optimizer.plan(sorted(gadget.corrupting_links))
    print(f"3-SAT instance: {args.vars} vars, {gadget.k} clauses; SAT={sat}")
    print(
        f"optimizer disables {len(result.to_disable)} of "
        f"{len(gadget.corrupting_links)} corrupting links (r={gadget.r})"
    )
    if len(result.to_disable) == gadget.r:
        assignment = assignment_from_disable_set(gadget, result.to_disable)
        print(f"recovered satisfying assignment: {assignment}")
    agreement = sat == (len(result.to_disable) == gadget.r)
    print(f"equivalence holds: {agreement}")
    return 0 if agreement else 1


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _read_lines(path: str) -> List[str]:
    return _read_text(path).splitlines()


def _read_json(path: str):
    return json.loads(_read_text(path))


def _read_records(path: str) -> List[dict]:
    """A JSONL file's records (blank lines skipped)."""
    return [json.loads(line) for line in _read_lines(path) if line.strip()]


def _loaded(artifacts, problems: List[str]):
    """Load each ``(path, load, *rest)`` whose path is set and yield
    ``(path, content, *rest)``; a file that is missing or does not parse
    is noted in ``problems`` as ``<path>: unreadable (...)`` instead."""
    for path, load, *rest in artifacts:
        if not path:
            continue
        try:
            content = load(path)
        except (OSError, ValueError, RecursionError) as exc:
            problems.append(f"{path}: unreadable ({exc})")
            continue
        yield (path, content, *rest)


def _print_audit(lines: List[str], limit: int) -> None:
    """Pretty-print an AuditLog JSONL export."""
    header = json.loads(lines[0]) if lines else {}
    counts = header.get("counts", {})
    print(
        f"audit log: {header.get('total_decisions', 0)} decisions "
        f"({header.get('buffered_decisions', 0)} buffered), "
        f"repro {header.get('repro_version', '?')}"
    )
    for event, count in sorted(counts.items()):
        print(f"  {event}: {count}")
    records = [json.loads(line) for line in lines[1:] if line.strip()]
    shown = records if limit <= 0 else records[-limit:]
    if len(shown) < len(records):
        print(f"  ... showing last {len(shown)} of {len(records)} entries")
    for record in shown:
        hours = record.get("sim_time_s", 0.0) / 3600.0
        link = record.get("link")
        link_str = "<->".join(link) if link else "-"
        flag = " [fail-safe]" if record.get("fail_safe") else ""
        reason = record.get("reason") or ""
        print(
            f"  t={hours:8.2f}h  {record.get('verdict', '?'):<22} "
            f"{link_str:<28} {reason}{flag}"
        )


def _print_metrics_summary(text: str) -> None:
    import math
    import re

    families = {"counter": 0, "gauge": 0, "histogram": 0}
    samples = 0
    hist_names: set = set()
    # name -> {"buckets": {le_str: summed cumulative count}, "sum", "count"}
    hists: dict = {}
    bucket_re = re.compile(r'le="([^"]*)"')
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            parts = line.split()
            kind = parts[3]
            if kind in families:
                families[kind] += 1
            if kind == "histogram":
                hist_names.add(parts[2])
        elif line.startswith("# repro-version:") or line.startswith(
            "# sim-time-s:"
        ) or line.startswith("# topology-digest:"):
            print(line[2:])
        elif line and not line.startswith("#"):
            samples += 1
            name = line.split("{", 1)[0].split(" ", 1)[0]
            value = line.rsplit(" ", 1)[1]
            for base in hist_names:
                if name == f"{base}_bucket":
                    match = bucket_re.search(line)
                    if match:
                        hist = hists.setdefault(
                            base, {"buckets": {}, "sum": 0.0, "count": 0}
                        )
                        le = match.group(1)
                        hist["buckets"][le] = (
                            hist["buckets"].get(le, 0) + int(float(value))
                        )
                elif name == f"{base}_sum":
                    hist = hists.setdefault(
                        base, {"buckets": {}, "sum": 0.0, "count": 0}
                    )
                    hist["sum"] += float(value)
                elif name == f"{base}_count":
                    hist = hists.setdefault(
                        base, {"buckets": {}, "sum": 0.0, "count": 0}
                    )
                    hist["count"] += int(float(value))
    print(
        f"families: {families['counter']} counters, {families['gauge']} "
        f"gauges, {families['histogram']} histograms; {samples} samples"
    )
    for name in sorted(hists):
        hist = hists[name]
        count = hist["count"]
        if not count:
            continue
        # Buckets are cumulative per label-set; summing them across
        # label-sets keeps them cumulative (every set shares the grid).
        buckets = sorted(
            hist["buckets"].items(),
            key=lambda kv: float("inf") if kv[0] == "+Inf" else float(kv[0]),
        )

        def _quantile_le(q: float) -> str:
            rank = min(count, max(1, math.ceil(q * count)))
            for le, cum in buckets:
                if cum >= rank:
                    return le
            return "+Inf"

        print(
            f"  {name}: n={count} sum={hist['sum']:.6g} "
            f"p50<={_quantile_le(0.5)} p95<={_quantile_le(0.95)} "
            f"p99<={_quantile_le(0.99)}"
        )


def _print_events_summary(lines: List[str]) -> None:
    header = json.loads(lines[0]) if lines else {}
    print(
        f"event stream: repro {header.get('repro_version', '?')}, "
        f"{header.get('events', len(lines) - 1)} events"
    )
    by_name: dict = {}
    for line in lines[1:]:
        if not line.strip():
            continue
        record = json.loads(line)
        by_name[record.get("name")] = by_name.get(record.get("name"), 0) + 1
    for name, count in sorted(by_name.items(), key=lambda kv: -kv[1]):
        print(f"  {name}: {count}")


def _print_trace_summary(obj: dict) -> None:
    events = [e for e in obj.get("traceEvents", []) if e.get("ph") == "X"]
    other = obj.get("otherData", {})
    print(
        f"chrome trace: repro {other.get('repro_version', '?')}, "
        f"{len(events)} spans "
        f"({other.get('dropped_spans', 0)} dropped)"
    )
    totals: dict = {}
    for event in events:
        name = event.get("name", "?")
        dur, count = totals.get(name, (0.0, 0))
        totals[name] = (dur + event.get("dur", 0.0), count + 1)
    for name, (dur, count) in sorted(
        totals.items(), key=lambda kv: -kv[1][0]
    )[:12]:
        print(f"  {name}: {count} spans, {dur / 1e3:.1f} ms wall")


def _print_sweep_summary(lines: List[str]) -> None:
    header = json.loads(lines[0]) if lines else {}
    rows = [json.loads(line) for line in lines[1:] if line.strip()]
    leaderboards = [row for row in rows if row.get("type") == "leaderboard"]
    fleets = [row for row in rows if row.get("type") == "fleet"]
    rows = [
        row
        for row in rows
        if row.get("type") not in ("leaderboard", "fleet")
    ]
    ok = sum(1 for row in rows if row.get("status") == "ok")
    print(
        f"sweep: repro {header.get('repro_version', '?')}, "
        f"{ok}/{header.get('jobs_total', len(rows))} jobs ok, "
        f"grid {header.get('grid_digest', '?')[:18]}..."
    )
    if leaderboards:
        print(f"  {len(leaderboards)} leaderboard group(s)")
    for fleet in fleets:
        health = fleet.get("health", {})
        print(
            f"  fleet roll-up: {fleet.get('dcns', '?')} DCNs, "
            f"{health.get('healthy_dcns', '?')} healthy / "
            f"{health.get('degraded_dcns', '?')} degraded / "
            f"{health.get('failed_dcns', '?')} failed"
        )
    for row in rows:
        if row.get("status") != "ok":
            error = row.get("error", {})
            spec = row.get("spec", {})
            print(
                f"  job {row.get('job')}: FAILED {spec.get('strategy', '?')} "
                f"({error.get('kind', '?')}: {error.get('message', '')})"
            )


def _print_alerts_summary(lines: List[str]) -> None:
    header = json.loads(lines[0]) if lines else {}
    alerts = [json.loads(line) for line in lines[1:] if line.strip()]
    print(
        f"slo alerts: repro {header.get('repro_version', '?')}, "
        f"{len(header.get('rules', []))} rules, "
        f"{header.get('alerts', len(alerts))} transitions"
    )
    by_rule: dict = {}
    for alert in alerts:
        key = (alert.get("rule"), alert.get("severity"))
        by_rule[key] = by_rule.get(key, 0) + 1
    for (rule, severity), count in sorted(by_rule.items()):
        print(f"  {rule} [{severity}]: {count} transition(s)")
    for alert in alerts[-5:]:
        hours = alert.get("sim_time_s", 0.0) / 3600.0
        print(
            f"  t={hours:8.2f}h  {alert.get('state', '?'):<8} "
            f"{alert.get('rule', '?')} "
            f"({alert.get('indicator')}={alert.get('value')} "
            f"{alert.get('op')} {alert.get('threshold')})"
        )


def _health_scorecard(path: str, card, args: argparse.Namespace) -> int:
    from repro.obs import summarize_scorecard, validate_health_scorecard

    problems = validate_health_scorecard(card)
    if problems:
        print(f"{path}: INVALID ({len(problems)} problem(s))")
        for problem in problems:
            print(f"  {problem}")
        return 1
    if args.json:
        print(json.dumps(card, sort_keys=True, separators=(",", ":")))
    else:
        for line in summarize_scorecard(card):
            print(line)
    return 0


def _health_service_report(
    path: str, records, args: argparse.Namespace
) -> int:
    from repro.obs.health import _fmt

    health = next(
        (r.get("health") for r in records if r.get("type") == "result"), None
    )
    if health is None:
        print(f"{path}: no health block in result row")
        return 1
    if args.json:
        print(json.dumps(health, sort_keys=True, separators=(",", ":")))
    else:
        print(f"service health ({path}):")
        for key in sorted(health):
            print(f"  {key}: {_fmt(health[key])}")
    return 0


def _health_sweep(path: str, records, args: argparse.Namespace) -> int:
    from repro.obs import aggregate_sweep_health

    rows = [record for record in records[1:] if record.get("status") == "ok"]
    summary = aggregate_sweep_health(rows)
    if args.json:
        print(json.dumps(summary, sort_keys=True, separators=(",", ":")))
        return 0
    print(
        f"sweep health ({path}): "
        f"{summary.get('jobs_with_health', 0)}/{summary['jobs']} "
        "jobs carry health blocks"
    )
    for key in sorted(summary):
        value = summary[key]
        if isinstance(value, dict):
            print(
                f"  {key}: min {value['min']:.6g} "
                f"mean {value['mean']:.6g} max {value['max']:.6g}"
            )
        elif key not in ("jobs", "jobs_with_health"):
            print(f"  {key}: {value}")
    return 0


def _cmd_health(args: argparse.Namespace) -> int:
    """Summarize health artifacts into per-shard / fleet scorecards."""
    artifacts = [
        (args.scorecard, _read_json, _health_scorecard),
        (args.service_report, _read_records, _health_service_report),
        (args.sweep, _read_records, _health_sweep),
    ]
    if not any(path for path, *_ in artifacts):
        raise _Refused(
            "nothing to summarize: pass --scorecard/--service-report/--sweep"
        )
    problems: List[str] = []
    exit_code = 0
    for path, content, show in _loaded(artifacts, problems):
        exit_code = max(exit_code, show(path, content, args))
    for problem in problems:
        print(problem)
    return 1 if problems else exit_code


def _print_checkpoint(path: str) -> None:
    from repro.obs.schema import checkpoint_header

    with open(path, "rb") as handle:  # the header line, not the payload
        header, _start = checkpoint_header(handle.readline())
    print(
        f"checkpoint {path}: boundary "
        f"{header['boundary_index']}, sim "
        f"t={header['sim_time_s'] / 3600.0:.1f}h, "
        f"{header['payload_bytes']} payload bytes, digest OK"
    )


def _print_service_report(path: str, lines: List[str]) -> None:
    for line in lines:
        record = json.loads(line)
        if record.get("type") == "result":
            print(
                f"service report {path}: penalty "
                f"{record.get('penalty_integral', 0.0):.3e}, "
                f"fingerprint {record.get('fingerprint', '?')[:18]}..., "
                f"invariants "
                f"{'OK' if record.get('invariants_ok') else 'VIOLATED'}"
            )
            return


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs import (
        summarize_scorecard,
        validate_alerts_jsonl,
        validate_audit_jsonl,
        validate_checkpoint_file,
        validate_chrome_trace,
        validate_events_jsonl,
        validate_health_scorecard,
        validate_prometheus_text,
        validate_service_report_jsonl,
        validate_sweep_jsonl,
    )

    # (path, load, validate, summarize) per artifact, in print order.
    artifacts = [
        (args.metrics, _read_text, validate_prometheus_text,
         _print_metrics_summary),
        (args.events, _read_lines, validate_events_jsonl,
         _print_events_summary),
        (args.trace, _read_json, validate_chrome_trace, _print_trace_summary),
        (args.sweep, _read_lines, validate_sweep_jsonl, _print_sweep_summary),
        (args.audit, _read_lines, validate_audit_jsonl,
         lambda lines: _print_audit(lines, args.limit)),
        *[(path, str, validate_checkpoint_file, _print_checkpoint)
          for path in args.checkpoint or ()],
        (args.health, _read_json, validate_health_scorecard,
         lambda card: print("\n".join(summarize_scorecard(card)))),
        (args.alerts, _read_lines, validate_alerts_jsonl,
         _print_alerts_summary),
        (args.service_report, _read_lines, validate_service_report_jsonl,
         lambda lines: _print_service_report(args.service_report, lines)),
    ]
    if not any(path for path, *_ in artifacts):
        raise _Refused(
            "nothing to inspect: pass --audit/--metrics/--events/--trace/"
            "--sweep/--checkpoint/--service-report/--health/--alerts"
        )

    # Summaries assume a well-formed artifact, so a file is summarized
    # only once its validator passes; a bad file gets an INVALID line.
    problems: List[str] = []
    for path, content, validate, summarize in _loaded(artifacts, problems):
        found = validate(content)
        if found:
            print(f"{path}: INVALID ({len(found)} problem(s))")
            if args.validate:
                problems += [f"{path}: {p}" for p in found]
        else:
            summarize(content)

    if problems:
        print(f"validation: {len(problems)} problem(s)")
        for problem in problems:
            print(f"  {problem}")
        return 1
    if args.validate:
        print("validation: OK")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # No abbreviated options: `chaos --events` must not mean `--events-out`.
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__, allow_abbrev=False,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(
        dest="command", required=True,
        parser_class=partial(argparse.ArgumentParser, allow_abbrev=False),
    )

    topo = sub.add_parser("topology", help="build a topology")
    topo.add_argument("--kind", choices=list(TOPO_CHOICES), default="clos")
    for flag, default in (
        ("--pods", 4), ("--tors", 8), ("--aggs", 4), ("--spines", 16)
    ):
        topo.add_argument(flag, type=int, default=default)
    topo.add_argument("--k", type=int, default=4, help="fat-tree arity")
    topo.add_argument("--output", help="write JSON here")
    topo.set_defaults(func=_cmd_topology)

    study = sub.add_parser("study", help="run the §2-3 measurement study")
    _flag(study, "--dcns", default=8)
    _flag(study, "--days", type=int, default=7)
    _flag(study, "--scale", default=0.3)
    _flag(study, "--seed")
    study.set_defaults(func=_cmd_study)

    sim = sub.add_parser("simulate", help="replay a corruption trace")
    sim.add_argument("--dcn", choices=["medium", "large"], default="medium")
    _flag(sim, "--strategy")
    sim.add_argument(
        "--penalty", choices=list(PENALTY_CHOICES), default="linear",
        help="penalty function I(f): the optimizer-driven strategies "
             "minimize it and the run integrates it",
    )
    sim.add_argument(
        "--lg-coverage", type=float, default=0.0, metavar="FRAC",
        help="fraction of links that are LinkGuardian-capable "
             "(deterministic per-link hash; 0 disables LG)",
    )
    _flag(sim, "--capacity")
    _flag(sim, "--days", type=int, default=30)
    _flag(sim, "--scale", default=0.3)
    _flag(sim, "--seed")
    _flag(sim, "--events", default=15.0, help=None)
    _flag(sim, "--repair-accuracy")
    _flag(
        sim, "--strategies", metavar="A,B,...",
        help="comparison mode: run several strategies over the same trace "
             "(overrides --strategy; observability flags are ignored)",
    )
    _flag(
        sim, "--jobs",
        help="worker processes for --strategies comparison (0 = all CPUs)",
    )
    _add_obs_args(sim)
    _add_health_args(sim, alerts=False)
    sim.set_defaults(func=_cmd_simulate, audit_out=None)

    sweep = sub.add_parser(
        "sweep",
        help="run a strategy/capacity/seed grid (optionally in parallel)",
    )
    sweep.add_argument(
        "--grid", metavar="FILE.json",
        help="grid spec as JSON (overrides the axis flags below)",
    )
    _flag(sweep, "--presets", default="medium",
          help="comma list of DCN presets (medium,large)")
    _flag(sweep, "--strategies", default="corropt",
          help="comma list of strategies")
    _flag(sweep, "--capacities", default="0.75",
          help="comma list of capacity constraints")
    _flag(sweep, "--seeds")
    sweep.add_argument(
        "--repair-seeds", type=_numbers("int"), default=None,
        help="explicit repair seeds aligned 1:1 with --seeds "
             "(default: derived per job from its spec)",
    )
    _flag(
        sweep, "--chaos-preset", choices=None, metavar="NAMES",
        type=_registered("chaos_preset"),
        help="comma list of telemetry-fault presets; turns the sweep "
             "into kind=chaos jobs (replaces the --strategies axis)",
    )
    _flag(sweep, "--fault-seed",
          help="telemetry fault RNG seed for --chaos-preset jobs")
    _flag(
        sweep, "--penalties", metavar="NAMES",
        help="comma list of penalty functions "
             "(linear,tcp-throughput,step); adds a grid axis",
    )
    _flag(
        sweep, "--lg-coverages",
        help="comma list of LinkGuardian coverage fractions; adds a "
             "grid axis (simulate grids only)",
    )
    _flag(
        sweep, "--congestion-presets",
        help="comma list of congestion co-model presets "
             "(none,hotspots,incast); adds a diagnosis axis "
             "(chaos grids only)",
    )
    _flag(
        sweep, "--miswire-pairs",
        help="cable pairs with a swapped inventory map "
             "(chaos grids only; 0 = wiring map correct)",
    )
    _flag(
        sweep, "--sensing",
        help="sensing pipeline for chaos grids "
             "(counter telemetry or 007-style flow voting)",
    )
    _flag(sweep, "--scale", default=0.25)
    _flag(sweep, "--days", default=30.0)
    _flag(sweep, "--events", default=4.0, help=None)
    _flag(sweep, "--repair-accuracy")
    _flag(sweep, "--out", help="write canonical JSONL results here")
    _flag(sweep, "--metrics-out",
          help="write a Prometheus snapshot of sweep metrics")
    _flag(sweep, "--manifest-out",
          help="write the sweep provenance manifest (JSON)")
    _add_pool_args(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    fleet = sub.add_parser(
        "fleet",
        help="simulate the paper's 15-DCN study fleet (one job per DCN)",
    )
    _flag(fleet, "--dcns", default=15,
          help="how many study DCNs to simulate (1-15)")
    _flag(fleet, "--scale", default=0.1,
          help="topology scale (1.0 = the ~350K-link footprint)")
    _flag(fleet, "--days", default=30.0)
    _flag(fleet, "--seed", help="corruption trace seed")
    _flag(fleet, "--capacity")
    _flag(fleet, "--strategy", metavar="STRATEGY")
    _flag(fleet, "--out", help="write canonical JSONL (results + fleet row)")
    _add_pool_args(fleet)
    fleet.set_defaults(func=_cmd_fleet)

    tour = sub.add_parser(
        "tournament",
        help="every strategy head-to-head, with a canonical leaderboard",
    )
    _flag(tour, "--presets", default="medium,large",
          help="comma list of DCN presets")
    _flag(tour, "--strategies",
          help="comma list of strategies (default: all of them)")
    _flag(
        tour, "--capacities", default="0.75,0.9",
        help="comma list of capacity constraints (0.75 is the paper's "
             "realistic regime; 0.9 squeezes CorrOpt in LG's favor)",
    )
    _flag(
        tour, "--penalties", default="linear,tcp-throughput",
        help="comma list of penalty functions "
             "(linear,tcp-throughput,step)",
    )
    _flag(tour, "--lg-coverages", default="0.9",
          help="comma list of LinkGuardian coverage fractions")
    _flag(tour, "--seeds")
    _flag(tour, "--scale", default=0.25)
    _flag(tour, "--days", default=30.0)
    _flag(tour, "--events", default=4.0, help=None)
    _flag(tour, "--repair-accuracy")
    _flag(tour, "--out", help="write canonical JSONL (results + leaderboard)")
    _add_pool_args(tour)
    tour.set_defaults(func=_cmd_tournament)

    chaos = sub.add_parser(
        "chaos", help="closed-loop run with telemetry faults"
    )
    chaos.add_argument(
        "--preset",
        choices=list(CHAOS_CHOICES),
        help="named fault mix (overrides the individual rate flags)",
    )
    for flag in (
        "--missed-polls", "--resets", "--freezes", "--duplicates", "--delays"
    ):
        chaos.add_argument(flag, type=float, default=0.0)
    chaos.add_argument("--garbage-optics", type=float, default=0.0,
                       help="inert: no run sends optical reads to faults")
    chaos.add_argument("--wrap-32bit", action="store_true")
    _flag(chaos, "--days", default=4.0)
    _flag(chaos, "--scale", default=0.12)
    _flag(chaos, "--capacity")
    _flag(chaos, "--seed")
    _flag(chaos, "--fault-seed")
    _flag(chaos, "--repair-accuracy")
    _flag(
        chaos, "--congestion-preset",
        help="add a congestion co-model (queue loss, no FCS signature) "
             "and activate the diagnosis layer",
    )
    _flag(
        chaos, "--miswire-pairs",
        help="swap the inventory map of N cable pairs (A3 miswiring); "
             "activates the diagnosis layer and the probe cross-check",
    )
    _flag(
        chaos, "--sensing",
        help="sensing pipeline: per-port counter telemetry or "
             "007-style flow voting",
    )
    _add_obs_args(chaos)
    _add_health_args(chaos)
    _flag(chaos, "--audit-out")
    chaos.set_defaults(func=_cmd_chaos)

    localize = sub.add_parser(
        "localize",
        help="diagnosis-accuracy campaign: sensing × congestion × miswiring",
    )
    _flag(
        localize, "--sensing", choices=None, type=_registered("sensing"),
        default="telemetry,voting", metavar="NAMES",
        help="comma list of sensing pipelines to compare "
             "(telemetry,voting)",
    )
    _flag(
        localize, "--congestion-presets", default="none,hotspots",
        help="comma list of congestion co-model presets "
             "(none,hotspots,incast)",
    )
    _flag(
        localize, "--miswire-pairs", type=_numbers("int"), default="0",
        metavar="LIST",
        help="comma list of swapped-cable-pair counts (A3 miswiring)",
    )
    _flag(localize, "--chaos-preset", default="none",
          help="telemetry-fault mix layered under every cell")
    _flag(localize, "--seeds", metavar="LIST")
    _flag(localize, "--days", default=4.0)
    _flag(localize, "--scale", default=0.12)
    _flag(localize, "--capacity")
    _flag(localize, "--fault-seed")
    _flag(localize, "--repair-accuracy")
    _flag(localize, "--events", default=400.0)
    _flag(localize, "--out", help="write per-job results as canonical JSONL")
    localize.add_argument(
        "--report-out", metavar="FILE.json",
        help="write the merged per-cell accuracy report here",
    )
    _add_pool_args(localize)
    localize.set_defaults(func=_cmd_localize)

    serve = sub.add_parser(
        "serve",
        help="long-running controller service with checkpoint/restore",
    )
    _flag(serve, "--days", default=2.0, help="simulated horizon in days")
    _flag(serve, "--scale", default=0.12)
    _flag(serve, "--capacity")
    _flag(serve, "--seed")
    _flag(serve, "--fault-seed")
    _flag(serve, "--chaos-preset",
          help="inject this telemetry-fault mix into the live stream")
    _flag(serve, "--congestion-preset",
          help="add a congestion co-model and activate the diagnosis layer")
    _flag(serve, "--miswire-pairs",
          help="swap the inventory map of N cable pairs (A3 miswiring)")
    _flag(serve, "--events", default=400.0)
    serve.add_argument("--poll-interval", type=float, default=900.0,
                       help="telemetry poll spacing in simulated seconds")
    _flag(serve, "--repair-accuracy")
    serve.add_argument(
        "--queue-capacity", type=int, default=64,
        help="bounded ingest queue: batches held before backpressure",
    )
    serve.add_argument(
        "--queue-policy", choices=["defer", "drop"], default="defer",
        help="what a full queue does with new pushes",
    )
    serve.add_argument("--batch-size", type=int, default=64,
                       help="directions per telemetry push batch")
    serve.add_argument(
        "--drain-budget", type=int, default=None,
        help="batches consumed per poll tick (default: all pending)",
    )
    serve.add_argument("--audit-maxlen", type=int, default=1024,
                       help="audit-log ring bound (evictions are counted)")
    serve.add_argument(
        "--checkpoint-every", type=float, default=None, metavar="HOURS",
        help="checkpoint boundary spacing in simulated hours",
    )
    serve.add_argument("--checkpoint-dir", metavar="DIR",
                       help="directory for checkpoint files")
    serve.add_argument(
        "--resume-from", metavar="FILE.ckpt",
        help="restore a checkpoint and continue its run "
             "(service flags are taken from the checkpoint)",
    )
    serve.add_argument(
        "--stop-after-checkpoint", type=int, default=None, metavar="N",
        help="exit (resumable) once N checkpoint boundaries completed — "
             "a deterministic kill for tests and CI",
    )
    _flag(serve, "--out", help="write the canonical service report here")
    _add_obs_args(serve)
    _add_health_args(serve)
    _flag(serve, "--audit-out")
    serve.set_defaults(func=_cmd_serve)

    rec = sub.add_parser("recommend", help="Algorithm 1 on one link")
    rec.add_argument("--rate", type=float, default=1e-3)
    for flag in ("--rx1", "--rx2", "--tx1", "--tx2"):
        rec.add_argument(flag, type=float, required=True)
    rec.add_argument("--tech", choices=["10G-SR", "40G-LR4", "100G-CWDM4"])
    for flag in (
        "--neighbor-corrupting", "--opposite-corrupting", "--recently-reseated"
    ):
        rec.add_argument(flag, action="store_true")
    rec.add_argument("--deployed", action="store_true",
                     help="use the simplified deployed engine (§7.2)")
    rec.set_defaults(func=_cmd_recommend)

    gadget = sub.add_parser("gadget", help="Appendix-A reduction")
    gadget.add_argument("--vars", type=int, default=4)
    gadget.add_argument("--clauses", type=int, default=6)
    _flag(gadget, "--seed")
    gadget.set_defaults(func=_cmd_gadget)

    obs = sub.add_parser(
        "obs", help="inspect / validate observability artifacts"
    )
    obs.add_argument("--audit", metavar="FILE", help="audit JSONL to pretty-print")
    obs.add_argument("--metrics", metavar="FILE", help="Prometheus snapshot")
    obs.add_argument("--events", metavar="FILE", help="events JSONL stream")
    obs.add_argument("--trace", metavar="FILE", help="Chrome trace JSON")
    _flag(obs, "--sweep", help="sweep results JSONL")
    obs.add_argument(
        "--checkpoint", metavar="FILE", action="append",
        help="service checkpoint file (repeatable); header + digest check",
    )
    _flag(obs, "--service-report", help="repro serve report JSONL")
    obs.add_argument(
        "--health", metavar="FILE",
        help="health scorecard JSON (from --health-out)",
    )
    obs.add_argument(
        "--alerts", metavar="FILE",
        help="SLO alert stream JSONL (from --alerts-out)",
    )
    obs.add_argument(
        "--validate", action="store_true",
        help="check every given file against its schema (exit 1 on problems)",
    )
    obs.add_argument(
        "--limit", type=int, default=20,
        help="audit entries to show (0 = all)",
    )
    obs.set_defaults(func=_cmd_obs)

    health = sub.add_parser(
        "health",
        help="summarize run health artifacts into SLO scorecards",
    )
    health.add_argument(
        "--scorecard", metavar="FILE",
        help="health scorecard JSON (from --health-out)",
    )
    _flag(health, "--service-report",
          help="repro serve report JSONL (uses its result health row)")
    _flag(
        health, "--sweep",
        help="sweep/tournament/campaign JSONL; aggregates per-job "
             "health blocks fleet-wide",
    )
    health.add_argument(
        "--json", action="store_true",
        help="emit canonical JSON instead of the human summary",
    )
    health.set_defaults(func=_cmd_health)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _Refused as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
