"""Run the benchmark: ``python3 -m bench.run`` (or ``python3 bench/run.py``).

Two modes:

- ``--workload NAME --seed N --seconds S --trace 0|1`` measures one
  workload once and prints, as the last line of stdout, one JSON object
  ``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
  metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
- without ``--workload`` it measures every workload ``--repeats`` times
  round-robin, adds one traced run each, and prints the full report.

Every measurement runs its passes in fresh child processes, one at a time:
a second run inside one interpreter is 15–40% slower than the first (heap
growth), and this host flips between two speeds, 1.45x apart, every few
seconds.  A run is ``k`` identical passes (same seed, same work); the
reported time of each unit of work is its minimum over the passes, so a
slow stretch has to hit the same unit in every pass to show.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent

#: (name, unit, better, bound): what a user of the system sees.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.25),
    ("step_ms_p50", "ms", "lower", 0.25),
    ("step_ms_p90", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

#: ``run_seconds`` in BENCHMARK.json: the run length the workloads' pass
#: counts are sized for.
NOMINAL_SECONDS = 16
#: Set-ups timed per pass: at least 3, then until they add up to SETUP_S,
#: at most 15 (the reported value is the median over all passes).
SETUP_REPS = (3, 15)
SETUP_S = 0.25
#: File under OUT_DIR that keeps the gate's floor between runs.
SPIN_FLOOR = "spin_floor.json"
#: Most a run may spend waiting for the host's fast state (QuietGate).
GATE_BUDGET_S = 6.0
#: A pass that takes longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not produce a result."""


# ---------------------------------------------------------------------- #
# The tree under test
# ---------------------------------------------------------------------- #


def import_tree():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else.

    The pipeline runs parent and change side by side; a stale install on
    the path would silently measure the wrong tree.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'repro'} is missing")
    # Run as a script, sys.path[0] is bench/, where trace.py would shadow
    # the standard library's trace module.
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != BENCH]
    for entry in (str(ROOT), str(SRC)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    import repro

    found = Path(repro.__file__).resolve()
    if SRC.resolve() not in found.parents:
        raise BenchError(
            f"refusing to run: repro was imported from {found}, "
            f"not from {SRC}"
        )
    return repro


def host_block() -> Dict[str, object]:
    import numpy

    repro = import_tree()
    from repro.parallel.runner import available_cpus

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    return {
        "nproc": os.cpu_count(),
        "available_cpus": available_cpus(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": repro.__version__,
        "git_sha": sha or None,  # the driver's checkout is not a git repo
    }


def calibrate() -> float:
    """A fixed ~0.1 s spin (interpreter loop + numpy), in milliseconds.

    Recorded beside every pass so a slow-host minute is visible next to
    the number it hit.  Never used to correct a metric.
    """
    import numpy

    start = time.perf_counter()
    total = 0
    for i in range(600_000):
        total += i * i % 7
    array = numpy.arange(400_000, dtype=numpy.float64)
    for _ in range(40):
        array = numpy.sqrt(array * 1.0001 + 1.0)
    return (time.perf_counter() - start) * 1e3


# ---------------------------------------------------------------------- #
# One pass, in a forked copy of this interpreter
# ---------------------------------------------------------------------- #


def one_pass(
    name: str,
    seed: int,
    smoke: bool,
    trace: bool,
    floor_s: float,
    gate_budget_s: float,
) -> dict:
    """Set up, run and check one workload once; runs in the forked child.

    ``floor_s`` and ``gate_budget_s`` are the gate's fastest spin so far
    and what is left of the run's waiting budget.
    """
    from bench import layers
    from bench.trace import Tracer
    from bench import OUT_DIR
    from bench.workloads import WORKLOADS, QuietGate, Units

    workload = WORKLOADS[name]
    tracer = None
    if trace:
        tracer = Tracer()
        layers.install(tracer)

    gate = QuietGate(floor_s, gate_budget_s)
    if tracer:
        gate.on_wait = tracer.exclude
    setups = []
    while True:
        state = None  # drop the previous set-up before timing the next
        gc.collect()
        gate.wait()
        start = time.perf_counter()
        state = workload.setup(seed, smoke)
        setups.append(time.perf_counter() - start)
        # A 10 ms set-up is timed more often than a 200 ms one.
        if trace or smoke or len(setups) >= SETUP_REPS[1] or (
            len(setups) >= SETUP_REPS[0] and sum(setups) >= SETUP_S
        ):
            break
    if tracer:
        tracer.mark("setup")

    units = Units(gate)
    gc.collect()
    gate_before = gate.spent_s
    start = time.perf_counter()
    workload.run(state, units)
    wall_s = time.perf_counter() - start - (gate.spent_s - gate_before)
    layer_values = None
    if tracer:
        # finish() verifies; it is not part of the workload, so the probes
        # come off and the layers' own counters are read before it runs.
        tracer.mark("run")
        tracer.uninstall()
        layer_values = layers.layer_metrics(tracer)

    outcome = workload.finish(state, units)
    record = {
        "setup_s": setups,
        "wall_s": wall_s,
        "gate_s": gate.spent_s,
        "floor_s": gate.floor_s,
        "kinds": units.kinds,
        "durs": units.durs,
        "work": outcome.work,
        "values": outcome.values,
        "measured": outcome.measured,
        "ops_attempted": outcome.ops_attempted,
        "failures": outcome.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if tracer:
        layer_values["trace.wall_s"] = wall_s
        layer_values["trace.covered_ratio"] = (
            tracer.phase_self_s("run") / wall_s
        )
        OUT_DIR.mkdir(exist_ok=True)
        layer_values["trace.spans"] = tracer.write_chrome_trace(
            OUT_DIR / f"trace-{name}-seed{seed}.json"
        )
        record["layers"] = layer_values
    # Through JSON, so outcomes compare the way golden.json stores them.
    return json.loads(json.dumps(record))


def _pass_entry(pipe, *args) -> None:
    pipe.send(one_pass(*args))
    pipe.close()


def run_pass(name: str, *args) -> dict:
    """Run :func:`one_pass` ``(name, *args)`` in a forked child; wait for it.

    Fork, not spawn, on purpose: the child starts from a copy of this
    interpreter as it was right after importing the program — the state a
    fresh ``python3`` would reach 0.6 s later — so every pass starts from
    the same heap and no pass pays for imports.  It is safe because this
    process is single-threaded (see ``main``), and one child runs at a
    time.
    """
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=_pass_entry, args=(sender, name, *args))
    child.start()
    sender.close()
    try:
        if not receiver.poll(CHILD_TIMEOUT_S):
            raise BenchError(
                f"{name}: pass still running after {CHILD_TIMEOUT_S} s"
            )
        return receiver.recv()
    except EOFError:
        raise BenchError(f"{name}: pass died without a result") from None
    except BaseException:
        child.kill()
        raise
    finally:
        child.join()
        receiver.close()


# ---------------------------------------------------------------------- #
# One run: k passes, reduced to metrics
# ---------------------------------------------------------------------- #


def quantile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile; 0 when there is nothing to rank."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def unit_metrics(by_kind: Dict[str, List[float]], measured: dict) -> dict:
    """Per-layer metrics the harness times itself (traced run or not)."""
    checks = by_kind.get("check", [])
    return {
        "core.fast_checker.check_us_p50": quantile(checks, 0.5) * 1e6,
        "core.fast_checker.check_us_p90": quantile(checks, 0.9) * 1e6,
        "core.optimizer.plan_ms_p50": quantile(by_kind.get("plan", []), 0.5)
        * 1e3,
        "core.path_counting.recount_ms_p50": quantile(
            by_kind.get("recount", []), 0.5
        )
        * 1e3,
        "core.path_counting.recount_first_ms": sum(
            by_kind.get("recount_first", [])
        )
        * 1e3,
        "service.ckpt_write_s": sum(by_kind.get("ckpt_write", [])),
        "service.restore_s": measured.get("restore_s", 0.0),
        "service.ckpt_mb": measured.get("ckpt_mb", 0.0),
    }


def read_spin_floor() -> float:
    """The fastest gate spin any run in this checkout has seen.

    Within one run the gate can only tell the host's slow state from the
    fastest spin of that run, so a run that falls entirely into a slow
    stretch would never wait.  Remembering the floor across runs lets it;
    the file changes only how long the gate waits, never a measurement.
    """
    from bench import OUT_DIR

    try:
        with open(OUT_DIR / SPIN_FLOOR, encoding="utf-8") as handle:
            return float(json.load(handle)["spin_floor_s"])
    except (OSError, ValueError, KeyError, TypeError):
        return float("inf")


def write_spin_floor(floor_s: float) -> None:
    from bench import OUT_DIR

    if floor_s < read_spin_floor():
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / SPIN_FLOOR, "w", encoding="utf-8") as handle:
            json.dump({"spin_floor_s": floor_s}, handle)


def passes_for(workload, seconds: float, smoke: bool, trace: bool) -> int:
    """A traced or smoke run is one pass; otherwise ``--seconds`` scales
    the workload's pass count for a run of the nominal length."""
    if smoke or trace:
        return 1
    return max(1, round(workload.passes * seconds / NOMINAL_SECONDS))


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    check_golden: bool = True,
) -> dict:
    """Run the passes of one (workload, seed) and reduce them."""
    import_tree()
    from bench.layers import PER_LAYER
    from bench.workloads import WORKLOADS

    workload = WORKLOADS[name]
    golden = load_golden(name, seed, smoke) if check_golden else None
    calib = [calibrate()]
    passes = []
    floor_s = read_spin_floor()
    gate_budget_s = GATE_BUDGET_S
    for _ in range(passes_for(workload, seconds, smoke, trace)):
        passes.append(
            run_pass(name, seed, smoke, trace, floor_s, gate_budget_s)
        )
        floor_s = passes[-1]["floor_s"]
        gate_budget_s -= passes[-1]["gate_s"]
        calib.append(calibrate())
    write_spin_floor(floor_s)

    first = passes[0]
    attempted = sum(p["ops_attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]

    def check(ok: bool, what: str) -> None:
        nonlocal attempted
        attempted += 1
        if not ok:
            failures.append(what)

    # The same seed must give the same outputs and the same sequence of
    # units in every pass; seed 0 must also match the committed golden.
    for index, other in enumerate(passes[1:], start=2):
        check(
            other["values"] == first["values"]
            and other["kinds"] == first["kinds"],
            f"pass {index} differs from pass 1 on the same seed",
        )
    if golden is not None:
        for key, want in golden.items():
            check(
                first["values"].get(key) == want,
                f"{key} differs from golden.json: "
                f"{first['values'].get(key)!r} != {want!r}",
            )

    # Lower envelope: unit i takes what its fastest pass took; the part of
    # the timed section outside any unit, what it took in its best pass.
    same = [p for p in passes if p["kinds"] == first["kinds"]]
    envelope = [min(column) for column in zip(*(p["durs"] for p in same))]
    rest = min(p["wall_s"] - sum(p["durs"]) for p in same)
    wall_s = sum(envelope) + max(rest, 0.0)
    by_kind: Dict[str, List[float]] = {}
    for kind, duration in zip(first["kinds"], envelope):
        by_kind.setdefault(kind, []).append(duration)
    steps = by_kind.get(workload.step, [])
    measured = {
        key: min(p["measured"][key] for p in passes if key in p["measured"])
        for key in first["measured"]
    }
    run = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "passes": len(passes),
        "ops_attempted": attempted,
        "ops_failed": len(failures),
        "failures": failures,
        "digest": first["values"],
        "work": first["work"],
        "work_unit": workload.work_unit,
        "step": workload.step,
        "steps": len(steps),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_gate_s": [p["gate_s"] for p in passes],
        "host_calib_ms": calib,
        "unit_metrics": unit_metrics(by_kind, measured),
    }
    if trace:
        layers = dict(first["layers"], **run["unit_metrics"])
        run["metrics"] = {
            metric: {"value": layers.get(metric, 0), "unit": unit}
            for metric, unit, _better in PER_LAYER
        }
    else:
        values = {
            "setup_s": statistics.median(
                s for p in passes for s in p["setup_s"]
            ),
            "wall_s": wall_s,
            "work_per_s": first["work"] / wall_s,
            "step_ms_p50": quantile(steps, 0.5) * 1e3,
            "step_ms_p90": quantile(steps, 0.9) * 1e3,
            "peak_rss_mb": statistics.median(
                p["peak_rss_mb"] for p in passes
            ),
        }
        run["metrics"] = {
            metric: {"value": values[metric], "unit": unit}
            for metric, unit, _better, _bound in END_TO_END
        }
    return run


def load_golden(name: str, seed: int, smoke: bool) -> Optional[dict]:
    """Goldens exist for the full-size workloads at seed 0 only."""
    if smoke or seed != 0:
        return None
    with open(BENCH / "golden.json", encoding="utf-8") as handle:
        return json.load(handle)[name]


def result_line(run: dict) -> str:
    """The driver's contract: exactly these four keys, on the last line."""
    return json.dumps(
        {
            "correct": run["ops_failed"] == 0,
            "attempted": run["ops_attempted"],
            "failed": run["ops_failed"],
            "metrics": run["metrics"],
        }
    )


def print_run(run: dict) -> None:
    print(
        f"{run['workload']}  seed={run['seed']}  trace={run['trace']}  "
        f"passes={run['passes']}  ops={run['ops_attempted']}  "
        f"failed={run['ops_failed']}"
    )
    for failure in run["failures"]:
        print(f"  FAILED: {failure}")
    notes = {
        "work_per_s": run["work_unit"],
        "step_ms_p50": f"{run['step']}, n={run['steps']}",
        "step_ms_p90": f"{run['step']}, n={run['steps']}",
    }
    for metric, entry in run["metrics"].items():
        if entry["value"] == 0 and run["trace"]:
            continue  # a layer this workload never enters
        note = f"  ({notes[metric]})" if metric in notes else ""
        print(f"  {metric:44s} {entry['value']:>16.6g} {entry['unit']}{note}")


# ---------------------------------------------------------------------- #
# The full report
# ---------------------------------------------------------------------- #


def full_report(args) -> int:
    import_tree()
    from bench.workloads import WORKLOADS

    names = list(WORKLOADS)
    host = host_block()
    print("host:", json.dumps(host))
    runs: Dict[str, List[dict]] = {name: [] for name in names}
    # Round-robin, so a slow minute lands on one repeat of every workload
    # and not on every repeat of one.
    for repeat in range(args.repeats):
        for name in names:
            run = measure(
                name,
                args.seed,
                args.seconds,
                False,
                args.smoke,
                not args.write_golden,
            )
            runs[name].append(run)
            print(f"[repeat {repeat + 1}/{args.repeats}] ", end="")
            print_run(run)
    traced = {}
    for name in names:
        traced[name] = measure(
            name,
            args.seed,
            args.seconds,
            True,
            args.smoke,
            not args.write_golden,
        )
        print("[traced] ", end="")
        print_run(traced[name])

    report = {"host": host, "seed": args.seed, "smoke": args.smoke,
              "repeats": args.repeats, "workloads": {}}
    failed = 0
    print()
    print(f"== end-to-end, tracing off: median [min, max] over "
          f"{args.repeats} runs ==")
    for name in names:
        untraced, trace_run = runs[name], traced[name]
        print(f"{name}  ({WORKLOADS[name].why})")
        end_to_end = {}
        for metric, unit, _better, _bound in END_TO_END:
            values = [r["metrics"][metric]["value"] for r in untraced]
            end_to_end[metric] = {
                "unit": unit,
                "median": statistics.median(values),
                "min": min(values),
                "max": max(values),
                "n": len(values),
            }
            print(
                f"  {metric:14s} {statistics.median(values):>14.6g} "
                f"[{min(values):.6g}, {max(values):.6g}] {unit}  "
                f"n={len(values)}"
            )
        unit_values = {
            metric: statistics.median(r["unit_metrics"][metric] for r in untraced)
            for metric in untraced[0]["unit_metrics"]
        }
        for metric, value in unit_values.items():
            if value:
                print(f"  {metric:44s} {value:>14.6g}")
        # Traced and untraced walls compared like for like: one raw pass.
        raw_wall = statistics.median(
            w for r in untraced for w in r["pass_wall_s"]
        )
        overhead = trace_run["pass_wall_s"][0] / raw_wall
        same_digest = trace_run["digest"] == untraced[0]["digest"]
        attempted = sum(r["ops_attempted"] for r in untraced + [trace_run])
        ops_failed = sum(r["ops_failed"] for r in untraced + [trace_run])
        if not same_digest:
            ops_failed += 1
            print("  FAILED: traced run's outputs differ from the untraced run's")
        failed += ops_failed
        print(
            f"  ops_attempted {attempted}  ops_failed {ops_failed}  "
            f"trace_overhead_ratio {overhead:.3f}  "
            f"traced digest == untraced digest: {same_digest}"
        )
        report["workloads"][name] = {
            "end_to_end": end_to_end,
            "per_layer": trace_run["metrics"],
            "unit_metrics": unit_values,
            "trace_overhead_ratio": overhead,
            "ops_attempted": attempted,
            "ops_failed": ops_failed,
            "digest": untraced[0]["digest"],
            "traced_digest": trace_run["digest"],
            "host_calib_ms": [r["host_calib_ms"] for r in untraced],
        }
    print()
    print("== per layer, from the traced run (layers never entered omitted) ==")
    for name in names:
        print(f"{name}")
        for metric, entry in traced[name]["metrics"].items():
            if entry["value"]:
                print(
                    f"  {metric:44s} {entry['value']:>14.6g} {entry['unit']}"
                )
    if args.write_golden:
        if args.smoke or args.seed != 0 or failed:
            raise BenchError("goldens are full-size, seed 0, and all-green")
        golden = {name: runs[name][0]["digest"] for name in names}
        with open(BENCH / "golden.json", "w", encoding="utf-8") as handle:
            json.dump(golden, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {BENCH / 'golden.json'}")
    print(json.dumps(report))
    return 1 if failed else 0


# ---------------------------------------------------------------------- #
# Entry point
# ---------------------------------------------------------------------- #


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="measure this workload only")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds",
        type=float,
        default=NOMINAL_SECONDS,
        help="nominal length of one run: sets the number of passes",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="shrunken workloads, one pass, no golden comparison",
    )
    parser.add_argument(
        "--write-golden",
        action="store_true",
        help="regenerate bench/golden.json (full report, seed 0)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # One thread: the workloads use no pools, and passes are forked.  Must
    # be set before numpy is first imported.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        import_tree()
        from bench.workloads import WORKLOADS

        if args.workload is not None and args.workload not in WORKLOADS:
            raise BenchError(
                f"unknown workload {args.workload!r}; "
                f"choose from {sorted(WORKLOADS)}"
            )
        if args.workload is None:
            return full_report(args)
        run = measure(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            args.smoke,
        )
        print_run(run)
        detail = {k: v for k, v in run.items() if k != "metrics"}
        print("detail:", json.dumps(dict(detail, host=host_block())))
        print(result_line(run))
        return 0 if run["ops_failed"] == 0 else 1
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
