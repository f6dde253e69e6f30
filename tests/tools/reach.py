"""Reach gate: every ``src/repro`` function runs in a production run.

Runs :data:`PRODUCTION_SET` — the command lines CI runs, ``bench.run
--smoke``, ``examples/`` and the ``benchmarks/`` files CI runs — each in
a child interpreter under ``sys.setprofile``, and lists every function
of the ``repro`` package (found with ``ast``) that no run entered.  A
function that no run enters and that :data:`ALLOWED` does not name is a
finding, and so is an allowlist entry that names no function: code that
only tests reach is either deleted or given a reason to stay.

Run it from the repository root (exit status 1 when it reports)::

    python -m tests.tools.reach --report reach-report.txt

The runs share one scratch directory, so one run's artifacts feed the
next as they do between CI's steps; the ``benchmarks/`` files run on a
copy of that directory there, so their results do not overwrite the
committed ones.  Three things would hide reach and are handled here:

- pytest-benchmark's ``PauseInstrumentation`` clears the profiler around
  every timed call, so it is replaced by a no-op;
- a ``multiprocessing`` child leaves through ``os._exit``, so every
  forked child (``bench.run`` forks one per pass) writes what it entered
  from a finalizer, which ``multiprocessing`` runs before that exit;
- ``ParallelRunner`` shuts its pool down without waiting, so a pool
  worker also writes after every job, from a wrapper around
  ``repro.parallel.worker.execute_job`` (``pool_entry`` looks that name
  up at call time);
- every process writes its own file, named by its pid, and the parent
  merges them.

The report lists each run's exit status without gating on it: a
validation run fed a mangled file exits 1 by design, and a timing gate
(the instrumentation-overhead benchmark) can fail under the profiler,
after the code it exercises has run.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import multiprocessing.util
import os
import runpy
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from tests.tools.reach_allowed import ALLOWED

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"

_REPO = "{repo}"


def _repro(*args: str) -> Tuple[str, ...]:
    return ("-m", "repro") + args


def _pytest(*args: str) -> Tuple[str, ...]:
    return ("-m", "pytest", "-q", "-p", "no:cacheprovider") + args


_SERVE = ("serve", "--days", "0.5", "--scale", "0.06", "--seed", "7",
          "--fault-seed", "7")
_SWEEP_GRID = ("sweep", "--strategies", "corropt,switch-local",
               "--capacities", "0.5,0.75", "--seeds", "0:2", "--scale",
               "0.25", "--days", "15", "--events", "100", "--no-timing")
_CHAOS_GRID = ("sweep", "--chaos-preset", "none,mild,harsh,reboot-storm",
               "--capacities", "0.75", "--seeds", "0:2", "--scale", "0.06",
               "--days", "1", "--events", "400", "--no-timing")
_CAMPAIGN = ("sweep", "--chaos-preset", "mild", "--capacities", "0.75",
             "--seeds", "0:2", "--scale", "0.06", "--days", "1", "--events",
             "400", "--no-timing")
_POOL_GRID = ("sweep", "--grid", f"{_REPO}/examples/technician_pool_grid.json",
              "--no-timing")
_TOURNAMENT = ("tournament", "--presets", "medium", "--capacities",
               "0.75,0.9", "--seeds", "0:2", "--scale", "0.25", "--days",
               "30", "--events", "4", "--no-timing")
_FLEET = ("fleet", "--dcns", "3", "--scale", "0.08", "--days", "20",
          "--no-timing")
_LOCALIZE = ("localize", "--seeds", "0:2", "--scale", "0.06", "--days",
             "1", "--events", "400", "--miswire-pairs", "0,4", "--no-timing")

#: Mangles three artifacts the way CI's "rejected with a verdict" step
#: does with echo and sed.
_MANGLE = """\
from pathlib import Path
out = Path("obs/mangled")
(out / "events.jsonl").write_text("not an event stream\\n")
lines = Path("obs/sweep.jsonl").read_text().splitlines(True)
lines[1] = "not json\\n"
(out / "sweep.jsonl").write_text("".join(lines))
(out / "health.json").write_text("[\\n" + Path("obs/health.json").read_text() + "]\\n")
"""

#: ``(name, arguments after "python")``, run in this order with the
#: scratch directory as working directory; ``{repo}`` stands for the
#: repository root.  CI's command lines
#: with their flags and horizons; a subcommand CI does not run appears
#: with its README usage line.
PRODUCTION_SET: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    # obs-artifacts
    ("chaos-mild-artifacts", _repro(
        "chaos", "--preset", "mild", "--scale", "0.12",
        "--metrics-out", "obs/metrics.prom", "--events-out", "obs/events.jsonl",
        "--trace-out", "obs/trace.json", "--manifest-out", "obs/manifest.json",
        "--audit-out", "obs/audit.jsonl", "--health-out", "obs/health.json")),
    ("obs-validate-mild", _repro(
        "obs", "--validate", "--metrics", "obs/metrics.prom", "--events",
        "obs/events.jsonl", "--trace", "obs/trace.json", "--audit",
        "obs/audit.jsonl")),
    ("chaos-harsh-artifacts", _repro(
        "chaos", "--preset", "harsh", "--days", "2", "--scale", "0.12",
        "--metrics-out", "obs/harsh/metrics.prom",
        "--events-out", "obs/harsh/events.jsonl",
        "--trace-out", "obs/harsh/trace.json",
        "--audit-out", "obs/harsh/audit.jsonl")),
    ("obs-validate-harsh", _repro(
        "obs", "--validate", "--metrics", "obs/harsh/metrics.prom",
        "--events", "obs/harsh/events.jsonl", "--trace",
        "obs/harsh/trace.json", "--audit", "obs/harsh/audit.jsonl")),
    ("sweep-mild-half-day", _repro(
        "sweep", "--chaos-preset", "mild", "--seeds", "0", "--scale", "0.06",
        "--days", "0.5", "--no-timing", "--out", "obs/sweep.jsonl")),
    ("mangle", ("-c", _MANGLE)),
    ("obs-validate-mangled-events", _repro(
        "obs", "--validate", "--events", "obs/mangled/events.jsonl")),
    ("obs-validate-mangled-sweep", _repro(
        "obs", "--validate", "--sweep", "obs/mangled/sweep.jsonl")),
    ("obs-validate-mangled-health", _repro(
        "obs", "--validate", "--health", "obs/mangled/health.json")),
    ("bench-obs-overhead", _pytest(
        "benchmarks/test_runtime_obs_overhead.py")),
    # tests
    ("bench-smoke", ("-m", "bench.run", "--smoke")),
    ("bench-checker-optimizer", _pytest(
        "benchmarks/test_runtime_fast_checker.py",
        "benchmarks/test_runtime_optimizer.py")),
    ("bench-paper-reports", _pytest(
        "benchmarks", "--ignore-glob=benchmarks/test_runtime_*")),
    # parallel-determinism
    ("sweep-jobs1", _repro(
        *_SWEEP_GRID, "--jobs", "1", "--out", "sweep/sweep-jobs1.jsonl")),
    ("sweep-jobs4", _repro(
        *_SWEEP_GRID, "--jobs", "4", "--out", "sweep/sweep-jobs4.jsonl",
        "--metrics-out", "sweep/sweep-metrics.prom",
        "--manifest-out", "sweep/sweep-manifest.json")),
    ("obs-validate-sweep", _repro(
        "obs", "--validate", "--sweep", "sweep/sweep-jobs4.jsonl")),
    ("pool-grid-jobs1", _repro(
        *_POOL_GRID, "--jobs", "1", "--out", "sweep/pool-grid-jobs1.jsonl")),
    ("pool-grid-jobs4", _repro(
        *_POOL_GRID, "--jobs", "4", "--out", "sweep/pool-grid-jobs4.jsonl")),
    ("obs-validate-pool-grid", _repro(
        "obs", "--validate", "--sweep", "sweep/pool-grid-jobs4.jsonl")),
    ("bench-parallel-sweep", _pytest(
        "benchmarks/test_runtime_parallel_sweep.py")),
    # tournament-determinism
    ("tournament-jobs1", _repro(
        *_TOURNAMENT, "--jobs", "1", "--out", "tournament/jobs1.jsonl")),
    ("tournament-jobs4", _repro(
        *_TOURNAMENT, "--jobs", "4", "--out", "tournament/jobs4.jsonl")),
    ("obs-validate-tournament", _repro(
        "obs", "--validate", "--sweep", "tournament/jobs4.jsonl")),
    # chaos-determinism
    ("chaos-grid-jobs1", _repro(
        *_CHAOS_GRID, "--jobs", "1", "--out", "chaos/chaos-jobs1.jsonl")),
    ("chaos-grid-jobs4", _repro(
        *_CHAOS_GRID, "--jobs", "4", "--out", "chaos/chaos-jobs4.jsonl",
        "--metrics-out", "chaos/chaos-metrics.prom",
        "--manifest-out", "chaos/chaos-manifest.json")),
    ("obs-validate-chaos", _repro(
        "obs", "--validate", "--sweep", "chaos/chaos-jobs4.jsonl")),
    ("bench-chaos-sweep", _pytest("benchmarks/test_runtime_chaos_sweep.py")),
    # checkpoint-determinism
    ("serve-full", _repro(
        *_SERVE, "--chaos-preset", "mild", "--checkpoint-every", "4",
        "--checkpoint-dir", "service/ck-full",
        "--out", "service/report-full.jsonl")),
    ("serve-kill", _repro(
        *_SERVE, "--chaos-preset", "mild", "--checkpoint-every", "4",
        "--checkpoint-dir", "service/ck-kill", "--stop-after-checkpoint", "1")),
    ("serve-resume", _repro(
        "serve", "--resume-from", "service/ck-kill/checkpoint-000001.ckpt",
        "--checkpoint-dir", "service/ck-kill",
        "--out", "service/report-resumed.jsonl")),
    ("serve-hotspots-full", _repro(
        *_SERVE, "--chaos-preset", "mild", "--congestion-preset", "hotspots",
        "--checkpoint-every", "0.75", "--checkpoint-dir", "service/ck-hot-full",
        "--out", "service/report-hot-full.jsonl")),
    ("serve-hotspots-kill", _repro(
        *_SERVE, "--chaos-preset", "mild", "--congestion-preset", "hotspots",
        "--checkpoint-every", "0.75", "--checkpoint-dir", "service/ck-hot-kill",
        "--stop-after-checkpoint", "1")),
    ("serve-hotspots-resume", _repro(
        "serve", "--resume-from", "service/ck-hot-kill/checkpoint-000001.ckpt",
        "--checkpoint-dir", "service/ck-hot-kill",
        "--out", "service/report-hot-resumed.jsonl")),
    ("serve-hotspots-wrap-kill", _repro(
        *_SERVE, "--chaos-preset", "mild", "--congestion-preset", "hotspots",
        "--checkpoint-every", "0.75", "--checkpoint-dir", "service/ck-hot-wrap",
        "--stop-after-checkpoint", "7")),
    ("serve-hotspots-wrap-resume", _repro(
        "serve", "--resume-from", "service/ck-hot-wrap/checkpoint-000007.ckpt",
        "--checkpoint-dir", "service/ck-hot-wrap",
        "--out", "service/report-hot-wrap.jsonl")),
    ("serve-harsh-full", _repro(
        *_SERVE, "--chaos-preset", "harsh", "--checkpoint-every", "0.75",
        "--checkpoint-dir", "service/ck-harsh-full",
        "--out", "service/report-harsh-full.jsonl")),
    ("serve-harsh-kill", _repro(
        *_SERVE, "--chaos-preset", "harsh", "--checkpoint-every", "0.75",
        "--checkpoint-dir", "service/ck-harsh-kill",
        "--stop-after-checkpoint", "1")),
    ("serve-harsh-resume", _repro(
        "serve", "--resume-from", "service/ck-harsh-kill/checkpoint-000001.ckpt",
        "--checkpoint-dir", "service/ck-harsh-kill",
        "--out", "service/report-harsh-resumed.jsonl")),
    ("serve-drop-metrics", _repro(
        *_SERVE, "--queue-policy", "drop", "--queue-capacity", "1",
        "--drain-budget", "1", "--metrics-out", "service/drop-metrics.prom")),
    ("obs-validate-drop-metrics", _repro(
        "obs", "--validate", "--metrics", "service/drop-metrics.prom")),
    ("obs-validate-service", _repro(
        "obs", "--validate",
        "--checkpoint", "service/ck-kill/checkpoint-000001.ckpt",
        "--service-report", "service/report-full.jsonl")),
    # health-determinism
    ("campaign-jobs1", _repro(
        *_CAMPAIGN, "--jobs", "1", "--out", "health/campaign-jobs1.jsonl")),
    ("campaign-jobs4", _repro(
        *_CAMPAIGN, "--jobs", "4", "--out", "health/campaign-jobs4.jsonl")),
    ("serve-slo-full", _repro(
        *_SERVE, "--chaos-preset", "mild", "--checkpoint-every", "4",
        "--checkpoint-dir", "health/ck-full",
        "--out", "health/report-full.jsonl",
        "--health-out", "health/health-full.json",
        "--alerts-out", "health/alerts-full.jsonl")),
    ("serve-slo-kill", _repro(
        *_SERVE, "--chaos-preset", "mild", "--checkpoint-every", "4",
        "--checkpoint-dir", "health/ck-kill", "--stop-after-checkpoint", "1",
        "--health-out", "health/health-partial.json",
        "--alerts-out", "health/alerts-partial.jsonl")),
    ("serve-slo-resume", _repro(
        "serve", "--resume-from", "health/ck-kill/checkpoint-000001.ckpt",
        "--checkpoint-dir", "health/ck-kill",
        "--health-out", "health/health-resumed.json",
        "--alerts-out", "health/alerts-resumed.jsonl")),
    ("obs-validate-health", _repro(
        "obs", "--validate", "--health", "health/health-full.json",
        "--alerts", "health/alerts-full.jsonl")),
    ("simulate-health", _repro(
        "simulate", "--days", "2", "--scale", "0.1",
        "--health-out", "health/health-simulate.json")),
    ("obs-validate-simulate-health", _repro(
        "obs", "--validate", "--health", "health/health-simulate.json")),
    ("health-scorecards", _repro(
        "health", "--scorecard", "health/health-full.json",
        "--service-report", "health/report-full.jsonl",
        "--sweep", "health/campaign-jobs4.jsonl")),
    # fleet-determinism
    ("fleet-jobs1", _repro(
        *_FLEET, "--jobs", "1", "--out", "fleet/fleet-jobs1.jsonl")),
    ("fleet-jobs4", _repro(
        *_FLEET, "--jobs", "4", "--out", "fleet/fleet-jobs4.jsonl")),
    ("obs-validate-fleet", _repro(
        "obs", "--validate", "--sweep", "fleet/fleet-jobs4.jsonl")),
    ("bench-fleet", _pytest("benchmarks/test_runtime_fleet.py")),
    # localization-determinism
    ("localize-jobs1", _repro(
        *_LOCALIZE, "--jobs", "1", "--out", "localize/jobs1.jsonl",
        "--report-out", "localize/accuracy-jobs1.json")),
    ("localize-jobs4", _repro(
        *_LOCALIZE, "--jobs", "4", "--out", "localize/jobs4.jsonl",
        "--report-out", "localize/accuracy-jobs4.json")),
    ("obs-validate-localize", _repro(
        "obs", "--validate", "--sweep", "localize/jobs4.jsonl")),
    ("bench-localization", _pytest(
        "benchmarks/test_runtime_localization.py")),
    # bench-smoke
    ("bench-poll-tick", _pytest("benchmarks/test_runtime_poll_tick.py")),
    # README usage of the subcommands no CI step runs
    ("topology", _repro(
        "topology", "--pods", "8", "--tors", "16", "--aggs", "8",
        "--spines", "64", "--output", "topo.json")),
    ("study", _repro("study", "--dcns", "8", "--days", "7")),
    ("simulate", _repro(
        "simulate", "--dcn", "medium", "--strategy", "switch-local",
        "--capacity", "0.75")),
    ("simulate-strategies", _repro(
        "simulate", "--strategies", "corropt,none", "--jobs", "4",
        "--days", "15")),
    ("simulate-lg", _repro(
        "simulate", "--strategy", "lg+corropt", "--lg-coverage", "0.9",
        "--capacity", "0.9")),
    ("recommend", _repro(
        "recommend", "--rx1", "-16", "--rx2", "-3", "--tx1", "1", "--tx2",
        "1", "--tech", "40G-LR4")),
    ("gadget", _repro("gadget", "--vars", "5", "--clauses", "8")),
    # examples
    ("example-quickstart", (f"{_REPO}/examples/quickstart.py",)),
    ("example-measurement-study", (f"{_REPO}/examples/measurement_study.py",)),
    ("example-mitigation-comparison",
     (f"{_REPO}/examples/mitigation_comparison.py",)),
    ("example-np-hardness-gadget", (f"{_REPO}/examples/np_hardness_gadget.py",)),
    ("example-repair-workflow", (f"{_REPO}/examples/repair_workflow.py",)),
)

#: Directories the runs write into, made first as CI's ``mkdir -p`` does.
_DIRS = ("obs/harsh", "obs/mangled", "sweep", "tournament", "chaos",
         "service", "health", "fleet", "localize")


class Function(NamedTuple):
    key: str  # "<package-relative file>:<qualified name>"
    first_line: int  # the code object's co_firstlineno
    lines: int


def functions(package: Path) -> List[Function]:
    """Every ``def`` in ``package``, methods and nested ones included."""
    found: List[Function] = []

    def visit(node: ast.AST, relative: str, scope: Tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A decorated function's code starts at its first decorator.
                first = min(
                    [child.lineno] + [d.lineno for d in child.decorator_list]
                )
                name = ".".join(scope + (child.name,))
                found.append(Function(
                    f"{relative}:{name}", first, child.end_lineno - first + 1
                ))
                visit(child, relative, scope + (child.name,))
            elif isinstance(child, ast.ClassDef):
                visit(child, relative, scope + (child.name,))
            else:
                visit(child, relative, scope)

    for path in sorted(package.rglob("*.py")):
        relative = path.relative_to(package).as_posix()
        visit(ast.parse(path.read_text(encoding="utf-8")), relative, ())
    return found


# ---------------------------------------------------------------------- #
# Child side: one production run under the profiler
# ---------------------------------------------------------------------- #

_SEEN: Set[Tuple[str, int]] = set()


def _profile(frame, event, arg) -> None:
    if event == "call":
        code = frame.f_code
        _SEEN.add((code.co_filename, code.co_firstlineno))


def _flush(out_dir: Path, package: str) -> None:
    """Write what this process entered in ``package`` to its own file."""
    lines = sorted(
        f"{filename[len(package) + 1:]}\t{line}\n"
        for filename, line in list(_SEEN)
        if filename.startswith(package + os.sep)
    )
    (out_dir / f"{os.getpid()}.txt").write_text("".join(lines))


class _AfterFork:
    """Registers the flush of a forked ``multiprocessing`` child."""

    def __init__(self, out_dir: Path, package: str) -> None:
        self.args = (out_dir, package)

    def __call__(self) -> None:
        multiprocessing.util.Finalize(None, _flush, self.args, exitpriority=0)


def _run_child(out_dir: Path, package: str, argv: Sequence[str]) -> int:
    sys.setprofile(_profile)
    threading.setprofile(_profile)
    after_fork = _AfterFork(out_dir, package)
    multiprocessing.util.register_after_fork(after_fork, _AfterFork.__call__)
    try:
        from pytest_benchmark import fixture
    except ImportError:
        pass
    else:
        fixture.PauseInstrumentation = contextlib.nullcontext
    from repro.parallel import worker

    execute_job = worker.execute_job

    def flushing_execute_job(*args, **kwargs):
        sys.setprofile(_profile)
        try:
            return execute_job(*args, **kwargs)
        finally:
            _flush(out_dir, package)

    worker.execute_job = flushing_execute_job
    status = 0
    try:
        if argv[0] == "-m":
            sys.argv = [argv[1]] + list(argv[2:])
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        elif argv[0] == "-c":
            sys.argv = ["-c"] + list(argv[2:])
            exec(compile(argv[1], "<string>", "exec"), {"__name__": "__main__"})
        else:
            sys.argv = list(argv)
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as stop:
        code = stop.code
        status = code if isinstance(code, int) else (0 if code is None else 1)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        _flush(out_dir, package)
    return status


# ---------------------------------------------------------------------- #
# Parent side: run the set, merge, compare
# ---------------------------------------------------------------------- #


class Run(NamedTuple):
    name: str
    status: int
    seconds: float


def measure(
    runs: Iterable[Tuple[str, Sequence[str]]],
    package: Path,
    work: Path,
    pythonpath: Sequence[Path],
) -> Tuple[Set[Tuple[str, int]], List[Run]]:
    """Run each production run in ``work``; return the ``(file, first
    line)`` of every function entered in ``package`` and each run's exit
    status and wall-clock."""
    traces = work / ".reach"
    for path in (traces,) + tuple(work / d for d in _DIRS):
        path.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(str(p) for p in pythonpath)
    done: List[Run] = []
    for name, argv in runs:
        args = [arg.replace(_REPO, str(ROOT)) for arg in argv]
        start = time.perf_counter()
        status = subprocess.run(
            [sys.executable, "-m", "tests.tools.reach", "--child",
             str(traces), str(package), "--", *args],
            cwd=work, env=env, stdout=subprocess.DEVNULL,
        ).returncode
        done.append(Run(name, status, time.perf_counter() - start))
    entered: Set[Tuple[str, int]] = set()
    for path in traces.glob("*.txt"):
        for line in path.read_text().splitlines():
            relative, first = line.split("\t")
            entered.add((relative, int(first)))
    return entered, done


def unentered(
    defined: Iterable[Function], entered: Set[Tuple[str, int]]
) -> List[Function]:
    return [
        f for f in defined
        if (f.key.split(":", 1)[0], f.first_line) not in entered
    ]


def problems(missed: Sequence[Function], defined: Sequence[Function],
             allowed: Dict[str, str]) -> List[str]:
    """Unentered functions not in ``allowed``, then entries of it that
    name no function."""
    keys = {f.key for f in defined}
    found = [
        f"never entered: {f.key} ({f.lines} lines)"
        for f in missed if f.key not in allowed
    ]
    found.extend(
        f"stale allowlist entry: {key}" for key in allowed if key not in keys
    )
    return found


def report(defined: Sequence[Function], missed: Sequence[Function],
           runs: Sequence[Run], found: Sequence[str]) -> str:
    out = [
        f"{len(defined)} functions ({sum(f.lines for f in defined)} lines); "
        f"{len(missed)} never entered "
        f"({sum(f.lines for f in missed)} lines); {len(found)} problems",
        "",
    ]
    out.extend(found)
    out += ["", "never entered, allowlisted:"]
    out.extend(
        f"  {f.key} ({f.lines} lines): {ALLOWED[f.key]}"
        for f in missed if f.key in ALLOWED
    )
    out += ["", "runs (name, exit status, seconds):"]
    out.extend(f"  {r.name} {r.status} {r.seconds:.1f}" for r in runs)
    return "\n".join(out) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["--child"]:
        return _run_child(Path(argv[1]), argv[2], argv[4:])
    parser = argparse.ArgumentParser(prog="python -m tests.tools.reach")
    parser.add_argument("--report", metavar="FILE",
                        help="also write the report to FILE")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        work = Path(scratch)
        shutil.copytree(ROOT / "benchmarks", work / "benchmarks",
                        ignore=shutil.ignore_patterns("__pycache__"))
        entered, runs = measure(
            PRODUCTION_SET, PACKAGE, work, [ROOT / "src", ROOT]
        )
    defined = functions(PACKAGE)
    missed = unentered(defined, entered)
    found = problems(missed, defined, ALLOWED)
    text = report(defined, missed, runs, found)
    print(text, end="")
    if args.report:
        Path(args.report).write_text(text)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
