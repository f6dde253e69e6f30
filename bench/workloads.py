"""The five fixed-work workloads (closed loop, one client, one process).

Each workload is three steps the harness times separately:

- ``setup(seed, smoke)`` builds everything that exists before the first
  event (topology, trace, simulation or service objects);
- ``run(state, units)`` is the timed section.  It is cut into *units*
  (one poll tick, one kernel event, one fast check, …) whose durations go
  into ``units``; because the work is a pure function of the seed, unit
  ``i`` does the same work in every pass, which is what lets the harness
  take a per-unit minimum over passes;
- ``finish(state, units)`` is untimed: it reduces the outputs to an ``outcome``
  dict that is compared with ``golden.json`` (seed 0) and across passes,
  and checks the invariants that must hold on any seed.

``smoke`` shrinks days/rounds/jobs so a pass takes a second or two; the
code paths are the same.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
import shutil
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List

from bench import OUT_DIR
from bench.trace import patch

POLL_S = 900.0


def sha256_json(value) -> str:
    canonical = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class QuietGate:
    """Holds the next unit back while the host is in its slow state.

    The reference host flips between two speeds about 1.45x apart and
    stays in one for seconds at a time (bench/README.md has the trace).
    The gate times a fixed 0.25 ms spin; a reading more than ``SLOW``
    times the fastest one seen means the slow state, and the gate keeps
    spinning until the host is fast again or its waiting budget is spent.
    It looks only at the spin, never at a result, and every unit still
    runs exactly once per pass.
    """

    SLOW = 1.2
    #: Units shorter than this share one check.
    EVERY_S = 0.005

    def __init__(self, floor_s: float = math.inf, budget_s: float = 0.0):
        self.floor_s = floor_s
        self.budget_s = budget_s
        #: Seconds spent in the gate (spins and waiting), not in any unit.
        self.spent_s = 0.0
        #: Told how long each stay in the gate took (the tracer, so that
        #: the wait is not billed to whatever span is open).
        self.on_wait = None
        self._checked = -math.inf

    @staticmethod
    def _spin() -> float:
        start = time.perf_counter()
        total = 0
        for i in range(4000):
            total += i * i % 7
        return time.perf_counter() - start

    def wait(self) -> None:
        if self.budget_s <= 0:
            return
        entered = time.perf_counter()
        if entered - self._checked < self.EVERY_S:
            return
        while True:
            reading = self._spin()
            self.floor_s = min(self.floor_s, reading)
            if reading <= self.SLOW * self.floor_s:
                break
            self.budget_s -= reading  # only waiting is charged
            if self.budget_s <= 0:
                break
        self._checked = time.perf_counter()
        self.spent_s += self._checked - entered
        if self.on_wait is not None:
            self.on_wait(self._checked - entered)


class Units:
    """Durations of the consecutive units of one timed section."""

    def __init__(self, gate: QuietGate):
        self.gate = gate
        self.kinds: List[str] = []
        self.durs: List[float] = []

    def call(self, kind: str, fn, *args, **kwargs):
        """Run ``fn`` as one unit of ``kind``."""
        self.gate.wait()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.durs.append(time.perf_counter() - start)
        self.kinds.append(kind)
        return result

    @contextmanager
    def timing(self, target: str, kind: str):
        """Make every call of ``target`` (see :func:`bench.trace.patch`) a
        unit while the block runs — for steps the program, not the
        harness, drives (kernel events inside a sweep, polls inside
        ``ControllerService.run``)."""

        def make(fn):
            @functools.wraps(fn)
            def unit(*args, **kwargs):
                return self.call(kind, fn, *args, **kwargs)

            return unit

        undo = patch(target, make)
        try:
            yield
        finally:
            undo()

    def of(self, kind: str) -> List[float]:
        return [d for k, d in zip(self.kinds, self.durs) if k == kind]


class Outcome:
    """What ``finish`` hands back."""

    def __init__(self):
        #: Deterministic outputs, compared exactly (golden and cross-pass).
        self.values: Dict[str, object] = {}
        #: Work done in the timed section, in the workload's ``work_unit``.
        self.work = 0
        self.ops_attempted = 0
        self.failures: List[str] = []
        #: Workload-specific measurements that are not units.
        self.measured: Dict[str, float] = {}

    def op(self, ok: bool, what: str) -> None:
        """Count one attempted operation; record it when it failed."""
        self.ops_attempted += 1
        if not ok:
            self.failures.append(what)


class Workload:
    name = ""
    why = ""
    #: Unit kind whose latency is reported as ``step_ms_p50/p90``.
    step = ""
    #: What ``work_per_s`` counts.
    work_unit = ""
    #: Passes in a run of the nominal length (``run_seconds`` in
    #: BENCHMARK.json), sized so the run takes about that long on the
    #: 2-core reference host; ``--seconds`` scales the count.
    passes = 1

    def setup(self, seed: int, smoke: bool) -> dict:
        raise NotImplementedError

    def run(self, state: dict, units: Units) -> None:
        raise NotImplementedError

    def finish(self, state: dict, units: Units) -> Outcome:
        raise NotImplementedError


# ---------------------------------------------------------------------- #
# oracle_fig17
# ---------------------------------------------------------------------- #


class OracleFig17(Workload):
    name = "oracle_fig17"
    why = (
        "The researcher's run: the c=0.5 and c=0.75 columns of the "
        "committed fig17 sweep, oracle sensing. Telemetry does no work; "
        "topology scans, path counting, optimizer and kernel do all of it."
    )
    step = "event"
    work_unit = "kernel events"
    passes = 3

    CAPACITIES = (0.5, 0.75)
    STRATEGIES = ("corropt", "switch-local")

    def setup(self, seed, smoke):
        from repro.parallel import JobSpec, worker_cache

        specs = [
            JobSpec(
                preset="large",
                scale=0.35,
                duration_days=10.0 if smoke else 60.0,
                # Seed 0 is the grid benchmarks/test_fig17_penalty_ratio.py
                # committed (trace_seed=300, repair_seed=0).
                trace_seed=300 + seed,
                events_per_10k=15.0,
                capacity=capacity,
                strategy=strategy,
                repair_seed=0,
                track_capacity=False,
            )
            for capacity in self.CAPACITIES
            for strategy in self.STRATEGIES
        ]
        # The (topology, trace) pair every job copies: built here, so the
        # timed sweep starts from a cache that holds exactly this scenario.
        cache = worker_cache()
        cache.clear()
        cache.get(specs[0])
        return {"specs": specs}

    def run(self, state, units):
        from repro import parallel

        kernel = "repro.simulation.kernel:OracleSensing."
        with units.timing(kernel + "handle_onset", "event"), units.timing(
            kernel + "handle_repair", "event"
        ):
            state["sweep"] = parallel.run_sweep(state["specs"], jobs=1)

    def finish(self, state, units):
        out = Outcome()
        sweep = state["sweep"]
        out.work = len(units.durs)
        integrals = {}
        for record in sweep.records:
            out.op(record.ok, f"job failed: {record.error}")
            if record.ok:
                spec = record.spec
                integrals[f"c{spec.capacity}/{spec.strategy}"] = (
                    record.result.penalty_integral
                )
        out.values["penalty_integral"] = integrals
        ratios = {}
        for spec in state["specs"]:
            if spec.strategy != "corropt":
                continue
            corropt = integrals.get(f"c{spec.capacity}/corropt", math.nan)
            local = integrals.get(f"c{spec.capacity}/switch-local", math.nan)
            if local > 0:
                ratios[f"ratio_c{int(spec.capacity * 100)}"] = corropt / local
            else:
                ratios[f"ratio_c{int(spec.capacity * 100)}"] = (
                    1.0 if corropt <= 0 else math.inf
                )
        out.values["ratios"] = ratios
        out.op(
            sweep.cache_stats.get("misses", 0) <= 1,
            f"sweep rebuilt the scenario: {sweep.cache_stats}",
        )
        return out


# ---------------------------------------------------------------------- #
# chaos_mild / chaos_harsh
# ---------------------------------------------------------------------- #


class Chaos(Workload):
    step = "tick"
    work_unit = "link-samples"
    passes = 4
    preset = ""

    def setup(self, seed, smoke):
        from repro.simulation import (
            ChaosSimulation,
            chaos_preset,
            chaos_scenario,
        )

        days = 0.25 if smoke else 1.0
        scenario = chaos_scenario(scale=0.25, duration_days=days, seed=seed)
        sim = ChaosSimulation(
            scenario,
            fault_config=chaos_preset(self.preset, seed=seed),
            seed=seed,
        )
        sim.kernel.start()
        return {"sim": sim, "ticks": int(days * 86_400 / POLL_S)}

    def run(self, state, units):
        # The harness is the clock: one run_until per 15-minute tick, then
        # the drain and finish that kernel.run() would do.
        kernel = state["sim"].kernel
        for tick in range(1, state["ticks"] + 1):
            units.call("tick", kernel.run_until, tick * POLL_S)
        units.call("drain", kernel.run_until, math.inf)
        state["result"] = units.call("finish", kernel.finish)

    def finish(self, state, units):
        out = Outcome()
        result = state["result"]
        chaos = dict(vars(result.chaos))
        sanitizer = dict(vars(result.sanitizer_stats))
        out.values["fingerprint_sha256"] = sha256_json(result.fingerprint())
        out.values["chaos"] = chaos
        out.values["sanitizer"] = sanitizer
        out.ops_attempted += state["ticks"]
        out.op(chaos["polls"] == state["ticks"], "a poll tick did not run")
        out.op(
            chaos["quarantine_violations"] == 0,
            f"{chaos['quarantine_violations']} disables on quarantined data",
        )
        out.op(
            chaos["capacity_violations"] == 0,
            f"{chaos['capacity_violations']} ticks below the capacity floor",
        )
        out.op(result.invariants_ok(), "invariants_ok() is false")
        # Every per-direction poll outcome the sanitizer handled.
        out.work = sanitizer["samples"] + sanitizer["missing"]
        return out


class ChaosMild(Chaos):
    name = "chaos_mild"
    preset = "mild"
    why = (
        "ROADMAP's reference chaos run, happy telemetry path: 1,008 links "
        "polled every 15 min; collect, sanitize and store do ~80% of the "
        "work, the paper's checker and optimizer under 1%."
    )


class ChaosHarsh(Chaos):
    name = "chaos_harsh"
    preset = "harsh"
    why = (
        "Same loop on the fault path: 32-bit wraps, freezes, 10% missed "
        "polls, quarantine and the fail-safe carry the load; a faster "
        "happy path that slows or breaks this shows here only."
    )


# ---------------------------------------------------------------------- #
# serve_ckpt
# ---------------------------------------------------------------------- #


class ServeCkpt(Workload):
    name = "serve_ckpt"
    why = (
        "The operator's run: ControllerService with a backpressured queue, "
        "shards, hotspot congestion + diagnosis and whole-graph pickle "
        "checkpoints every 3 h, then restore and resume."
    )
    step = "poll"
    work_unit = "link-samples"
    passes = 3

    CHECKPOINT_EVERY_S = 3 * 3600.0

    def setup(self, seed, smoke):
        from repro.service import ControllerService, ServiceConfig

        service = ControllerService(
            ServiceConfig(
                days=0.25 if smoke else 0.5,
                scale=0.25,
                seed=seed,
                fault_seed=seed,
                chaos_preset="mild",
                congestion_preset="hotspots",
                # 32 batches per poll against room for 24: 'defer' engages.
                queue_capacity=24,
            )
        )
        directory = OUT_DIR / f"ckpt-{self.name}-{time.time_ns()}"
        return {"service": service, "dir": directory}

    def run(self, state, units):
        service = state["service"]
        with units.timing(
            "repro.simulation.kernel:TelemetrySensing.handle_poll", "poll"
        ), units.timing(
            "repro.service.service:ControllerService.checkpoint", "ckpt_write"
        ):
            state["status"] = service.run(
                checkpoint_every_s=self.CHECKPOINT_EVERY_S,
                checkpoint_dir=state["dir"],
            )

    def finish(self, state, units):
        try:
            return self._finish(state)
        finally:
            shutil.rmtree(state["dir"], ignore_errors=True)

    def _finish(self, state):
        from repro.service import ControllerService

        out = Outcome()
        service, status = state["service"], state["status"]
        result = status.result
        out.op(status.completed, f"run stopped early: {status.stop_reason}")
        polls = result.chaos.polls
        out.ops_attempted += polls
        lines = service.report_lines(result)
        # Row 0 is the header, which carries the package version.
        out.values["report_sha256"] = sha256_json(lines[1:])
        out.values["checkpoints"] = len(status.checkpoints)
        queue = service.pipeline.queue
        out.values["queue"] = queue.stats.as_dict()
        out.op(queue.accounting_ok(), "queue conservation law broken")
        out.op(result.invariants_ok(), "invariants_ok() is false")
        out.op(
            result.diagnosis.congestion_mitigations == 0,
            "a congested link was disabled",
        )
        out.op(
            queue.stats.deferred > 0, "queue never deferred: no backpressure"
        )
        sanitizer = result.sanitizer_stats
        out.work = sanitizer.samples + sanitizer.missing

        # Kill-and-resume: restore the second-to-last checkpoint (digest
        # verified by read_checkpoint) and drain the rest of the run.
        out.ops_attempted += len(status.checkpoints)
        last = Path(status.checkpoints[-1])
        out.measured["ckpt_mb"] = last.stat().st_size / 1e6
        start = time.perf_counter()
        try:
            _header, resumed = ControllerService.restore(
                status.checkpoints[-2]
            )
        except ValueError as exc:
            out.op(False, f"restore failed: {exc}")
            return out
        out.measured["restore_s"] = time.perf_counter() - start
        after = resumed.run(
            checkpoint_every_s=self.CHECKPOINT_EVERY_S,
            checkpoint_dir=state["dir"] / "resumed",
        )
        out.op(
            after.completed
            and resumed.report_lines(after.result) == lines,
            "resumed run's report differs from the uninterrupted run's",
        )
        return out


# ---------------------------------------------------------------------- #
# decide_large
# ---------------------------------------------------------------------- #


class DecideLarge(Workload):
    name = "decide_large"
    why = (
        "The paper's contribution alone, at paper scale, no simulator: "
        "fast checks and optimizer plans on 36,864 links under churn, and "
        "348K-link columnar recounts."
    )
    step = "check"
    work_unit = "decisions"
    passes = 4

    CHURN = 8  # links repaired and links newly corrupting, per round

    def setup(self, seed, smoke):
        from repro.core.constraints import CapacityConstraint
        from repro.core.fast_checker import FastChecker
        from repro.core.optimizer import GlobalOptimizer
        from repro.core.path_counting import PathCounter
        from repro.topology import sprinkle_corruption
        from repro.topology.columnar import (
            ColumnarPathCounter,
            ColumnarTopology,
        )
        from repro.workloads.dcn_profiles import LARGE_DCN

        rng = random.Random(seed)
        topo = LARGE_DCN.build(scale=0.25 if smoke else 1.0)
        sprinkle_corruption(topo, fraction=0.02, rng=rng)
        constraint = CapacityConstraint(0.75)
        counter = PathCounter(topo)
        clos = (80, 22, 8, 96) if smoke else (320, 88, 8, 384)
        columnar = ColumnarTopology.build_clos(*clos)
        return {
            "rng": rng,
            "topo": topo,
            "counter": counter,
            "checker": FastChecker(topo, constraint, counter=counter),
            "optimizer": GlobalOptimizer(topo, constraint, counter=counter),
            "columnar": columnar,
            "recounter": ColumnarPathCounter(columnar),
            "rounds": 10 if smoke else 90,
            "recounts": 5 if smoke else 50,
        }

    @staticmethod
    def _pop_random(rng, items: list):
        """Remove and return a seeded-random element in O(1)."""
        index = rng.randrange(len(items))
        items[index], items[-1] = items[-1], items[index]
        return items.pop()

    def _churn(self, topo, repaired, corrupted) -> None:
        for link_id in repaired:
            topo.clear_corruption(link_id)
            topo.enable_link(link_id)
        for link_id, rate in corrupted:
            topo.set_corruption(link_id, rate)

    def run(self, state, units):
        rng, topo = state["rng"], state["topo"]
        checker, optimizer = state["checker"], state["optimizer"]
        corrupting = sorted(topo.corrupting_links())
        marked = set(corrupting)
        healthy = [lid for lid in sorted(topo.link_ids()) if lid not in marked]
        rng.shuffle(corrupting)
        disabled: List = []  # disabled links, every one of them corrupting
        allowed = 0

        def check(link_id) -> None:
            nonlocal allowed
            if units.call("check", checker.check_and_disable, link_id).allowed:
                allowed += 1
                disabled.append(link_id)

        # (A) a burst of reports: fast-check every corrupting link.
        for link_id in corrupting:
            check(link_id)
        # (B) churn: repairs free capacity, new links start corrupting,
        # each is fast-checked, then the optimizer re-plans.
        for _ in range(state["rounds"]):
            repaired = [
                self._pop_random(rng, disabled)
                for _ in range(min(self.CHURN, len(disabled)))
            ]
            fresh = [
                (self._pop_random(rng, healthy), 10 ** rng.uniform(-7, -2))
                for _ in range(self.CHURN)
            ]
            units.call("churn", self._churn, topo, repaired, fresh)
            healthy.extend(repaired)
            for link_id, _rate in fresh:
                check(link_id)
            plan = units.call("plan", optimizer.optimize)
            disabled.extend(sorted(plan.to_disable))
        # (C) fleet-scale recounts with 350 extra links hypothetically off.
        recounter = state["recounter"]
        ids = state["columnar"].link_ids()
        floor = 1.0
        for index in range(state["recounts"] + 1):
            extra = [ids[i] for i in rng.sample(range(len(ids)), 350)]
            fractions = units.call(
                # The first call also builds the link index.
                "recount_first" if index == 0 else "recount",
                recounter.tor_fraction_array,
                extra_disabled=extra,
            )
            floor = min(floor, float(fractions.min()))
        state.update(
            allowed=allowed, plan=plan, disabled=disabled, floor=floor
        )

    def finish(self, state, units):
        from repro.topology.columnar import ColumnarPathCounter

        out = Outcome()
        topo = state["topo"]
        # Every check, plan and recount is one decision (and one op).
        out.work = len(units.durs) - len(units.of("churn"))
        out.ops_attempted += out.work
        out.values["allowed"] = state["allowed"]
        out.values["disabled_sha256"] = sha256_json(
            sorted(topo.disabled_links())
        )
        # Summed over a set, so its last digits follow the hash seed.
        out.values["residual_penalty"] = float(
            f"{state['plan'].residual_penalty:.12g}"
        )
        out.values["recount_floor"] = state["floor"]
        out.op(
            set(state["disabled"]) == topo.disabled_links(),
            "harness lost track of the disabled set",
        )
        fractions = state["counter"].tor_fractions()
        out.op(
            min(fractions.values()) >= 0.75 - 1e-9,
            "a ToR is below its capacity constraint",
        )
        out.op(
            ColumnarPathCounter.for_topology(topo).tor_fractions() == fractions,
            "columnar and object path counters disagree",
        )
        return out


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        OracleFig17(),
        ChaosMild(),
        ChaosHarsh(),
        ServeCkpt(),
        DecideLarge(),
    )
}
