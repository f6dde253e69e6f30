"""Per-worker job execution with scenario memoisation.

``execute_job`` is the single function a pool worker runs.  Expensive
shared state — the :class:`~repro.simulation.scenarios.Scenario`
(topology + trace) that ``make_scenario`` builds — is built once per
worker per :meth:`~repro.parallel.spec.JobSpec.scenario_key` and then
*copied* per job, so a 16-job capacity sweep over one preset builds its
trace once per worker instead of 16 times.  Oracle jobs run through
:func:`~repro.simulation.scenarios.run_scenario`, chaos jobs through
:class:`~repro.simulation.chaos.ChaosSimulation`.  The cached trace is
shared by reference and must therefore stay immutable; the kernel never
writes to it and :class:`~repro.faults.injector.FaultEvent` is
frozen (see ``tests/simulation/test_trace_immutability.py``).

Calibration jobs (``kind="calibrate"``) exercise the harness itself:
deterministic spin/sleep workloads plus crash/hang knobs used by the
runner's crash-retry tests and the pool-overhead benchmark.  They touch
no topology and return a seed-derived token so determinism checks work
on them too.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.parallel.spec import JobSpec
from repro.simulation.chaos import ChaosSimulation
from repro.simulation.results import RunResult
from repro.simulation.scenarios import Scenario, make_scenario, run_scenario
from repro.workloads.dcn_profiles import DCNProfile, LARGE_DCN, MEDIUM_DCN

PRESET_PROFILES: Dict[str, DCNProfile] = {
    "medium": MEDIUM_DCN,
    "large": LARGE_DCN,
}


def resolve_profile(spec: JobSpec) -> DCNProfile:
    """The DCN profile a spec runs on (built-in preset or custom shape)."""
    if spec.profile_shape is not None:
        name, pods, tors, aggs, spines = spec.profile_shape
        return DCNProfile(
            name=name,
            num_pods=pods,
            tors_per_pod=tors,
            aggs_per_pod=aggs,
            num_spines=spines,
        )
    return PRESET_PROFILES[spec.preset]


@dataclass
class CacheStats:
    """Worker-local scenario-cache accounting."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


class ScenarioCache:
    """LRU of scenarios keyed by scenario shape.

    Bounded so an adversarially wide grid cannot exhaust worker memory;
    entries are immutable by contract (jobs run on copies).
    """

    def __init__(self, max_entries: int = 8):
        self.max_entries = max_entries
        self._entries: "OrderedDict[Tuple, Scenario]" = OrderedDict()
        self.stats = CacheStats()

    def get(self, spec: JobSpec) -> Tuple[Scenario, bool]:
        """(cached scenario, was-a-hit) for this spec.

        :meth:`JobSpec.scenario_key` leaves capacity out, so the cached
        scenario carries the capacity of whichever job built it; callers
        override it per job.
        """
        key = spec.scenario_key()
        scenario = self._entries.get(key)
        if scenario is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return scenario, True
        scenario = make_scenario(
            profile=resolve_profile(spec),
            scale=spec.scale,
            duration_days=spec.duration_days,
            seed=spec.trace_seed,
            capacity=spec.capacity,
            events_per_10k_links_per_day=spec.events_per_10k,
            dedup=spec.dedup_trace,
            topo_kind=spec.topo_kind,
            breakout_fraction=spec.breakout_fraction,
        )
        self._entries[key] = scenario
        self.stats.misses += 1
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        return scenario, False

    def clear(self) -> None:
        self._entries.clear()
        self.stats = CacheStats()


#: One cache per process: the serial backend reuses it across a whole
#: sweep; each pool worker populates its own on first touch.
_CACHE = ScenarioCache()


def worker_cache() -> ScenarioCache:
    """This process's scenario cache (exposed for tests and stats)."""
    return _CACHE


@dataclass
class JobRecord:
    """The picklable outcome of one job.

    ``result`` carries the full :class:`RunResult` (exact metric
    series included) so reworked figure campaigns lose nothing relative
    to in-process runs.  ``error`` is a structured failure instead of an
    exception object so records always unpickle cleanly.
    """

    spec: JobSpec
    status: str  # "ok" | "failed"
    result: Optional[RunResult] = None
    payload: Optional[Dict[str, float]] = None
    error: Optional[Dict[str, str]] = None
    attempts: int = 1
    wall_s: float = 0.0
    cache_hit: bool = False
    worker_pid: int = field(default_factory=os.getpid)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def slim(self) -> "JobRecord":
        """This record as a sweep keeps it, and a pool worker sends it.

        A chaos result's audit and controller logs are process-local
        debugging payloads that would dominate pickling cost, so they
        are dropped (the optimizer stats sit on the result itself) and
        the sanitizer stats become a plain dict.  ``result.health``
        stays: its compact ``row()`` becomes the sweep row's "health"
        block.
        """
        result = self.result
        if result is not None and result.controller_log is not None:
            result.sanitizer_stats = dict(vars(result.sanitizer_stats))
            result.audit = None
            result.controller_log = None
        return self


def _execute_calibration(spec: JobSpec, attempt: int) -> JobRecord:
    """Run a deterministic harness-calibration job.

    Knobs (all optional):

    - ``spin_ms``: busy-loop for this many CPU milliseconds;
    - ``sleep_ms``: blocking sleep (models I/O-bound work — overlappable
      across workers even on a single core);
    - ``fail_attempts``: raise while ``attempt <= fail_attempts``;
    - ``exit_attempts``: kill the worker process (``os._exit``) while
      ``attempt <= exit_attempts`` — simulates a hard crash;
    - ``hang_s``: sleep this long *before* anything else (timeout tests).
    """
    knobs = spec.knobs_dict()
    if attempt <= int(knobs.get("exit_attempts", 0)):
        os._exit(17)
    if attempt <= int(knobs.get("fail_attempts", 0)):
        raise RuntimeError(
            f"calibration job failing on purpose (attempt {attempt})"
        )
    start = time.perf_counter()
    hang_s = float(knobs.get("hang_s", 0.0))
    if hang_s > 0:
        time.sleep(hang_s)
    sleep_ms = float(knobs.get("sleep_ms", 0.0))
    if sleep_ms > 0:
        time.sleep(sleep_ms / 1000.0)
    spins = 0
    spin_ms = float(knobs.get("spin_ms", 0.0))
    if spin_ms > 0:
        deadline = time.perf_counter() + spin_ms / 1000.0
        while time.perf_counter() < deadline:
            spins += 1
    return JobRecord(
        spec=spec,
        status="ok",
        payload={"token": float(spec.job_seed() % 2**32)},
        attempts=attempt,
        wall_s=time.perf_counter() - start,
    )


def execute_job(
    spec: JobSpec,
    attempt: int = 1,
    obs: Recorder = NULL_RECORDER,
) -> JobRecord:
    """Run one job in this process and return its record.

    Exceptions propagate (the runner owns retry/failure policy); a
    returned record always has ``status == "ok"`` and its full result
    (the runner keeps :meth:`JobRecord.slim` ones).
    """
    spec.validate()
    if spec.kind == "calibrate":
        return _execute_calibration(spec, attempt)

    cached, cache_hit = _CACHE.get(spec)
    scenario = replace(cached, capacity=spec.capacity)
    start = time.perf_counter()
    if spec.kind == "chaos":
        result = ChaosSimulation(
            scenario,
            fault_config=spec.fault_config(),
            repair_accuracy=spec.repair_accuracy,
            service_days=spec.service_days,
            seed=spec.seed_used(),
            congestion_preset=spec.congestion_preset,
            miswire_pairs=spec.miswire_pairs,
            sensing=spec.sensing,
            obs=obs,
        ).kernel.run()
    else:
        result = run_scenario(
            scenario,
            spec.strategy,
            repair_accuracy=spec.repair_accuracy,
            seed=spec.seed_used(),
            track_capacity=spec.track_capacity,
            obs=obs,
            lg_coverage=spec.lg_coverage,
            penalty=spec.penalty,
            knobs=spec.knobs,
            service_days=spec.service_days,
            full_repair_cycles=spec.full_repair_cycles,
            technician_pool=spec.technician_pool,
        )
    return JobRecord(
        spec=spec,
        status="ok",
        result=result,
        attempts=attempt,
        wall_s=time.perf_counter() - start,
        cache_hit=cache_hit,
    )


def pool_entry(
    spec: JobSpec, attempt: int
) -> Tuple[JobRecord, Dict[str, int]]:
    """Pool-side wrapper: run the job, attach this worker's cache stats."""
    record = execute_job(spec, attempt=attempt).slim()
    return record, _CACHE.stats.as_dict()
