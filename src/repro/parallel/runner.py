"""The deterministic process-pool execution layer.

:class:`ParallelRunner` turns a list of
:class:`~repro.parallel.spec.JobSpec` into a list of
:class:`~repro.parallel.worker.JobRecord`, in **spec order**, regardless
of worker count or completion order.  Two backends:

- ``jobs == 1`` — in-process serial execution, bit-identical to calling
  :func:`~repro.parallel.worker.execute_job` in a loop (which is itself
  bit-identical to the pre-runner campaign loops), each record
  :meth:`~repro.parallel.worker.JobRecord.slim`'d as a pool worker
  sends it;
- ``jobs > 1`` — a ``ProcessPoolExecutor`` (``fork`` start method where
  available, so workers share the parent's hash seed) with worker-local
  scenario caching, bounded retry on worker crashes or raised
  exceptions, and a no-progress watchdog that converts hung jobs into
  structured failures instead of wedging the campaign.

Determinism holds because every job's RNG seed is a pure function of its
spec (:func:`~repro.parallel.spec.job_seed`), jobs never share mutable
state (topologies are copied per job; traces are immutable), and results
are reassembled by submission index.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, Executor, ProcessPoolExecutor, wait
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.parallel.spec import JobSpec
from repro.parallel.worker import (
    JobRecord,
    execute_job,
    pool_entry,
    worker_cache,
)


def available_cpus() -> int:
    """CPUs this process may use (affinity-aware where supported)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _failure(kind: str, message: str, attempts: int = 0) -> Dict[str, object]:
    """Structured failure payload carried on a failed JobRecord.

    ``attempts`` (and the last exception text in ``message``) ride inside
    the error object so the JSONL failure row stays self-describing even
    with ``--no-timing`` (which strips the timing block that also carries
    attempt counts).
    """
    return {"kind": kind, "message": message, "attempts": attempts}


def _init_worker() -> None:
    """Pool initializer: start each worker with a cold, private cache.

    Under the ``fork`` start method a worker would otherwise inherit the
    parent's warm cache (and its hit/miss counters), making per-worker
    cache accounting meaningless.
    """
    worker_cache().clear()


@dataclass
class SweepResult:
    """Everything one runner invocation produced.

    Attributes:
        specs: The submitted specs, in submission order.
        records: One record per spec, same order; failed jobs appear as
            structured-failure records, never as missing entries.
        jobs: Worker count used.
        wall_s: End-to-end wall clock of the sweep.
        cache_stats: Scenario-cache hit/miss totals summed over workers.
    """

    specs: List[JobSpec]
    records: List[JobRecord]
    jobs: int
    wall_s: float = 0.0
    cache_stats: Dict[str, int] = field(default_factory=dict)

    def ok_records(self) -> List[JobRecord]:
        return [r for r in self.records if r.ok]

    def failures(self) -> List[JobRecord]:
        return [r for r in self.records if not r.ok]

    def results_by_strategy(self) -> Dict[str, List[JobRecord]]:
        """ok records grouped by strategy (comparison campaigns)."""
        groups: Dict[str, List[JobRecord]] = {}
        for record in self.ok_records():
            groups.setdefault(record.spec.strategy, []).append(record)
        return groups


class ParallelRunner:
    """Deterministic fan-out of campaign jobs over worker processes.

    Args:
        jobs: Worker processes; ``1`` (default) runs serially in-process,
            ``0``/negative means "all available CPUs".
        max_retries: Extra attempts after a crash or raised exception
            before a job is recorded as a structured failure.
        timeout_s: No-progress watchdog — if no job completes for this
            long, currently *running* jobs are failed as timeouts (their
            workers are killed) and queued jobs are resubmitted.  ``None``
            disables the watchdog.  Serial runs ignore it (no preemption
            in-process).
    """

    def __init__(
        self,
        jobs: int = 1,
        max_retries: int = 2,
        timeout_s: Optional[float] = None,
    ):
        if jobs <= 0:
            jobs = available_cpus()
        self.jobs = jobs
        self.max_retries = max(0, max_retries)
        self.timeout_s = timeout_s

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def run(self, specs: Sequence[JobSpec]) -> SweepResult:
        """Execute every spec; records come back in spec order."""
        specs = list(specs)
        for spec in specs:
            spec.validate()
        start = time.perf_counter()
        if self.jobs == 1 or len(specs) <= 1:
            records = self._run_serial(specs)
            cache_stats = worker_cache().stats.as_dict()
        else:
            records, cache_stats = self._run_pool(specs)
        return SweepResult(
            specs=specs,
            records=records,
            jobs=self.jobs,
            wall_s=time.perf_counter() - start,
            cache_stats=cache_stats,
        )

    # ------------------------------------------------------------------ #
    # Serial backend
    # ------------------------------------------------------------------ #

    def _run_serial(self, specs: Sequence[JobSpec]) -> List[JobRecord]:
        records: List[JobRecord] = []
        for spec in specs:
            attempt = 0
            while True:
                attempt += 1
                try:
                    records.append(execute_job(spec, attempt=attempt).slim())
                    break
                except Exception as exc:  # noqa: BLE001 — runner owns policy
                    if attempt > self.max_retries:
                        records.append(
                            JobRecord(
                                spec=spec,
                                status="failed",
                                error=_failure(
                                    "exception",
                                    f"{type(exc).__name__}: {exc}",
                                    attempts=attempt,
                                ),
                                attempts=attempt,
                            )
                        )
                        break
        return records

    # ------------------------------------------------------------------ #
    # Pool backend
    # ------------------------------------------------------------------ #

    def _context(self):
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context(
            "fork" if "fork" in methods else methods[0]
        )

    def _make_pool(self) -> Executor:
        return ProcessPoolExecutor(
            max_workers=self.jobs,
            mp_context=self._context(),
            initializer=_init_worker,
        )

    def _run_pool(self, specs):
        records: List[Optional[JobRecord]] = [None] * len(specs)
        attempts = [0] * len(specs)
        cache_totals: Dict[str, int] = {}
        worker_stats: Dict[int, Dict[str, int]] = {}
        unresolved = self._run_wave(
            specs, range(len(specs)), records, attempts, worker_stats
        )
        # Leftovers mean a worker died or the watchdog fired.  A crash is
        # collective (``BrokenProcessPool`` fails every in-flight future),
        # so the shared pool can no longer attribute it to the job that
        # caused it; a watchdog firing leaves queued jobs that never ran.
        # Either way, finish them one pool per job: crash blame (and the
        # retry bound) becomes exact and each job gets its own timeout, at
        # the price of serialising the tail — the rare path pays, not the
        # common one.
        for index in unresolved:
            self._run_isolated(
                specs[index], index, records, attempts, worker_stats
            )

        for stats in worker_stats.values():
            for key, value in stats.items():
                cache_totals[key] = cache_totals.get(key, 0) + value
        # Every spec gets a record: a job that somehow fell through both
        # the wave and the isolated tail becomes a structured failure
        # instead of a silently shorter record list (which would desync
        # records from specs downstream).
        for index, record in enumerate(records):
            if record is None:
                records[index] = JobRecord(
                    spec=specs[index],
                    status="failed",
                    error=_failure(
                        "unresolved",
                        "job never produced a result or failure",
                        attempts=attempts[index],
                    ),
                    attempts=attempts[index],
                )
        return list(records), cache_totals

    def _run_wave(self, specs, pending, records, attempts, worker_stats):
        """Run ``pending`` in one shared pool.

        Returns the unresolved indexes.  Raised exceptions are retried
        in-pool up to the bound; a worker crash or watchdog firing ends
        the wave (the caller finishes unresolved jobs in isolation).
        """
        pool = self._make_pool()
        unresolved: List[int] = []
        broken = False
        try:
            futures = {}
            for index in pending:
                attempts[index] += 1
                futures[
                    pool.submit(pool_entry, specs[index], attempts[index])
                ] = index
            not_done = set(futures)
            while not_done and not broken:
                done, not_done = wait(
                    not_done,
                    timeout=self.timeout_s,
                    return_when=FIRST_COMPLETED,
                )
                if not done:
                    # Watchdog: nothing finished within timeout_s — the
                    # running futures are hung.  Fail them, kill their
                    # workers; queued jobs go back to the caller.
                    for future in not_done:
                        index = futures[future]
                        if future.running():
                            records[index] = JobRecord(
                                spec=specs[index],
                                status="failed",
                                error=_failure(
                                    "timeout",
                                    f"no completion within {self.timeout_s}s",
                                    attempts=attempts[index],
                                ),
                                attempts=attempts[index],
                            )
                        else:
                            future.cancel()
                            attempts[index] -= 1  # never actually ran
                            unresolved.append(index)
                    self._kill_pool(pool)
                    return unresolved
                for future in done:
                    index = futures[future]
                    exc = future.exception()
                    if exc is None:
                        record, stats = future.result()
                        record.attempts = attempts[index]
                        records[index] = record
                        # A worker's stats are cumulative, but futures done
                        # together leave ``wait`` in any order: keep the max.
                        seen = worker_stats.setdefault(record.worker_pid, {})
                        for key, value in stats.items():
                            seen[key] = max(value, seen.get(key, 0))
                    elif isinstance(exc, BrokenProcessPool):
                        broken = True
                        unresolved.append(index)
                    elif attempts[index] > self.max_retries:
                        records[index] = JobRecord(
                            spec=specs[index],
                            status="failed",
                            error=_failure(
                                "exception",
                                f"{type(exc).__name__}: {exc}",
                                attempts=attempts[index],
                            ),
                            attempts=attempts[index],
                        )
                    else:
                        attempts[index] += 1
                        try:
                            retry_future = pool.submit(
                                pool_entry, specs[index], attempts[index]
                            )
                        except (BrokenProcessPool, RuntimeError):
                            # The pool broke while we were draining this
                            # completion batch (a crash elsewhere is
                            # collective).  Don't abort the sweep: hand
                            # the job to the isolated tail instead.
                            broken = True
                            attempts[index] -= 1  # retry never ran
                            unresolved.append(index)
                            continue
                        futures[retry_future] = index
                        not_done.add(retry_future)
            if broken:
                for future in not_done:
                    index = futures[future]
                    if records[index] is None and index not in unresolved:
                        unresolved.append(index)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        return sorted(unresolved)

    def _run_isolated(self, spec, index, records, attempts, worker_stats):
        """Run one job in its own single-worker pool until resolved.

        Crash attribution is exact here, so the retry bound applies to
        genuine failures of *this* job only.
        """
        while True:
            attempts[index] += 1
            pool = ProcessPoolExecutor(
                max_workers=1,
                mp_context=self._context(),
                initializer=_init_worker,
            )
            future = pool.submit(pool_entry, spec, attempts[index])
            try:
                record, stats = future.result(timeout=self.timeout_s)
                record.attempts = attempts[index]
                records[index] = record
                worker_stats[record.worker_pid] = stats
                pool.shutdown(wait=True)
                return
            except FuturesTimeoutError:
                self._kill_pool(pool)
                records[index] = JobRecord(
                    spec=spec,
                    status="failed",
                    error=_failure(
                        "timeout",
                        f"no completion within {self.timeout_s}s",
                        attempts=attempts[index],
                    ),
                    attempts=attempts[index],
                )
                return
            except BrokenProcessPool:
                pool.shutdown(wait=False, cancel_futures=True)
                if attempts[index] > self.max_retries:
                    records[index] = JobRecord(
                        spec=spec,
                        status="failed",
                        error=_failure(
                            "worker-crash",
                            "worker process died "
                            f"(attempt {attempts[index]})",
                            attempts=attempts[index],
                        ),
                        attempts=attempts[index],
                    )
                    return
            except Exception as exc:  # noqa: BLE001 — runner owns policy
                pool.shutdown(wait=False, cancel_futures=True)
                if attempts[index] > self.max_retries:
                    records[index] = JobRecord(
                        spec=spec,
                        status="failed",
                        error=_failure(
                            "exception",
                            f"{type(exc).__name__}: {exc}",
                            attempts=attempts[index],
                        ),
                        attempts=attempts[index],
                    )
                    return

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Terminate worker processes (hung jobs can't be cancelled)."""
        try:
            processes = list(getattr(pool, "_processes", {}).values())
        except Exception:  # noqa: BLE001 — best-effort cleanup
            processes = []
        for process in processes:
            try:
                process.terminate()
            except Exception:  # noqa: BLE001
                pass
        pool.shutdown(wait=False, cancel_futures=True)


def run_sweep(
    specs: Sequence[JobSpec],
    jobs: int = 1,
    max_retries: int = 2,
    timeout_s: Optional[float] = None,
) -> SweepResult:
    """Convenience wrapper: build a runner and execute ``specs``."""
    runner = ParallelRunner(
        jobs=jobs, max_retries=max_retries, timeout_s=timeout_s
    )
    return runner.run(specs)
