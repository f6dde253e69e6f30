"""SNMP-style monitoring substrate (§2's measurement apparatus).

- :class:`~repro.telemetry.counters.CounterSnapshot` — one reading of a
  direction's cumulative total/error/drop counters;
- :class:`~repro.telemetry.poller.SnmpPoller` — 15-minute polling loop;
- :class:`~repro.telemetry.store.TelemetryStore` — per-direction series;
- :class:`~repro.telemetry.timeseries.TimeSeries` — the reductions the
  paper's figures use (CV, Pearson, daily sums, CDFs).
"""

from repro.telemetry.counters import CounterSnapshot
from repro.telemetry.poller import POLL_INTERVAL_S, OpticalReading, SnmpPoller
from repro.telemetry.sanitizer import (
    COUNTER_32BIT_MODULUS,
    SampleQuality,
    SanitizedSample,
    SanitizerStats,
    TelemetrySanitizer,
    optical_reading_plausible,
)
from repro.telemetry.store import TelemetryStore
from repro.telemetry.timeseries import TimeSeries, cdf_points, percentile

__all__ = [
    "COUNTER_32BIT_MODULUS",
    "CounterSnapshot",
    "OpticalReading",
    "POLL_INTERVAL_S",
    "SampleQuality",
    "SanitizedSample",
    "SanitizerStats",
    "SnmpPoller",
    "TelemetrySanitizer",
    "TelemetryStore",
    "TimeSeries",
    "cdf_points",
    "optical_reading_plausible",
    "percentile",
]
