"""SNMP-style per-direction link counters.

§2: "For each link, we use SNMP to query its packet drop, packet error, and
total packet counts, as well as its optical power levels every 15 minutes."
We keep the same three counters per link *direction*:

- ``total``  — packets transmitted onto the direction;
- ``errors`` — packets dropped because the CRC failed (corruption);
- ``drops``  — packets dropped at the egress queue (congestion).

Counters are cumulative and monotonically non-decreasing, like real SNMP
interface counters; loss *rates* come from differencing successive polls.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CounterSnapshot:
    """A point-in-time reading of one direction's counters."""

    time_s: float
    total: int
    errors: int
    drops: int

    def corruption_rate_since(self, earlier: "CounterSnapshot") -> float:
        """Corruption loss rate over the interval since ``earlier``.

        Clamped to [0, 1]: a later snapshot with *smaller* counters (switch
        reboot reset, 32-bit wrap) would otherwise yield negative or >1
        rates.  Callers that need to distinguish wrap from reset should use
        :class:`~repro.telemetry.sanitizer.TelemetrySanitizer` instead of
        raw differencing.
        """
        sent = self.total - earlier.total
        if sent <= 0:
            return 0.0
        return min(1.0, max(0.0, (self.errors - earlier.errors) / sent))

    def congestion_rate_since(self, earlier: "CounterSnapshot") -> float:
        """Congestion loss rate over the interval since ``earlier``.

        Clamped to [0, 1] for the same reset/wrap reasons as
        :meth:`corruption_rate_since`.
        """
        sent = self.total - earlier.total
        if sent <= 0:
            return 0.0
        return min(1.0, max(0.0, (self.drops - earlier.drops) / sent))
