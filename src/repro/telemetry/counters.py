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
