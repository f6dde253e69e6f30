"""Telemetry fault-model tests: per-fault behavior, composition, seeding.

Each per-fault case runs on the reference fault
(:mod:`tests.telemetry.reference`) and on a :class:`FaultyTransport`
configured with that fault alone, which must deliver the same.
"""

import math
import random
from dataclasses import replace

import pytest

from repro.faults import FaultyTransport, TelemetryFaultConfig
from repro.telemetry import COUNTER_32BIT_MODULUS, CounterSnapshot, OpticalReading
from tests.telemetry.reference import (
    CounterResetFault,
    CounterWrapFault,
    DelayedSampleFault,
    DuplicateSampleFault,
    FrozenCounterFault,
    MissedPollFault,
)
from tests.telemetry.toy import toy_topology

DID = ("sw-a", "sw-b")
TOPO = toy_topology(DID)


def snap(t, total, errors=0, drops=0):
    return CounterSnapshot(time_s=t, total=total, errors=errors, drops=drops)


def through(fault, transport, sample):
    """What the reference fault delivers for ``sample``; the transport
    must deliver the same.  (Rates here are 0 or 1, so the draws'
    values do not matter.)"""
    want = fault.apply(random.Random(0), DID, [sample])
    assert transport.deliver(DID, sample) == want
    return want


def alone(**rates):
    return FaultyTransport(TOPO, TelemetryFaultConfig(**rates))


def set_rate(transport, **rates):
    transport.config = replace(transport.config, **rates)


class TestConfig:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            TelemetryFaultConfig(missed_poll_rate=1.5)
        with pytest.raises(ValueError):
            TelemetryFaultConfig(reset_rate=-0.1)
        with pytest.raises(ValueError):
            TelemetryFaultConfig(freeze_duration_polls=0)


class TestIndividualFaults:
    def test_wrap_applies_modulus(self):
        m = COUNTER_32BIT_MODULUS
        fault, transport = CounterWrapFault(), alone(wrap_32bit=True)
        [out] = through(fault, transport, snap(900, m + 5, m + 1))
        assert out.total == 5 and out.errors == 1

    def test_reset_rebases_persistently(self):
        # Trips on the first sample.
        fault, transport = CounterResetFault(rate=1.0), alone(reset_rate=1.0)
        [first] = through(fault, transport, snap(900, 1000, 50))
        assert first.total == 0 and first.errors == 0
        fault.rate = 0.0  # no further reboots
        set_rate(transport, reset_rate=0.0)
        [second] = through(fault, transport, snap(1800, 1500, 80))
        assert second.total == 500 and second.errors == 30

    def test_freeze_repeats_stale_values(self):
        fault = FrozenCounterFault(rate=1.0, duration_polls=3)
        transport = alone(freeze_rate=1.0, freeze_duration_polls=3)
        [a] = through(fault, transport, snap(900, 100))
        assert a.total == 100  # freeze starts: first sample passes through
        [b] = through(fault, transport, snap(1800, 200))
        [c] = through(fault, transport, snap(2700, 300))
        assert b.total == 100 and c.total == 100  # stale values...
        assert b.time_s == 1800 and c.time_s == 2700  # ...fresh timestamps

    def test_missed_poll_drops_everything(self):
        fault, transport = MissedPollFault(rate=1.0), alone(missed_poll_rate=1.0)
        assert through(fault, transport, snap(900, 1)) == []
        assert transport.polls_missed == 1

    def test_duplicate_doubles_sample(self):
        fault = DuplicateSampleFault(rate=1.0)
        out = through(fault, alone(duplicate_rate=1.0), snap(900, 1))
        assert len(out) == 2 and out[0] == out[1]

    def test_delay_reorders_across_polls(self):
        fault, transport = DelayedSampleFault(rate=1.0), alone(delay_rate=1.0)
        assert through(fault, transport, snap(900, 100)) == []  # held
        fault.rate = 0.0
        set_rate(transport, delay_rate=0.0)
        out = through(fault, transport, snap(1800, 200))
        assert [s.time_s for s in out] == [1800, 900]  # stale arrives last

    @pytest.mark.parametrize(
        "counters",
        [(-1, 0, 0), (2**53, 0, 0), (0, 2**60, 0), (0, 0, 1.5), (0, 10**400, 0)],
    )
    def test_deliver_refuses_counters_outside_the_columns(self, counters):
        transport = alone(reset_rate=0.5)
        with pytest.raises(ValueError, match="outside"):
            transport.deliver(DID, snap(900, *counters))
        assert transport.polls_delivered == transport.polls_missed == 0


class TestTransport:
    def test_zero_config_is_identity_without_rng(self):
        """All-zero rates install no faults and draw no random numbers, so
        chaos runs with a zero config are bit-identical to fault-free runs."""
        transport = FaultyTransport(TOPO, TelemetryFaultConfig(seed=123))
        state_before = transport._rng.getstate()
        s = snap(900, 42, 7, 3)
        assert transport.deliver(DID, s) == [s]
        reading = OpticalReading(900.0, -2.0, -3.0, -2.5, -3.5)
        assert transport.deliver_optical(("sw-a", "sw-b"), reading) == reading
        assert transport._rng.getstate() == state_before

    def test_same_seed_same_stream(self):
        config = TelemetryFaultConfig(
            seed=9, missed_poll_rate=0.3, duplicate_rate=0.3, reset_rate=0.05
        )
        outs = []
        for _ in range(2):
            transport = FaultyTransport(
                TOPO, TelemetryFaultConfig(**vars(config))
            )
            run = []
            for i in range(200):
                run.append(transport.deliver(DID, snap(900 * (i + 1), i * 1000)))
            outs.append(run)
        assert outs[0] == outs[1]

    def test_different_seed_different_stream(self):
        def stream(seed):
            transport = FaultyTransport(
                TOPO, TelemetryFaultConfig(seed=seed, missed_poll_rate=0.5)
            )
            return [
                len(transport.deliver(DID, snap(900 * (i + 1), i)))
                for i in range(100)
            ]

        assert stream(1) != stream(2)

    def test_composition_counts_delivery(self):
        transport = FaultyTransport(
            TOPO,
            TelemetryFaultConfig(seed=4, missed_poll_rate=0.4, duplicate_rate=0.4),
        )
        total = 0
        for i in range(300):
            total += len(transport.deliver(DID, snap(900 * (i + 1), i)))
        assert transport.polls_missed > 0
        assert transport.polls_delivered == total > 300 * 0.4  # dups offset misses

    def test_optical_garbage(self):
        transport = FaultyTransport(
            TOPO, TelemetryFaultConfig(seed=0, optical_garbage_rate=1.0)
        )
        clean = OpticalReading(0.0, -2.0, -3.0, -2.5, -3.5)
        out = transport.deliver_optical(("a", "b"), clean)
        fields = [out.tx_lower_dbm, out.rx_lower_dbm, out.tx_upper_dbm, out.rx_upper_dbm]
        assert any(math.isnan(v) or v > 10 or v < -40 for v in fields)
