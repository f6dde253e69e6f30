"""Transceiver signal decoding.

§4's root causes act through the transceivers at the two ends of a link:
lasers decay (root cause 3), modules can be bad or loosely seated (root
cause 4), and contamination/bends reduce the receive power the far module
must decode (root causes 1–2).  This model converts received power into a
corruption probability via a stylized decoder margin curve, which gives the
fault models a physically-motivated knob.
"""

from __future__ import annotations

import math

from repro.optics.power import TransceiverTech


def decode_corruption_rate(
    rx_power_dbm: float,
    tech: TransceiverTech,
    defective_receiver: bool = False,
    loose_seating: bool = False,
) -> float:
    """Corruption loss rate as a function of received optical power.

    Below the sensitivity threshold, the decoder's bit-error rate rises
    steeply; we model the packet corruption rate as a logistic ramp in the
    *margin* (dB above threshold):

    - margin >= 3 dB: effectively error-free (1e-12 floor);
    - margin around 0: rates in the 1e-8 .. 1e-4 band;
    - margin <= -3 dB: catastrophic (approaching 1e-1).

    Defective or loosely seated modules corrupt at a high rate regardless of
    power (§4, root cause 4: "optical TxPower and RxPower on both sides of
    the link are most likely high, but the link still corrupts packets").
    """
    if defective_receiver:
        return 1e-3
    if loose_seating:
        return 3e-4
    margin_db = rx_power_dbm - tech.thresholds.rx_min_dbm
    # Logistic ramp across ~6 dB centered slightly below threshold.
    midpoint, steepness = -1.0, 1.6
    level = 1.0 / (1.0 + math.exp(steepness * (margin_db - midpoint)))
    rate = 1e-12 + 10 ** (-12 + 10.5 * level)
    return min(rate, 0.3)


def required_margin_for_rate(rate: float) -> float:
    """Invert :func:`decode_corruption_rate`: margin (dB) yielding ``rate``.

    Fault models use this to choose an optical loss consistent with a target
    corruption rate, so generated power levels and loss rates always agree
    with the decoder curve.

    Args:
        rate: Target corruption loss rate, in (1e-12, 0.3).

    Returns:
        The Rx margin above the sensitivity threshold, in dB (negative when
        the power must fall below the threshold).
    """
    floor = 1e-12
    rate = min(max(rate, 2e-12), 0.29)
    level = (math.log10(rate - floor) + 12.0) / 10.5
    level = min(max(level, 1e-9), 1 - 1e-9)
    midpoint, steepness = -1.0, 1.6
    return midpoint + math.log(1.0 / level - 1.0) / steepness
