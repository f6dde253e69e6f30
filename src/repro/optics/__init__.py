"""Optical-layer substrate: power math, transceiver technologies, decoding.

§4: "In modern DCNs, all inter-switch links tend to be optical."  The fault
models (:mod:`repro.faults`) and the recommendation engine
(:mod:`repro.core.recommendation`) both speak in terms of the Tx/RxPower
levels this package defines.
"""

from repro.optics.power import (
    DEPLOYED_SINGLE_RX_THRESHOLD_DBM,
    DEPLOYED_SINGLE_TX_THRESHOLD_DBM,
    TECH_10G_SR,
    TECH_40G_LR4,
    TECH_100G_CWDM4,
    TECHNOLOGIES,
    PowerThresholds,
    TransceiverTech,
    attenuate,
)
from repro.optics.transceiver import decode_corruption_rate

__all__ = [
    "DEPLOYED_SINGLE_RX_THRESHOLD_DBM",
    "DEPLOYED_SINGLE_TX_THRESHOLD_DBM",
    "PowerThresholds",
    "TECH_100G_CWDM4",
    "TECH_10G_SR",
    "TECH_40G_LR4",
    "TECHNOLOGIES",
    "TransceiverTech",
    "attenuate",
    "decode_corruption_rate",
]
