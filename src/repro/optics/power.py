"""Optical power arithmetic and thresholds.

Transceivers report transmit power (TxPower) and receive power (RxPower) in
dBm.  §4 classifies root causes by whether each side's power is High or Low
relative to technology-specific thresholds ("determined by the transceiver
technology and loss budget of links"); §5.2 uses ``PowerThreshRx`` and
``PowerThreshTx`` in Algorithm 1.
"""

from __future__ import annotations

from dataclasses import dataclass


def attenuate(dbm: float, loss_db: float) -> float:
    """Apply ``loss_db`` of attenuation to a dBm power level."""
    return dbm - loss_db


@dataclass(frozen=True)
class PowerThresholds:
    """Acceptable minimum Tx/Rx power for one transceiver technology.

    Attributes:
        rx_min_dbm: ``PowerThreshRx`` — receive power below this is "Low".
        tx_min_dbm: ``PowerThreshTx`` — transmit power below this is "Low".
    """

    rx_min_dbm: float
    tx_min_dbm: float

    def rx_is_low(self, rx_dbm: float) -> bool:
        return rx_dbm < self.rx_min_dbm


@dataclass(frozen=True)
class TransceiverTech:
    """An optical transceiver technology and its link budget.

    Attributes:
        name: Technology label (e.g. ``"40G-LR4"``).
        nominal_tx_dbm: Healthy laser launch power.
        fiber_loss_db: Typical end-to-end loss on a healthy link.
        thresholds: Minimum acceptable power levels.
    """

    name: str
    nominal_tx_dbm: float
    fiber_loss_db: float
    thresholds: PowerThresholds

    def healthy_rx_dbm(self) -> float:
        """Expected RxPower on a healthy link."""
        return attenuate(self.nominal_tx_dbm, self.fiber_loss_db)


#: Representative technologies used by the fault and telemetry models.  The
#: numbers follow common SR/LR datasheets; what matters to the algorithms is
#: only High/Low relative to the thresholds.
TECH_10G_SR = TransceiverTech(
    name="10G-SR",
    nominal_tx_dbm=-2.0,
    fiber_loss_db=2.0,
    thresholds=PowerThresholds(rx_min_dbm=-9.9, tx_min_dbm=-7.3),
)

TECH_40G_LR4 = TransceiverTech(
    name="40G-LR4",
    nominal_tx_dbm=1.0,
    fiber_loss_db=4.0,
    thresholds=PowerThresholds(rx_min_dbm=-13.6, tx_min_dbm=-7.0),
)

TECH_100G_CWDM4 = TransceiverTech(
    name="100G-CWDM4",
    nominal_tx_dbm=0.0,
    fiber_loss_db=5.0,
    thresholds=PowerThresholds(rx_min_dbm=-10.0, tx_min_dbm=-6.5),
)

TECHNOLOGIES = {
    tech.name: tech for tech in (TECH_10G_SR, TECH_40G_LR4, TECH_100G_CWDM4)
}

#: The deployed recommendation engine (§7.2) "uses a single RxPower
#: threshold rather than customizing it to the links' optical technology".
DEPLOYED_SINGLE_RX_THRESHOLD_DBM = -11.0
DEPLOYED_SINGLE_TX_THRESHOLD_DBM = -7.0
