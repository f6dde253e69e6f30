"""Queue-loss model: utilization → congestion loss rate.

We use the M/M/1/K blocking probability as the stylized egress-queue model:

    P_loss(ρ, K) = (1 - ρ) ρ^K / (1 - ρ^(K+1))      (ρ ≠ 1)
    P_loss(1, K) = 1 / (K + 1)

which yields the qualitative behaviour the paper reports: vanishing loss at
low utilization, steep growth as ρ → 1, and orders-of-magnitude lower loss
for deep-buffer switches (§3: stages with deep buffers see far fewer
congestion losses).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from repro.congestion.traffic import elementwise

SHALLOW_BUFFER_K = 120
DEEP_BUFFER_K = 1200


def mm1k_loss(rho: float, buffer_k: int) -> float:
    """Blocking probability of an M/M/1/K queue at load ``rho``.

    Args:
        rho: Offered load (utilization), >= 0.  Loads above 1 are legal
            (overload) and lose approximately ``1 - 1/rho``.
        buffer_k: Queue capacity in packets.

    Returns:
        Loss probability in [0, 1].
    """
    if rho < 0:
        raise ValueError(f"load must be non-negative, got {rho}")
    if buffer_k < 1:
        raise ValueError("buffer must hold at least one packet")
    if rho == 0.0:
        return 0.0
    if abs(rho - 1.0) < 1e-12:
        return 1.0 / (buffer_k + 1)
    if rho > 1.0:
        # Rearranged with rho^-(k+1) to avoid overflow for large K:
        # loss = (rho - 1) / (rho * (1 - rho^-(k+1))).
        inv = rho ** -(buffer_k + 1)
        return min(1.0, (rho - 1.0) / (rho * (1.0 - inv)))
    num = (1.0 - rho) * rho**buffer_k
    den = 1.0 - rho ** (buffer_k + 1)
    return min(1.0, max(0.0, num / den))


def congestion_loss_rate(
    utilization: float,
    deep_buffer: bool = False,
    headroom: float = 0.92,
) -> float:
    """Congestion loss rate for a measured average utilization.

    Average utilization understates instantaneous load (traffic is bursty),
    so the queue sees an effective load of ``utilization / headroom``.

    Args:
        utilization: Interval-average utilization in [0, 1].
        deep_buffer: Use the deep-buffer queue depth.
        headroom: Burstiness factor; lower = burstier.
    """
    if not 0.0 <= utilization <= 1.0:
        raise ValueError(f"utilization {utilization} outside [0, 1]")
    buffer_k = DEEP_BUFFER_K if deep_buffer else SHALLOW_BUFFER_K
    return mm1k_loss(utilization / headroom, buffer_k)


@lru_cache(maxsize=None)
def one_power_cutoff(buffer_k: int) -> float:
    """The largest load ``ρ`` whose ``ρ^(K+1)``, by libm's ``pow``, is at
    most 2⁻⁵⁴: there and below, ``1 - ρ^(K+1)`` rounds to 1.0, so an
    under-loaded queue's loss is ``(1 - ρ) ρ^K`` exactly and the second
    power need not be taken."""
    exponent, floor = buffer_k + 1, 2.0**-54
    cutoff = floor ** (1.0 / exponent)
    while math.pow(cutoff, exponent) > floor:
        cutoff = math.nextafter(cutoff, 0.0)
    while math.pow(math.nextafter(cutoff, 1.0), exponent) <= floor:
        cutoff = math.nextafter(cutoff, 1.0)
    return cutoff


def congestion_loss_rows(
    utilization: np.ndarray, buffer_k: np.ndarray, headroom: float = 0.92
) -> np.ndarray:
    """:func:`congestion_loss_rate` of every row, bit for bit.

    ``utilization`` lies in [0, 1] and ``buffer_k`` holds the queue depth
    (at least 1) of each row.  The powers go through libm's ``pow`` one by
    one, as the scalar form's float ``**`` does (``np.power`` may differ in
    the last bit), and a row takes one where the scalar form takes two and
    the second cannot change the result (overload needs no ``ρ^K``; below
    :func:`one_power_cutoff`, ``1 - ρ^(K+1)`` is 1.0); the rest is array
    arithmetic in the scalar form's order.
    """
    rho = utilization / headroom
    over = rho > 1.0
    # rho^-(K+1) where the queue is overloaded, rho^K where it is not ...
    exponent = np.where(over, -(buffer_k + 1.0), buffer_k)
    power = elementwise(math.pow, rho, exponent)
    # ... and rho^(K+1) where it is not and that can move 1 - rho^(K+1).
    cutoff = np.zeros(int(buffer_k.max(initial=0)) + 1)
    for depth in np.flatnonzero(np.bincount(buffer_k)).tolist():
        cutoff[depth] = one_power_cutoff(depth)
    second = ~over & (rho > cutoff[buffer_k])
    to_next = np.zeros(len(rho))
    to_next[second] = elementwise(math.pow, rho[second], buffer_k[second] + 1.0)
    # Each row computes both branches; the one it does not take may
    # divide by zero or overflow.
    with np.errstate(all="ignore"):
        loss = np.where(
            over,
            np.minimum(1.0, (rho - 1.0) / (rho * (1.0 - power))),
            np.clip((1.0 - rho) * power / (1.0 - to_next), 0.0, 1.0),
        )
    loss = np.where(np.abs(rho - 1.0) < 1e-12, 1.0 / (buffer_k + 1), loss)
    return np.where(rho == 0.0, 0.0, loss)
