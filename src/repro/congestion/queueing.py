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

import numpy as np

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


def congestion_loss_rows(
    utilization: np.ndarray, buffer_k: np.ndarray, headroom: float = 0.92
) -> np.ndarray:
    """:func:`congestion_loss_rate` of every row, bit for bit.

    ``utilization`` lies in [0, 1] and ``buffer_k`` holds the queue depth
    (at least 1) of each row.  The powers go through Python's float ``**``
    one by one (``np.power`` may differ from libm's ``pow`` in the last
    bit); the rest is array arithmetic in the scalar form's order.
    """
    rho = utilization / headroom
    over = rho > 1.0
    # rho^-(K+1) where the queue is overloaded, rho^(K+1) where it is not.
    exponent = np.where(over, -(buffer_k + 1), buffer_k + 1)
    bases = rho.tolist()
    to_k = np.array([b**k for b, k in zip(bases, buffer_k.tolist())])
    to_next = np.array([b**e for b, e in zip(bases, exponent.tolist())])
    # Each row computes both branches; the one it does not take may
    # divide by zero or overflow.
    with np.errstate(all="ignore"):
        loss = np.where(
            over,
            np.minimum(1.0, (rho - 1.0) / (rho * (1.0 - to_next))),
            np.clip((1.0 - rho) * to_k / (1.0 - to_next), 0.0, 1.0),
        )
    loss = np.where(np.abs(rho - 1.0) < 1e-12, 1.0 / (buffer_k + 1), loss)
    return np.where(rho == 0.0, 0.0, loss)
