"""Diurnal traffic / utilization model.

Congestion losses track offered load (§3, Figure 3a: "congestion loss rate
has a positive correlation with the outgoing traffic rate"), so the
congestion substrate needs a realistic utilization process: a diurnal
sinusoid plus autocorrelated noise and occasional bursts.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

DAY_S = 86_400.0


def elementwise(function: Callable[..., float], *arrays) -> np.ndarray:
    """``function`` of the elements of float64 ``arrays``, one call each,
    fed from memoryviews: the form a ``math`` transcendental needs (numpy's
    are not bit-identical to libm on every host)."""
    views = [memoryview(np.ascontiguousarray(a).ravel()) for a in arrays]
    size, shape = arrays[0].size, arrays[0].shape
    return np.fromiter(map(function, *views), np.float64, size).reshape(shape)


def gauss_pairs(
    u1: np.ndarray, u2: np.ndarray, sigma: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two ``random.gauss(0.0, sigma)`` calls that start on a pair and draw
    the uniforms ``u1``, ``u2``, bit for bit: what the first returns, what
    the second returns, and the variate cached between them (``gauss_next``).
    ``np.sqrt`` is correctly rounded, as libm's is."""
    x = u1 * (2.0 * math.pi)  # random.TWOPI
    g = np.sqrt(-2.0 * elementwise(math.log, 1.0 - u2))
    cached = elementwise(math.sin, x) * g
    first = elementwise(math.cos, x) * g
    return 0.0 + first * sigma, 0.0 + cached * sigma, cached


@dataclass
class TrafficProfile:
    """Utilization process of one link direction: the row template
    :class:`~repro.congestion.losses.CongestionModel` fills in.

    The constructor does not set ``_rng``; the owner of the row supplies
    the row's noise stream before :meth:`utilization` draws from it.

    ``u(t) = clip(mean + amplitude * sin(2π (t - phase)/day) + AR(1) noise)``
    with multiplicative bursts.

    Attributes:
        mean: Baseline utilization.
        amplitude: Diurnal swing.
        phase_s: Diurnal phase offset.
        noise_sigma: AR(1) innovation standard deviation.
        noise_rho: AR(1) autocorrelation.
        burst_probability: Chance per sample of a short overload burst.
        burst_boost: Additive utilization during a burst.
        seed: RNG seed for this profile's noise.
    """

    mean: float = 0.4
    amplitude: float = 0.2
    phase_s: float = 0.0
    noise_sigma: float = 0.05
    noise_rho: float = 0.8
    burst_probability: float = 0.02
    burst_boost: float = 0.35
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False, compare=False)
    _noise_state: float = field(init=False, default=0.0, repr=False)
    #: Utilization draws so far: the position in ``_rng``'s stream.
    _samples: int = field(init=False, default=0, repr=False)

    def utilization(self, time_s: float) -> float:
        """Draw the utilization at ``time_s`` (advances the noise state)."""
        diurnal = self.amplitude * math.sin(
            2.0 * math.pi * (time_s - self.phase_s) / DAY_S
        )
        self._noise_state = (
            self.noise_rho * self._noise_state
            + self._rng.gauss(0.0, self.noise_sigma)
        )
        u = self.mean + diurnal + self._noise_state
        if self._rng.random() < self.burst_probability:
            u += self.burst_boost
        self._samples += 1
        return min(1.0, max(0.0, u))


def profile_parameters(
    rng: random.Random,
    hot: bool = False,
    seed: Optional[int] = None,
) -> Tuple[float, float, float, float, float, float, float, int]:
    """Draw a per-direction traffic profile's parameters, in
    :class:`TrafficProfile`'s field order (``mean`` … ``seed``).

    Args:
        rng: Source of profile parameters.
        hot: Hotspot links run near capacity (they produce the congestion
            losses and their strong spatial locality).
        seed: Seed for the profile's own noise stream (defaults to a draw
            from ``rng`` so datasets are fully reproducible).
    """
    if seed is None:
        seed = rng.randrange(2**31)
    if hot:
        # Calibrated against Table 1's congestion column: hot links mostly
        # peak around 0.8-0.9 utilization, where the M/M/1/K curve yields
        # weekly mean loss in the 1e-8..1e-5 bucket, with rare saturation
        # bursts supplying the small high-rate tail.
        return (
            rng.uniform(0.5, 0.68), rng.uniform(0.08, 0.16),
            rng.uniform(0, DAY_S), 0.04, 0.8,
            rng.uniform(0.01, 0.05), rng.uniform(0.12, 0.25), seed,
        )
    return (
        rng.uniform(0.15, 0.45), rng.uniform(0.05, 0.2),
        rng.uniform(0, DAY_S), 0.04, 0.8, 0.005, 0.2, seed,
    )
