"""Block reads of ``random.Random`` streams, bit for bit: the draws, and
the stream's position after them, are those of one ``random()`` call at a
time.  The congestion co-model reads one stream per direction, the
telemetry fault transport one :class:`ReadAhead`.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

import numpy as np


def random_doubles(streams: Sequence[random.Random], count: int) -> np.ndarray:
    """The next ``count`` ``random()`` draws of every stream as
    ``[len(streams), count]`` float64, one ``getrandbits`` call per stream:
    ``getrandbits(32 * w)`` consumes exactly ``w`` outputs, lowest word
    first, and ``random()`` is ``((a >> 5) * 2**26 + (b >> 6)) / 2**53`` of
    two consecutive outputs, so the doubles and the streams' end states are
    those of ``count`` calls each."""
    bits = 64 * count
    blob = b"".join([
        stream.getrandbits(bits).to_bytes(bits // 8, "little")
        for stream in streams
    ])
    words = np.frombuffer(blob, "<u4").reshape(len(streams), count, 2)
    doubles = (words[..., 0] >> 5) * 67108864.0
    doubles += words[..., 1] >> 6
    doubles *= 1.0 / 9007199254740992.0
    return doubles


def fast_forward(
    rng: random.Random, samples: int, gauss_next: Optional[float]
) -> None:
    """Move a freshly seeded ``rng`` to where it stands after ``samples``
    utilization draws (one ``gauss``, then one ``random``, each).

    ``gauss`` draws two ``random()`` on every other call and caches the
    second variate (``gauss_next``, saved by the caller); ``random()`` takes
    two 32-bit MT outputs; ``getrandbits(32 * w)`` consumes exactly ``w``.
    """
    if (gauss_next is not None) != bool(samples % 2):
        raise ValueError(
            f"cached Gaussian {gauss_next!r} after {samples} draws: not a "
            "position in a utilization stream"
        )
    words = 4 * ((samples + 1) // 2) + 2 * samples
    if words:
        rng.getrandbits(32 * words)
    rng.gauss_next = gauss_next


def mt19937(state: tuple) -> np.random.MT19937:
    """numpy's MT19937 at ``random.Random.getstate()`` ``state``: the same
    words and index, so the same outputs, and ``Generator.random()`` makes
    ``random()``'s doubles of them."""
    bits, words = np.random.MT19937(0), state[1]
    key = np.array(words[:-1], np.uint32)
    bits.state = {"bit_generator": "MT19937",
                  "state": {"key": key, "pos": words[-1]}}
    return bits


class ReadAhead:
    """The ``random()`` draws of a ``random.Random`` (which it never
    moves), read ahead in blocks from numpy's MT19937.  ``take(n)`` shows
    the next ``n`` draws, refilling the block to ``2 * n`` when short;
    ``consume(m)`` moves past ``m``; :meth:`getstate` is the stream's state
    after the draws consumed."""

    def __init__(self, rng: random.Random):
        state = rng.getstate()
        self._gauss_next = state[2]
        self._source = np.random.Generator(mt19937(state))
        # Where each refill began: (draws before it, MT19937 state).
        self._marks = [(0, self._source.bit_generator.state)]
        self._doubles = np.empty(0)
        self._first = self._used = 0  # draws before the block, consumed

    def take(self, count: int) -> np.ndarray:
        at = self._used - self._first
        if len(self._doubles) - at < count:
            end = self._first + len(self._doubles)
            while len(self._marks) > 1 and self._marks[1][0] <= self._used:
                del self._marks[0]
            self._marks.append((end, self._source.bit_generator.state))
            more = self._source.random(2 * count - (end - self._used))
            self._doubles = np.concatenate((self._doubles[at:], more))
            self._first, at = self._used, 0
        return self._doubles[at:at + count]

    def consume(self, count: int) -> None:
        self._used += count

    def getstate(self) -> tuple:
        # The last refill mark at or before the draws consumed, moved two
        # words a draw: O(block), and nothing here moves.
        drawn, state = [m for m in self._marks if m[0] <= self._used][-1]
        bits = np.random.MT19937(0)
        bits.state = state
        bits.random_raw(2 * (self._used - drawn), output=False)
        state = bits.state["state"]
        words = (*state["key"].tolist(), state["pos"])
        return random.Random.VERSION, words, self._gauss_next
