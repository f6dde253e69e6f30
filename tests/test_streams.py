"""numpy's MT19937 against ``random.Random``, and the read-ahead over it.

The fault transport reads its ``random()`` draws from numpy's MT19937
loaded with the ``random.Random`` state, so every golden rests on the two
generators agreeing to the bit.  numpy is not pinned: if an upgrade ever
changes MT19937's state layout or its double, these tests fail before any
golden moves.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.streams import ReadAhead, mt19937

SEEDS = [0, 1, 2**31, 2**64 + 3]

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def at_odd_word(seed):
    """A stream a few ``choice`` calls in, at an odd word index
    (``_randbelow`` takes one 32-bit word a try): every later double
    straddles two of the word pairs a fresh stream's doubles use."""
    rng = random.Random(seed)
    rng.choice("abc")
    while rng.getstate()[1][-1] % 2 == 0:
        rng.choice("abc")
    return rng


def twins(seed, odd):
    rng = at_odd_word(seed) if odd else random.Random(seed)
    twin = random.Random()
    twin.setstate(rng.getstate())
    return rng, twin


class TestNumpyMatchesRandom:
    @pytest.mark.parametrize("odd", [False, True])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_doubles_equal_random_calls(self, seed, odd):
        rng, twin = twins(seed, odd)
        # Past the first regeneration of the 624-word state, twice.
        got = np.random.Generator(mt19937(rng.getstate())).random(1500)
        want = [twin.random() for _ in range(1500)]
        assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]

    @pytest.mark.parametrize("odd", [False, True])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_words_equal_getrandbits(self, seed, odd):
        rng, twin = twins(seed, odd)
        got = mt19937(rng.getstate()).random_raw(700)
        assert got.tolist() == [twin.getrandbits(32) for _ in range(700)]

    @pytest.mark.parametrize("draws", [0, 1, 311, 312, 313, 1000])
    @pytest.mark.parametrize("odd", [False, True])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_state_round_trips_with_gauss_next(self, seed, odd, draws):
        rng, twin = twins(seed, odd)
        rng.gauss(0.0, 1.0)
        twin.gauss(0.0, 1.0)
        assert rng.gauss_next is not None
        ahead = ReadAhead(rng)
        ahead.take(draws)
        ahead.consume(draws)
        for _ in range(draws):
            twin.random()
        assert ahead.getstate() == twin.getstate()
        # The read-ahead never moves the stream it was loaded from.
        assert rng.getstate() != twin.getstate() or draws == 0
        restored = random.Random()
        restored.setstate(ahead.getstate())
        assert restored.random() == twin.random()
        assert restored.gauss(0.0, 1.0) == twin.gauss(0.0, 1.0)


class TestReadAhead:
    @SETTINGS
    @given(
        seed=st.sampled_from(SEEDS),
        odd=st.booleans(),
        steps=st.lists(
            st.tuples(
                st.integers(0, 700), st.floats(0.0, 1.0), st.booleans()
            ),
            min_size=1,
            max_size=25,
        ),
    )
    def test_takes_and_consumes_follow_random_calls(self, seed, odd, steps):
        """Each step takes ``count`` draws, consumes a share of them and
        maybe reads the state: the draws shown are always the per-call
        stream's next ones, across refills; the state is the per-call
        stream's after the draws consumed; and reading it changes nothing
        that follows."""
        rng, ahead_of = twins(seed, odd)
        logical = random.Random()
        logical.setstate(rng.getstate())
        before = rng.getstate()
        ahead = ReadAhead(rng)
        upcoming = []
        for count, share, look in steps:
            while len(upcoming) < count:
                upcoming.append(ahead_of.random())
            assert ahead.take(count).tolist() == upcoming[:count]
            assert ahead.take(count).tolist() == upcoming[:count]
            used = int(count * share)
            ahead.consume(used)
            del upcoming[:used]
            for _ in range(used):
                logical.random()
            if look:
                assert ahead.getstate() == logical.getstate()
        assert ahead.getstate() == logical.getstate()
        assert rng.getstate() == before

    def test_the_block_holds_at_most_twice_the_largest_take(self):
        ahead = ReadAhead(random.Random(5))
        largest = 0
        for count in (10, 10, 10, 1000, 3, 3, 999, 0, 1):
            largest = max(largest, count)
            ahead.take(count)
            assert len(ahead._doubles) <= 2 * largest
            ahead.consume(count)
