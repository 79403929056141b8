"""Bit-exactness of the batched MT19937 streams.

``BatchRandom`` is the subtlest piece of the batch engine: every draw
must consume the exact 32-bit word stream CPython's ``random.Random``
would, and ``getstate`` must round-trip back into a scalar ``Random``
at *any* point, or batched checkpoints stop being interchangeable
with scalar ones.  These tests pin the contract directly against the
stdlib generator, across twist boundaries, rejection-heavy bounds and
mixed per-world consumption rates.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.batch import BatchRandom, state_from_random
from repro.sim.random import rng_state_to_json


def scalar_randbelow(rng, n):
    """CPython's _randbelow_with_getrandbits, spelled out."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


class TestStateFromRandom:
    def test_accepts_plain_state(self):
        rng = random.Random(1)
        assert state_from_random(rng) == rng.getstate()

    def test_rejects_buffered_gauss(self):
        rng = random.Random(1)
        rng.gauss(0, 1)
        if rng.getstate()[2] is None:  # draw until a gauss is buffered
            rng.gauss(0, 1)
        with pytest.raises(ValueError):
            state_from_random(rng)


class TestBatchRandomParity:
    def test_getrandbits32_matches_stdlib(self):
        seeds = [0, 1, 7, 12345]
        scalars = [random.Random(seed) for seed in seeds]
        batch = BatchRandom.from_randoms(
            [random.Random(seed) for seed in seeds])
        idx = np.arange(len(seeds))
        for _ in range(2000):  # crosses several 624-word twists
            words = batch.next_words(idx)
            for world, rng in enumerate(scalars):
                assert int(words[world]) == rng.getrandbits(32)

    def test_randbelow_matches_stdlib(self):
        # 5 forces a ~38% rejection rate; 256 and 2048 are the
        # power-of-two fast paths the campaign actually draws.
        for bound in (5, 9, 256, 1000, 2048):
            scalars = [random.Random(seed) for seed in range(6)]
            batch = BatchRandom.from_randoms(
                [random.Random(seed) for seed in range(6)])
            idx = np.arange(6)
            for _ in range(500):
                values = batch.randbelow(idx, bound)
                for world, rng in enumerate(scalars):
                    assert int(values[world]) == scalar_randbelow(rng, bound)

    def test_randbytes8_matches_stdlib(self):
        scalars = [random.Random(seed) for seed in range(4)]
        batch = BatchRandom.from_randoms(
            [random.Random(seed) for seed in range(4)])
        idx = np.arange(4)
        lengths_cycle = [0, 1, 3, 4, 5, 8]
        for step in range(300):
            length = lengths_cycle[step % len(lengths_cycle)]
            rows = batch.randbytes8(idx, np.full(4, length))
            for world, rng in enumerate(scalars):
                assert bytes(rows[world][:length]) == rng.randbytes(length)

    def test_uneven_consumption_keeps_worlds_independent(self):
        # World 0 draws 10x as often as world 1; each must still track
        # its own scalar twin exactly.
        scalars = [random.Random(3), random.Random(4)]
        batch = BatchRandom.from_randoms(
            [random.Random(3), random.Random(4)])
        only0 = np.array([0])
        both = np.arange(2)
        for round_no in range(200):
            for _ in range(9):
                assert (int(batch.next_words(only0)[0])
                        == scalars[0].getrandbits(32))
            words = batch.next_words(both)
            for world, rng in enumerate(scalars):
                assert int(words[world]) == rng.getrandbits(32)

    def test_transplant_mid_stream(self):
        # A Random that has already consumed part of its word block
        # (pos != 624) must continue, not restart.
        rng = random.Random(99)
        rng.getrandbits(32 * 100)
        twin = random.Random(99)
        twin.getrandbits(32 * 100)
        batch = BatchRandom.from_randoms([rng])
        idx = np.array([0])
        for _ in range(1000):
            assert int(batch.next_words(idx)[0]) == twin.getrandbits(32)


class TestGetstateRoundtrip:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           draws=st.integers(min_value=0, max_value=1500))
    def test_exported_state_continues_scalar_stream(self, seed, draws):
        batch = BatchRandom.from_randoms([random.Random(seed)])
        reference = random.Random(seed)
        idx = np.array([0])
        for _ in range(draws):
            batch.next_words(idx)
            reference.getrandbits(32)
        resumed = random.Random()
        resumed.setstate(batch.getstate(0))
        assert resumed.getrandbits(32 * 50) == reference.getrandbits(32 * 50)

    def test_roundtrip_after_mixed_draw_kinds(self):
        batch = BatchRandom.from_randoms([random.Random(5)])
        reference = random.Random(5)
        idx = np.array([0])
        for _ in range(100):
            batch.randbelow(idx, 5)
            scalar_randbelow(reference, 5)
            batch.randbytes8(idx, np.array([8]))
            reference.randbytes(8)
        assert batch.getstate(0) == reference.getstate()


class TestPeekCommit:
    def test_peek_reads_ahead_without_consuming(self):
        batch = BatchRandom.from_randoms([random.Random(8)])
        reference = random.Random(8)
        first = batch.peek(0, 2000)  # crosses three twists
        assert batch.peek(0, 2000).tolist() == first.tolist()
        assert batch.getstate(0) == reference.getstate()
        assert first.tolist() == [reference.getrandbits(32)
                                  for _ in range(2000)]

    def test_commit_ending_on_a_twist(self):
        # CPython reports (key, 624) until the next draw twists, so a
        # commit that ends exactly on a block boundary must too.
        for skip in (0, 100):
            rng = random.Random(4)
            for _ in range(skip):
                rng.getrandbits(32)
            reference = random.Random()
            reference.setstate(rng.getstate())
            batch = BatchRandom.from_randoms([rng])
            for used in (624 - skip, 624, 1248):
                batch.peek(0, used + 5)
                batch.commit(0, used)
                for _ in range(used):
                    reference.getrandbits(32)
                assert reference.getstate()[1][-1] == 624
                assert batch.getstate(0) == reference.getstate()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           skip=st.integers(min_value=0, max_value=700),
           moves=st.lists(st.tuples(st.integers(min_value=0,
                                                max_value=2000),
                                    st.floats(min_value=0, max_value=1)),
                          min_size=1, max_size=12))
    def test_getstate_exact_at_every_commit(self, seed, skip, moves):
        # A mid-block transplant (skip words already drawn), then
        # peeks of any size and commits of any prefix, must leave the
        # state CPython reaches after drawing the same words.
        rng = random.Random(seed)
        if skip:
            rng.getrandbits(32 * skip)
        reference = random.Random()
        reference.setstate(rng.getstate())
        batch = BatchRandom.from_randoms([rng])
        idx = np.array([0])
        for count, share in moves:
            words = batch.peek(0, count).tolist()
            used = round(count * share)
            assert words[:used] == [reference.getrandbits(32)
                                    for _ in range(used)]
            batch.commit(0, used)
            assert batch.getstate(0) == reference.getstate()
            # A checkpoint's form of it, packed from the key words.
            assert batch.state_json(0) == rng_state_to_json(
                reference.getstate())
            # The vectorised draws continue from the committed word.
            assert int(batch.next_words(idx)[0]) == reference.getrandbits(32)
