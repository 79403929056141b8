"""Vectorised multi-world kernel primitives.

The scalar :class:`~repro.sim.kernel.Simulator` dispatches one Python
closure per event; a fuzz campaign fires two to three events per frame,
which caps throughput near the interpreter's call rate.  This module
holds the random-number primitive that lets independent campaign worlds
skip that dispatch:

- :class:`BatchRandom`: W CPython-``random.Random``-compatible MT19937
  streams stored as struct-of-arrays word buffers.  Draw emulation is
  *bit-exact*: ``randbelow``/``randbytes8`` consume exactly the 32-bit
  words CPython's ``_randbelow``/``randbytes`` would, including
  rejection re-draws, so a world's stream can be exported back into a
  ``random.Random`` at any frame boundary (:meth:`BatchRandom.getstate`)
  and continue scalar bit-identically.  :meth:`BatchRandom.peek` and
  :meth:`BatchRandom.commit` hand one world's upcoming words out as a
  block, so a caller can parse many draws at once and consume exactly
  the words they used.
- :class:`BatchRandomView`: a ``random.Random`` facade over one world's
  stream, for scalar generator code.

Nothing here knows about CAN or campaigns; the analytic campaign model
that drives these streams lives in :mod:`repro.fuzz.batch`.
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

#: MT19937 state size in 32-bit words.
MT_N = 624

#: CPython ``Random.getstate()`` version these streams speak.
PY_STATE_VERSION = 3

#: Buffered words examined per world in one vectorised rejection scan
#: (``randbelow``).  Acceptance is always >= 50% (the shift keeps one
#: bit of headroom at most), so six words leave under 2% of worlds to
#: the scalar straggler path.
_SCAN_WIDTH = 6

_SCAN_OFFSETS = np.arange(_SCAN_WIDTH, dtype=np.int64)

_BYTE_SHIFTS = np.arange(8, dtype=np.uint64) * np.uint64(8)

_ARANGE = np.arange(256)


def _row_index(count: int) -> np.ndarray:
    """Cached ``arange(count)`` view for row-wise fancy indexing."""
    global _ARANGE
    if count > _ARANGE.size:
        _ARANGE = np.arange(count)
    return _ARANGE[:count]


def state_from_random(rng) -> tuple:
    """``rng.getstate()`` validated for transplanting into a batch.

    Raises ``ValueError`` for anything but a plain version-3 MT19937
    state with no buffered gauss value -- the only shape whose future
    draws are a pure function of the 624-word key and position.
    """
    state = rng.getstate()
    version, internal, gauss_next = state
    if version != PY_STATE_VERSION:
        raise ValueError(f"unsupported Random state version {version}")
    if len(internal) != MT_N + 1:
        raise ValueError("malformed MT19937 internal state")
    if gauss_next is not None:
        raise ValueError("Random carries a buffered gauss value; "
                         "its stream is not word-aligned")
    return state


def _raw_words(source: random.Random, count: int) -> np.ndarray:
    """The next ``count`` raw 32-bit outputs of ``source``, in order."""
    return np.frombuffer(source.getrandbits(32 * count).to_bytes(
        4 * count, "little"), dtype="<u4")


def _untemper(words: np.ndarray) -> np.ndarray:
    """The MT19937 state words behind a block of raw outputs.

    Inverts the generator's output tempering (four xor-shift steps,
    each a bijection on 32-bit words), so a block of 624 consecutive
    outputs starting at a twist yields exactly the key CPython's
    ``getstate()`` reports for that block.
    """
    y = words.astype(np.uint32)
    y ^= y >> 18
    y ^= (y << 15) & np.uint32(0xEFC60000)
    x = y
    for _ in range(4):
        x = y ^ ((x << 7) & np.uint32(0x9D2C5680))
    y = x
    for _ in range(2):
        x = y ^ (x >> 11)
    return x


class BatchRandom:
    """W MT19937 streams, bit-exact with ``random.Random``.

    Internally each world holds a private ``random.Random`` copy of
    its stream as the word source (``getrandbits(32 * n)`` packs the
    next ``n`` raw ``genrand_uint32`` words little-endian) plus a
    refill buffer of those words.  Refills are *twist-aligned* (never
    past the end of a 624-word block), so the logical CPython state
    ``(key, pos)`` is reconstructible at any word boundary: ``pos``
    advances through the current key block and a refill that crosses a
    twist swaps in the next block at ``pos 0``.  The key of a whole
    buffered block is its untempered words; only the transplanted
    block, which may start mid-way, keeps the key it arrived with.

    :meth:`peek` draws blocks past the buffer ahead of time and
    :meth:`commit` moves the buffer onto them, so peeked words are
    never drawn twice and never lost.
    """

    def __init__(self, states: Sequence[tuple]) -> None:
        worlds = len(states)
        if worlds == 0:
            raise ValueError("BatchRandom needs at least one world")
        self.worlds = worlds
        self._sources: list[random.Random] = []
        self._keys0 = np.zeros((worlds, MT_N), dtype=np.uint32)
        self._base_pos = np.zeros(worlds, dtype=np.int64)
        # The word source's own block position, tracked here so chunks
        # can end exactly at its twists.
        self._mt_pos = np.zeros(worlds, dtype=np.int64)
        self._buf = np.zeros((worlds, MT_N), dtype=np.uint32)
        self._buf_len = np.zeros(worlds, dtype=np.int64)
        self._buf_pos = np.zeros(worlds, dtype=np.int64)
        #: Per world: twist-aligned chunks drawn by :meth:`peek` that
        #: the buffer has not reached yet, oldest first.
        self._ahead: list[list[np.ndarray]] = [[] for _ in range(worlds)]
        for world, state in enumerate(states):
            version, internal, gauss_next = state
            if (version != PY_STATE_VERSION or len(internal) != MT_N + 1
                    or gauss_next is not None):
                raise ValueError(f"world {world}: not a plain version-3 "
                                 f"MT19937 state")
            pos = int(internal[MT_N])
            source = random.Random()
            source.setstate((version, tuple(internal), None))
            self._sources.append(source)
            self._keys0[world] = internal[:MT_N]
            self._base_pos[world] = pos
            self._mt_pos[world] = pos

    @classmethod
    def from_randoms(cls, rngs: Sequence) -> "BatchRandom":
        """Transplant live ``random.Random`` instances."""
        return cls([state_from_random(rng) for rng in rngs])

    def _draw_chunks(self, world: int, count: int) -> None:
        """Append twist-aligned chunks of at least ``count`` words in
        total to the world's look-ahead list.

        The first chunk ends at the source's next twist (it is partial
        only for a transplanted mid-block state); the rest are whole
        624-word blocks drawn in one call.
        """
        source = self._sources[world]
        ahead = self._ahead[world]
        pos = int(self._mt_pos[world])
        if pos < MT_N:
            ahead.append(_raw_words(source, MT_N - pos))
            count -= MT_N - pos
        if count > 0:
            blocks = -(-count // MT_N)
            ahead.extend(_raw_words(source, blocks * MT_N)
                         .reshape(blocks, MT_N))
        self._mt_pos[world] = MT_N

    def _refill(self, world: int) -> None:
        """Load the next twist-aligned chunk into the world's buffer."""
        ahead = self._ahead[world]
        if not ahead:
            self._draw_chunks(world, 1)
        chunk = ahead.pop(0)
        count = chunk.size
        self._buf[world, :count] = chunk
        self._base_pos[world] = MT_N - count
        self._buf_len[world] = count
        self._buf_pos[world] = 0

    def _draw_one(self, world: int) -> int:
        """One raw word for one world (scalar path for rare cases)."""
        pos = self._buf_pos[world]
        if pos >= self._buf_len[world]:
            self._refill(world)
            pos = 0
        self._buf_pos[world] = pos + 1
        return int(self._buf[world, pos])

    def peek(self, world: int, count: int) -> np.ndarray:
        """The world's next ``count`` raw words, without consuming them.

        The block is a fresh uint32 array; a later :meth:`commit`
        consumes any prefix of it, and the next ``peek`` starts at the
        first uncommitted word.
        """
        pos = int(self._buf_pos[world])
        end = int(self._buf_len[world])
        ahead = self._ahead[world]
        short = count - (end - pos) - sum(chunk.size for chunk in ahead)
        if short > 0:
            self._draw_chunks(world, short)
        return np.concatenate([self._buf[world, pos:end], *ahead])[:count]

    def commit(self, world: int, count: int) -> None:
        """Consume the world's next ``count`` words (a peeked prefix).

        Afterwards :meth:`getstate` reports the state CPython reaches
        after drawing exactly those words.
        """
        pos = int(self._buf_pos[world]) + count
        end = int(self._buf_len[world])
        while pos > end:
            pos -= end
            self._refill(world)
            end = int(self._buf_len[world])
        self._buf_pos[world] = pos

    def next_words(self, idx: np.ndarray) -> np.ndarray:
        """One raw 32-bit word per world in ``idx`` (uint32 values).

        ``idx`` may repeat a world only across *calls*, not within one
        -- a call draws exactly one word per listed world.
        """
        buf_pos = self._buf_pos
        pos = buf_pos[idx]
        exhausted = pos >= self._buf_len[idx]
        if exhausted.any():
            for world in idx[exhausted]:
                self._refill(int(world))
            pos = buf_pos[idx]
        out = self._buf[idx, pos]
        buf_pos[idx] = pos + 1
        return out

    def randbelow(self, idx: np.ndarray, n: int) -> np.ndarray:
        """``Random._randbelow(n)`` for each world in ``idx``.

        Rejection sampling draws per-world until the value lands below
        ``n`` -- the identical word consumption as CPython.  The
        geometric tail of stragglers drops to a scalar loop once few
        worlds remain: each vectorised round costs the same fixed
        overhead whether it redraws thirty worlds or one.
        """
        if n <= 0:
            raise ValueError(f"randbelow needs n > 0, got {n}")
        shift = 32 - n.bit_length()
        rows = _row_index(idx.size)
        pos = self._buf_pos[idx]
        offsets = pos[:, None] + _SCAN_OFFSETS
        usable = offsets < self._buf_len[idx, None]
        np.minimum(offsets, MT_N - 1, out=offsets)
        window = self._buf[idx[:, None], offsets] >> shift
        accepted = (window < n) & usable
        first = accepted.argmax(axis=1)
        out = window[rows, first]
        hit = accepted[rows, first]
        winners = hit.nonzero()[0]
        self._buf_pos[idx[winners]] = pos[winners] + first[winners] + 1
        if winners.size != idx.size:
            # Straggler path: every usable window word was a rejection
            # (or the buffer ran dry).  Those words are consumed in one
            # jump -- rescanning them one by one would only reject each
            # again -- then the scalar loop continues past the window.
            for slot in (~hit).nonzero()[0]:
                world = int(idx[slot])
                self._buf_pos[world] += int(np.count_nonzero(usable[slot]))
                value = self._draw_one(world) >> shift
                while value >= n:
                    value = self._draw_one(world) >> shift
                out[slot] = value
        return out

    def randbytes8(self, idx: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """``Random.randbytes(length)`` per world, zero-padded to 8 columns.

        ``lengths`` must be 0..8 (one classic CAN payload per world).
        Word consumption matches CPython exactly: zero-length draws no
        word, 1-4 bytes one word, 5-8 bytes two.
        """
        count = idx.size
        lengths = np.asarray(lengths, dtype=np.int64)
        value = np.zeros(count, dtype=np.uint64)
        has_bytes = lengths >= 1
        some = has_bytes.nonzero()[0]
        if some.size:
            value[some] = self.next_words(idx[some])
        wide = (lengths >= 5).nonzero()[0]
        if wide.size:
            hi = self.next_words(idx[wide]).astype(np.uint64)
            value[wide] |= (hi >> (64 - 8 * lengths[wide]).astype(
                np.uint64)) << np.uint64(32)
        narrow = (has_bytes & (lengths <= 4)).nonzero()[0]
        if narrow.size:
            value[narrow] >>= (32 - 8 * lengths[narrow]).astype(np.uint64)
        # A world's value holds exactly 8*length random bits, so byte
        # columns at and beyond the length unpack to zero on their own.
        return ((value[:, None] >> _BYTE_SHIFTS)
                & np.uint64(0xFF)).astype(np.uint8)

    def getstate(self, world: int) -> tuple:
        """The world's logical ``random.Random.getstate()`` tuple.

        Feeding this to ``Random.setstate`` yields a scalar stream that
        continues bit-identically from the words consumed so far.  A
        whole buffered block's key is its untempered words (a rare,
        export-time cost); before the first whole block the key is the
        transplanted one.
        """
        pos = int(self._base_pos[world] + self._buf_pos[world])
        if self._buf_len[world] == MT_N:
            key = _untemper(self._buf[world])
        else:
            key = self._keys0[world]
        return (PY_STATE_VERSION, tuple(key.tolist()) + (pos,), None)


class BatchRandomView:
    """A ``random.Random``-compatible facade over one world's stream.

    The frame-level engine consumes :class:`BatchRandom` words through
    vectorised bulk calls; the request-level UDS engine instead hands
    each world's *generator object* a view of its own stream, so the
    scalar generator code runs unmodified while the words still come
    from (and are accounted against) the shared batch state.  Every
    method reproduces CPython's word consumption exactly -- including
    ``getrandbits(0)`` drawing nothing and ``_randbelow`` rejection
    redraws -- so :meth:`getstate` stays exportable at any boundary and
    a ``random.Random`` seeded with it continues bit-identically.

    The view owns its world's position while installed: the buffered
    block is mirrored once into a plain Python list and words are
    served by list index (numpy scalar indexing per draw costs more
    than the whole analytic exchange it feeds), with the position
    flushed back to the shared state on :meth:`getstate` and on every
    refill.  A world driven through a view must therefore not also be
    drawn through the vectorised bulk calls.
    """

    __slots__ = ("_batch", "_world", "_words", "_pos", "_end")

    def __init__(self, batch: BatchRandom, world: int) -> None:
        self._batch = batch
        self._world = world
        self._words = batch._buf[world, :batch._buf_len[world]].tolist()
        self._pos = int(batch._buf_pos[world])
        self._end = len(self._words)

    def _word(self) -> int:
        pos = self._pos
        if pos >= self._end:
            return self._word_slow()
        self._pos = pos + 1
        return self._words[pos]

    def _word_slow(self) -> int:
        batch, world = self._batch, self._world
        batch._buf_pos[world] = self._pos
        value = batch._draw_one(world)      # refills the shared buffer
        self._words = batch._buf[world, :batch._buf_len[world]].tolist()
        self._pos = int(batch._buf_pos[world])
        self._end = len(self._words)
        return value

    def random(self) -> float:
        """CPython ``genrand_res53``: 53 bits from two raw words."""
        pos = self._pos
        if pos + 2 <= self._end:
            words = self._words
            a = words[pos]
            b = words[pos + 1]
            self._pos = pos + 2
        else:
            a = self._word()
            b = self._word()
        return ((a >> 5) * 67108864.0 + (b >> 6)) \
            * (1.0 / 9007199254740992.0)

    def getrandbits(self, k: int) -> int:
        if 0 < k <= 32:
            pos = self._pos
            if pos < self._end:
                self._pos = pos + 1
                return self._words[pos] >> (32 - k)
            return self._word_slow() >> (32 - k)
        if k < 0:
            raise ValueError("number of bits must be non-negative")
        if k == 0:
            return 0
        # Little-endian 32-bit digits, the last one truncated -- the
        # exact assembly order of _randommodule.c.  When the buffer
        # covers the whole request (the usual case for randbytes
        # payload draws), consume it as one slice.
        count = (k + 31) >> 5
        pos = self._pos
        if pos + count <= self._end:
            words = self._words[pos:pos + count]
            self._pos = pos + count
            last = words[-1]
            remainder = k & 31
            if remainder:
                last >>= 32 - remainder
            result = last
            for word in reversed(words[:-1]):
                result = (result << 32) | word
            return result
        result = 0
        shift = 0
        while k > 0:
            word = self._word()
            if k < 32:
                word >>= 32 - k
            result |= word << shift
            shift += 32
            k -= 32
        return result

    def randbytes(self, n: int) -> bytes:
        return self.getrandbits(n * 8).to_bytes(n, "little")

    def _randbelow(self, n: int) -> int:
        k = n.bit_length()
        if k > 32:
            r = self.getrandbits(k)
            while r >= n:
                r = self.getrandbits(k)
            return r
        # The ubiquitous case (choice/randrange over small pools):
        # one buffered word per try, consumed without a method call.
        shift = 32 - k
        while True:
            pos = self._pos
            if pos < self._end:
                self._pos = pos + 1
                r = self._words[pos] >> shift
            else:
                r = self._word_slow() >> shift
            if r < n:
                return r

    def randrange(self, start: int, stop: int | None = None,
                  step: int = 1) -> int:
        if step != 1:
            raise NotImplementedError(
                "BatchRandomView supports only step 1")
        if stop is None:
            start, stop = 0, start
        width = stop - start
        if width <= 0:
            raise ValueError(f"empty range ({start}, {stop})")
        if width >> 32:
            return start + self._randbelow(width)
        # _randbelow's small-pool loop, inlined at the call site.
        shift = 32 - width.bit_length()
        while True:
            pos = self._pos
            if pos < self._end:
                self._pos = pos + 1
                r = self._words[pos] >> shift
            else:
                r = self._word_slow() >> shift
            if r < width:
                return start + r

    def randint(self, a: int, b: int) -> int:
        return self.randrange(a, b + 1)

    def choice(self, seq):
        n = len(seq)
        if not n:
            raise IndexError("cannot choose from an empty sequence")
        if n >> 32:
            return seq[self._randbelow(n)]
        shift = 32 - n.bit_length()
        while True:
            pos = self._pos
            if pos < self._end:
                self._pos = pos + 1
                r = self._words[pos] >> shift
            else:
                r = self._word_slow() >> shift
            if r < n:
                return seq[r]

    def getstate(self) -> tuple:
        self._batch._buf_pos[self._world] = self._pos
        return self._batch.getstate(self._world)
