"""Fuzz frame generators.

Three strategies, all behind the :class:`FrameGenerator` protocol:

- :class:`RandomFrameGenerator` -- the paper's random bytes generator:
  uniform id, uniform DLC, uniform payload bytes (what produced the
  flat Fig 5 distribution with mean 127).
- :class:`TargetedFrameGenerator` -- random payloads on known ids
  (the restricted mode used against the real vehicle).
- :class:`BitWalkGenerator` -- the Fig 3 UI's deterministic mode:
  "a variation on a single bit in a single message, to every bit in
  every message".
"""

from __future__ import annotations

import random
from typing import Protocol

from repro.can.frame import CanFrame, fd_round_size, trusted_frame
from repro.fuzz.config import FuzzConfig
from repro.sim.random import rng_state_from_json, rng_state_to_json


class FrameGenerator(Protocol):
    """Anything that yields the next fuzz frame."""

    def next_frame(self) -> CanFrame:
        """Produce the next frame to inject."""
        ...


class RandomFrameGenerator:
    """Uniform random frames per the configuration.

    Draws, per frame: one identifier from the id pool, one length from
    the DLC pool, then that many payload bytes from the byte range --
    the exact sampling model behind the paper's Table IV output and
    Fig 5 distribution, and the model our Table V analysis assumes.
    """

    def __init__(self, config: FuzzConfig, rng: random.Random) -> None:
        self.config = config
        self._rng = rng
        self._ids = config.identifier_pool()
        self._dlcs = config.dlc_pool()
        # Fast path for the common full-byte range: rng.randbytes draws
        # the same uniform bytes as per-byte randint, in one call.
        self._full_byte_range = (config.byte_min == 0
                                 and config.byte_max == 255)
        self._extended = config.extended_ids
        self._fd = config.fd
        # Pool sizes are fixed for the generator's lifetime.  Indices
        # are drawn with rng._randbelow directly -- the exact sampler
        # rng.choice delegates to, minus the wrapper call, so the
        # generated frame stream stays bit-identical to choice() while
        # one call per draw disappears from the hot loop.
        self._id_count = len(self._ids)
        self._dlc_count = len(self._dlcs)
        self.generated = 0

    def next_frame(self) -> CanFrame:
        rng = self._rng
        can_id = self._ids[rng._randbelow(self._id_count)]
        dlc = self._dlcs[rng._randbelow(self._dlc_count)]
        if self._fd:
            dlc = fd_round_size(dlc)
        if self._full_byte_range:
            data = rng.randbytes(dlc)
        else:
            config = self.config
            data = bytes(rng.randint(config.byte_min, config.byte_max)
                         for _ in range(dlc))
        self.generated += 1
        # The id came from the validated pool and the dlc from the
        # validated range, so the checked constructor adds nothing.
        return trusted_frame(can_id, data, self._extended, self._fd)

    def frames(self, count: int) -> list[CanFrame]:
        """Generate ``count`` frames eagerly (analysis convenience)."""
        return [self.next_frame() for _ in range(count)]

    def state_dict(self) -> dict:
        return {
            "kind": "random",
            "generated": self.generated,
            "rng": rng_state_to_json(self._rng.getstate()),
        }

    def load_state(self, state: dict) -> None:
        self.generated = state.get("generated", 0)
        self._rng.setstate(rng_state_from_json(state["rng"]))


class TargetedFrameGenerator(RandomFrameGenerator):
    """Random payloads restricted to observed/known identifiers.

    Exactly a :class:`RandomFrameGenerator` whose id pool is the known
    set; the subclass exists so campaign records name the strategy.
    """

    def __init__(self, known_ids: tuple[int, ...],
                 config: FuzzConfig, rng: random.Random) -> None:
        narrowed = FuzzConfig.targeted(
            known_ids,
            dlc_min=config.dlc_min, dlc_max=config.dlc_max,
            dlc_choices=config.dlc_choices,
            byte_min=config.byte_min, byte_max=config.byte_max,
            interval=config.interval, extended_ids=config.extended_ids,
            fd=config.fd, seed_label=config.seed_label)
        super().__init__(narrowed, rng)


class BitWalkGenerator:
    """Deterministic single-bit variations of a base message.

    Walks every bit position of the payload (and optionally the
    identifier), emitting the base frame with exactly that bit
    flipped.  After the last bit it wraps around, so the generator
    never exhausts -- matching a fuzzer UI configured "to generate a
    variation on a single bit in a single message".
    """

    def __init__(self, base: CanFrame, *, include_id_bits: bool = False) -> None:
        self.base = base
        self.include_id_bits = include_id_bits
        self._payload_bits = len(base.data) * 8
        self._id_bits = (29 if base.extended else 11) if include_id_bits else 0
        if self._payload_bits + self._id_bits == 0:
            raise ValueError(
                "base frame has no bits to walk (empty payload and id "
                "walking disabled)")
        self._cursor = 0
        self.generated = 0

    @property
    def total_bits(self) -> int:
        return self._payload_bits + self._id_bits

    def next_frame(self) -> CanFrame:
        cursor = self._cursor
        self._cursor = (self._cursor + 1) % self.total_bits
        self.generated += 1
        if cursor < self._payload_bits:
            byte_index, bit_index = divmod(cursor, 8)
            data = bytearray(self.base.data)
            data[byte_index] ^= 1 << bit_index
            return self.base.replace_data(bytes(data))
        id_bit = cursor - self._payload_bits
        flipped = self.base.can_id ^ (1 << id_bit)
        return CanFrame(flipped, self.base.data,
                        extended=self.base.extended)

    def state_dict(self) -> dict:
        return {"kind": "bitwalk", "cursor": self._cursor,
                "generated": self.generated}

    def load_state(self, state: dict) -> None:
        self._cursor = state.get("cursor", 0) % self.total_bits
        self.generated = state.get("generated", 0)
