"""Bit timing: bitrates and frame durations.

The target vehicle's buses run classic CAN at 500 kb/s (the common
automotive rate the paper cites); one bit therefore occupies 2 µs and a
full 8-byte frame roughly 260 µs once stuffing is counted.  Durations
are rounded up to whole microsecond ticks -- rounding *up* keeps the
modelled bus load a (tight) upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.can.bitstuff import FRAME_TAIL_BITS, INTERFRAME_BITS
from repro.can.frame import CanFrame
from repro.sim.clock import SECOND
from repro.sim.snapshot import shared_by_reference

#: Error frames: 6 flag bits + up to 6 echoed flag bits + 8 delimiter
#: bits + 3-bit interframe space.
ERROR_FRAME_BITS = 23

#: Entries kept in a :class:`BitTiming`'s duration cache before it is
#: cleared wholesale.  The cache is keyed by on-wire bit count, of
#: which classic CAN has only ~110 distinct values, so the bound exists
#: purely as a safety valve for pathological FD mixes.
DURATION_CACHE_MAX = 4096


@shared_by_reference
@dataclass(frozen=True)
class BitTiming:
    """Bus bit timing.

    Attributes:
        bitrate: nominal bitrate in bits/s (arbitration phase for FD).
        data_bitrate: FD data-phase bitrate; defaults to the nominal
            rate, i.e. FD without bit-rate switching.
    """

    bitrate: int = 500_000
    data_bitrate: int | None = None

    def __post_init__(self) -> None:
        if self.bitrate <= 0:
            raise ValueError(f"bitrate must be positive, got {self.bitrate}")
        if self.data_bitrate is not None and self.data_bitrate < self.bitrate:
            raise ValueError(
                "FD data bitrate must be at least the nominal bitrate"
            )
        # Bit-count-keyed duration memo (not a dataclass field: it is
        # mutable working state, not part of the timing's identity).
        object.__setattr__(self, "_duration_cache", {})

    # A BitTiming is immutable identity-wise; _duration_cache is a pure
    # memo (bit count -> ticks) whose entries are identical however
    # they were computed, so copying is sharing.  Snapshots share it
    # too (see shared_by_reference), which keeps the cache warm across
    # restores.
    def __copy__(self) -> "BitTiming":
        return self

    def __deepcopy__(self, memo: dict) -> "BitTiming":
        return self

    def bits_to_ticks(self, bits: int, *, data_phase: bool = False) -> int:
        """Duration of ``bits`` in clock ticks, rounded up."""
        rate = self.bitrate
        if data_phase and self.data_bitrate is not None:
            rate = self.data_bitrate
        return -(-bits * SECOND // rate)  # ceiling division

    def frame_duration(self, frame: CanFrame, *,
                       include_ifs: bool = True) -> int:
        """On-wire duration of ``frame`` in clock ticks.

        Memoised twice over: the stuffing-aware bit length is cached on
        the (immutable) frame object itself, and the nominal-phase tick
        conversion is cached here keyed by *bit count* -- classic
        frames span only ~50-160 distinct on-wire lengths, so even a
        random fuzz stream of unique frames hits this cache on every
        transmission after warm-up (an int-keyed dict hit, with no
        frame hashing).  Frames are immutable, so neither cache ever
        invalidates.  Results are identical to the from-scratch oracle
        in ``tests/can/reference.py``.
        """
        bits = frame._wire_bits
        if bits is None:
            bits = frame.wire_bit_lengths()
        nominal, data_phase = bits
        if include_ifs:
            nominal += INTERFRAME_BITS
        cache = self._duration_cache
        ticks = cache.get(nominal)
        if ticks is None:
            ticks = self.bits_to_ticks(nominal)
            if len(cache) >= DURATION_CACHE_MAX:
                cache.clear()
            cache[nominal] = ticks
        if data_phase:
            ticks += self.bits_to_ticks(data_phase, data_phase=True)
        return ticks

    def error_frame_duration(self) -> int:
        """Duration of an active error frame plus interframe space."""
        return self.bits_to_ticks(ERROR_FRAME_BITS)

    def worst_case_duration(self, *, dlc: int, extended: bool = False,
                            include_ifs: bool = True) -> int:
        """Upper bound on any classic frame's on-wire duration.

        The stuffed region (SOF through CRC) gains at most one stuff
        bit per four bits after the first, so ``(region - 1) // 4``
        bounds the stuffing of *every* id/payload combination at this
        DLC.  The batch frame engine uses this to prove its episode
        invariant (command + response always settle within one transmit
        interval) without enumerating frames; the bound is reachable
        only by pathological bit patterns, but it is safe for all.
        """
        if not 0 <= dlc <= 8:
            raise ValueError(f"classic CAN dlc must be 0..8, got {dlc}")
        header = 39 if extended else 19
        region = header + dlc * 8 + 15
        bits = region + (region - 1) // 4 + FRAME_TAIL_BITS
        if include_ifs:
            bits += INTERFRAME_BITS
        return self.bits_to_ticks(bits)


#: The paper's bus rate ("a common transmission speed used in cars is
#: 500kb/s").
CAN_500K = BitTiming(bitrate=500_000)

#: Lower-speed body/comfort bus rate common on second vehicle buses.
CAN_125K = BitTiming(bitrate=125_000)

#: High-speed rate; the CAN maximum the paper mentions (1 Mb/s).
CAN_1M = BitTiming(bitrate=1_000_000)
