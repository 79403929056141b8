"""Bit-by-bit reference models of the CAN wire format.

The bus times every frame through table-driven CRC and stuffing code
(``repro.can.bitstuff``) and memoised durations
(``BitTiming.frame_duration``).  These straightforward versions --
one CRC register step and one stuffing decision per bit -- are the
oracles the property tests hold that code to.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.can.bitstuff import (FRAME_TAIL_BITS, INTERFRAME_BITS,
                                fd_frame_bit_length)
from repro.can.crc import CRC15_MASK, CRC15_POLY
from repro.can.frame import CanFrame


def crc15(bits: Iterable[int]) -> int:
    """CRC-15 of a bit sequence (each element 0 or 1), per CAN 2.0 §3.1.1.

    >>> crc15([])
    0
    """
    register = 0
    for bit in bits:
        if bit not in (0, 1):
            raise ValueError(f"bit values must be 0 or 1, got {bit!r}")
        msb = (register >> 14) & 1
        register = (register << 1) & CRC15_MASK
        if bit ^ msb:
            register ^= CRC15_POLY
    return register


def bytes_to_bits(data: bytes) -> list[int]:
    """Explode bytes into bits, most-significant bit first."""
    bits: list[int] = []
    for byte in data:
        bits.extend((byte >> shift) & 1 for shift in range(7, -1, -1))
    return bits


def int_to_bits(value: int, width: int) -> list[int]:
    """The ``width`` least-significant bits of ``value``, MSB first.

    >>> int_to_bits(0b101, 4)
    [0, 1, 0, 1]
    """
    if value < 0:
        raise ValueError("value must be non-negative")
    if value >= (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    return [(value >> shift) & 1 for shift in range(width - 1, -1, -1)]


def frame_stuffable_bits(frame: CanFrame) -> list[int]:
    """The frame's bits from SOF through CRC, before stuffing.

    Classic CAN only; FD frames use a different CRC and stuffing scheme
    and are handled by :func:`~repro.can.bitstuff.fd_frame_bit_length`
    as an approximation.
    """
    if frame.fd:
        raise ValueError("frame_stuffable_bits models classic CAN only")
    bits: list[int] = [0]  # start of frame (dominant)
    rtr = 1 if frame.remote else 0
    if frame.extended:
        bits += int_to_bits(frame.can_id >> 18, 11)   # base identifier
        bits += [1, 1]                                # SRR, IDE (recessive)
        bits += int_to_bits(frame.can_id & 0x3FFFF, 18)
        bits += [rtr, 0, 0]                           # RTR, r1, r0
    else:
        bits += int_to_bits(frame.can_id, 11)
        bits += [rtr, 0, 0]                           # RTR, IDE, r0
    bits += int_to_bits(frame.dlc, 4)
    if not frame.remote:
        bits += bytes_to_bits(frame.data)
    bits += int_to_bits(crc15(bits), 15)
    return bits


def count_stuff_bits(bits: list[int]) -> int:
    """Number of stuff bits the transmitter inserts into ``bits``.

    Stuff bits themselves participate in the run-length counting, which
    is why this walks the sequence statefully instead of counting
    five-bit runs arithmetically.
    """
    stuffed = 0
    run_value = None
    run_length = 0
    for bit in bits:
        if bit == run_value:
            run_length += 1
        else:
            run_value = bit
            run_length = 1
        if run_length == 5:
            stuffed += 1
            # The inserted stuff bit is the complement and starts a new run.
            run_value = 1 - bit
            run_length = 1
    return stuffed


def frame_bit_length_reference(frame: CanFrame, *,
                               include_ifs: bool = True) -> int:
    """Bit-by-bit on-wire length of a classic frame, including stuffing:
    the oracle for the table-driven :meth:`CanFrame.wire_bit_lengths`."""
    bits = frame_stuffable_bits(frame)
    length = len(bits) + count_stuff_bits(bits) + FRAME_TAIL_BITS
    if include_ifs:
        length += INTERFRAME_BITS
    return length


def frame_duration_uncached(timing, frame: CanFrame, *,
                            include_ifs: bool = True) -> int:
    """On-wire duration of ``frame`` under ``timing``, computed from
    scratch: the oracle for the memoised ``BitTiming.frame_duration``."""
    if frame.fd:
        arb_bits, data_bits = fd_frame_bit_length(
            frame, include_ifs=include_ifs)
        return (timing.bits_to_ticks(arb_bits)
                + timing.bits_to_ticks(data_bits, data_phase=True))
    return timing.bits_to_ticks(
        frame_bit_length_reference(frame, include_ifs=include_ifs))
