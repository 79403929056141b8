"""Bit-by-bit reference model of the DBC signal codec.

``SignalDef`` compiles its bit positions into per-byte runs and moves a
whole run per shift-and-mask.  These straightforward versions -- one
bit position per signal bit, one read or write per bit -- are the
oracles the property tests hold that codec to: same raw values, same
payload bytes, same ``SignalCodecError`` texts, and the same partly
written payload when a byte is missing.
"""

from __future__ import annotations

from repro.vehicle.signals import SignalCodecError, SignalDef


def bit_positions(sig: SignalDef) -> list[int]:
    """The signal's bit positions, least-significant signal bit first.

    Intel signals count up from ``start_bit``.  Motorola signals walk
    the DBC sawtooth down from the MSB at ``start_bit``: within a byte
    positions decrease, and below bit 0 the walk continues at bit 7 of
    the next byte.
    """
    if sig.byte_order == "little_endian":
        return [sig.start_bit + i for i in range(sig.length)]
    positions = []
    pos = sig.start_bit
    for _ in range(sig.length):
        positions.append(pos)
        if pos % 8 == 0:
            pos += 15  # bit 0 of byte n -> bit 7 of byte n+1
        else:
            pos -= 1
    return list(reversed(positions))


def extract_raw(sig: SignalDef, data: bytes) -> int:
    """Raw (unscaled) value of ``sig`` in ``data``, one bit at a time."""
    raw = 0
    for bit_index, pos in enumerate(bit_positions(sig)):
        byte_index, bit_in_byte = divmod(pos, 8)
        if byte_index >= len(data):
            raise SignalCodecError(
                f"signal {sig.name!r} needs byte {byte_index} but "
                f"payload has {len(data)} bytes")
        bit = (data[byte_index] >> bit_in_byte) & 1
        raw |= bit << bit_index
    if sig.signed and raw >= (1 << (sig.length - 1)):
        raw -= 1 << sig.length
    return raw


def insert_raw(sig: SignalDef, data: bytearray, raw: int) -> None:
    """Write ``raw`` into ``data`` in place, one bit at a time."""
    if sig.signed:
        low = -(1 << (sig.length - 1))
        high = (1 << (sig.length - 1)) - 1
    else:
        low, high = 0, (1 << sig.length) - 1
    if not low <= raw <= high:
        raise SignalCodecError(
            f"signal {sig.name!r}: raw value {raw} does not fit in "
            f"{'signed ' if sig.signed else ''}{sig.length} bits")
    if raw < 0:
        raw += 1 << sig.length
    for bit_index, pos in enumerate(bit_positions(sig)):
        byte_index, bit_in_byte = divmod(pos, 8)
        if byte_index >= len(data):
            raise SignalCodecError(
                f"signal {sig.name!r} needs byte {byte_index} but "
                f"payload has {len(data)} bytes")
        if (raw >> bit_index) & 1:
            data[byte_index] |= 1 << bit_in_byte
        else:
            data[byte_index] &= ~(1 << bit_in_byte)
