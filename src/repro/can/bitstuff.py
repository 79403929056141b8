"""Bit-level frame layout and bit-stuffing.

CAN inserts a complementary *stuff bit* after every run of five equal
bits in the region from start-of-frame through the CRC field, so two
frames with the same DLC can occupy different amounts of bus time.  The
paper's combinatorial-explosion arithmetic (§V) and our bus-load
accounting both need the exact on-wire bit count, so we build the real
bit sequence (including the computed CRC-15) and count stuff bits
rather than using a worst-case formula.
"""

from __future__ import annotations

from repro.can.frame import CanFrame

#: Bits after the stuffed region: CRC delimiter, ACK slot, ACK delimiter,
#: end-of-frame (7 recessive bits).
FRAME_TAIL_BITS = 10

#: Interframe space (3 recessive bits) before the next frame may start.
INTERFRAME_BITS = 3

# ----------------------------------------------------------------------
# Fast path: table-driven CRC and stuff counting
#
# The bus computes a frame duration for every transmission, and a fuzz
# campaign transmits millions of frames, so whole payload bytes go
# through precomputed tables; the bit-by-bit reference the property
# tests check this against is in tests/can/reference.py.
# ----------------------------------------------------------------------
from repro.can.crc import CRC15_MASK, CRC15_POLY


def _build_crc_table() -> list[int]:
    table = []
    for byte in range(256):
        register = byte << 7
        for _ in range(8):
            msb = register & 0x4000
            register = (register << 1) & CRC15_MASK
            if msb:
                register ^= CRC15_POLY
        table.append(register)
    return table


_CRC_TABLE = _build_crc_table()

# Stuffing state machine over whole bytes.  A state is (run_value,
# run_length) with run_value 2 meaning "no bits seen yet"; encoded as
# run_value * 5 + run_length.  _STUFF_TABLE[state * 256 + byte] gives
# (stuff_bits_added, next_state).
_STATE_START = 2 * 5 + 0


def _build_stuff_table() -> list[tuple[int, int]]:
    table: list[tuple[int, int]] = [(0, 0)] * (15 * 256)
    for state in range(15):
        run_value, run_length = divmod(state, 5)
        if run_value == 2 and run_length != 0:
            continue  # unreachable encodings
        for byte in range(256):
            value, length = run_value, run_length
            stuffed = 0
            for shift in range(7, -1, -1):
                bit = (byte >> shift) & 1
                if bit == value:
                    length += 1
                else:
                    value, length = bit, 1
                if length == 5:
                    stuffed += 1
                    value, length = 1 - value, 1
            table[state * 256 + byte] = (stuffed, value * 5 + length)
    return table


_STUFF_TABLE = _build_stuff_table()

# Flat variants of _STUFF_TABLE for the inner loop: separate add/next
# lists avoid a tuple unpack per byte, and next-states are stored
# pre-multiplied by 256 so the index is a single addition.
_STUFF_ADD = [added for added, _ in _STUFF_TABLE]
_STUFF_NEXT = [nxt * 256 for _, nxt in _STUFF_TABLE]


def _advance_bit(run_value: int, run_length: int, stuffed: int,
                 bit: int) -> tuple[int, int, int]:
    """One bit through the stuffing state machine (table builders only)."""
    if bit == run_value:
        run_length += 1
    else:
        run_value, run_length = bit, 1
    if run_length == 5:
        stuffed += 1
        run_value, run_length = 1 - bit, 1
    return run_value, run_length, stuffed


def _build_lead_tables(lead: int) -> tuple[list[int], list[int], list[int]]:
    """(crc, premultiplied-state, stuff-count) after the ``lead`` header
    bits that precede the first byte-aligned header byte."""
    crc_t: list[int] = []
    state_t: list[int] = []
    add_t: list[int] = []
    for value in range(1 << lead):
        register = 0
        run_value, run_length, stuffed = 2, 0, 0
        for shift in range(lead - 1, -1, -1):
            bit = (value >> shift) & 1
            msb = (register >> 14) & 1
            register = (register << 1) & CRC15_MASK
            if bit ^ msb:
                register ^= CRC15_POLY
            run_value, run_length, stuffed = _advance_bit(
                run_value, run_length, stuffed, bit)
        crc_t.append(register)
        state_t.append((run_value * 5 + run_length) * 256)
        add_t.append(stuffed)
    return crc_t, state_t, add_t


#: Classic headers are 19 (standard) or 39 (extended) bits, so the
#: bitwise lead is always 3 or 7 bits -- small enough to precompute.
_LEAD_TABLES = {3: _build_lead_tables(3), 7: _build_lead_tables(7)}


def _build_tail_tables() -> tuple[list[int], list[int]]:
    """Stuffing over the high 7 bits of the CRC field, per start state:
    ``index = state * 128 + (crc >> 8)`` -> (stuff bits added,
    premultiplied next state)."""
    add_t = [0] * (15 * 128)
    state_t = [0] * (15 * 128)
    for state in range(15):
        run_value0, run_length0 = divmod(state, 5)
        if run_value0 == 2 and run_length0 != 0:
            continue  # unreachable encodings
        for hi in range(128):
            run_value, run_length, stuffed = run_value0, run_length0, 0
            for shift in range(6, -1, -1):
                run_value, run_length, stuffed = _advance_bit(
                    run_value, run_length, stuffed, (hi >> shift) & 1)
            add_t[state * 128 + hi] = stuffed
            state_t[state * 128 + hi] = (run_value * 5 + run_length) * 256
    return add_t, state_t


_TAIL_ADD, _TAIL_STATE = _build_tail_tables()


def _crc_and_stuff(value: int, width: int, data: bytes) -> tuple[int, int]:
    """``(crc15, stuff_bits)`` over the header bits plus payload bytes.

    ``value``/``width`` hold the frame header (SOF through DLC) as a
    big-endian bitstring; ``data`` follows byte-aligned.  Both the CRC
    register and the stuffing state machine advance through the same
    single pass -- one table lookup each per byte, never materialising
    the frame as one large integer -- because this runs once per
    transmitted frame and is the hottest computation in a campaign.
    The returned stuff count includes the CRC field itself, which is
    part of the stuffed region.
    """
    crc_table = _CRC_TABLE
    add_table = _STUFF_ADD
    next_table = _STUFF_NEXT
    # Header lead bits (width % 8 of them): precomputed tables for the
    # classic header widths, a bitwise walk for anything else.
    lead = width % 8
    lead_tables = _LEAD_TABLES.get(lead)
    if lead_tables is not None:
        lead_value = value >> (width - lead)
        register = lead_tables[0][lead_value]
        state = lead_tables[1][lead_value]
        stuffed = lead_tables[2][lead_value]
    else:
        register = 0
        run_value, run_length = 2, 0  # 2 = no bits seen yet
        stuffed = 0
        for shift in range(width - 1, width - 1 - lead, -1):
            bit = (value >> shift) & 1
            msb = (register >> 14) & 1
            register = (register << 1) & CRC15_MASK
            if bit ^ msb:
                register ^= CRC15_POLY
            run_value, run_length, stuffed = _advance_bit(
                run_value, run_length, stuffed, bit)
        state = (run_value * 5 + run_length) * 256
    remaining = width - lead
    while remaining:
        remaining -= 8
        byte = (value >> remaining) & 0xFF
        register = (((register << 8) & CRC15_MASK)
                    ^ crc_table[((register >> 7) ^ byte) & 0xFF])
        index = state + byte
        stuffed += add_table[index]
        state = next_table[index]
    for byte in data:
        register = (((register << 8) & CRC15_MASK)
                    ^ crc_table[((register >> 7) ^ byte) & 0xFF])
        index = state + byte
        stuffed += add_table[index]
        state = next_table[index]
    # The 15 CRC bits are stuffed too: high 7 bits via the tail table,
    # the final byte through the main table.
    index = (state >> 8) * 128 + (register >> 8)
    stuffed += _TAIL_ADD[index]
    stuffed += add_table[_TAIL_STATE[index] + (register & 0xFF)]
    return register, stuffed


def _header_crc_state(value: int, width: int) -> tuple[int, int, int]:
    """``(crc15, stuff_state, stuff_bits)`` after the header bits alone.

    The front half of :func:`_crc_and_stuff`, split out so a caller
    transmitting many frames with the *same* header (fixed arbitration
    id and DLC -- the diagnostic request/response pattern) can walk the
    header once and resume per payload via :func:`_crc_and_stuff_from`.
    """
    crc_table = _CRC_TABLE
    add_table = _STUFF_ADD
    next_table = _STUFF_NEXT
    lead = width % 8
    lead_tables = _LEAD_TABLES.get(lead)
    if lead_tables is not None:
        lead_value = value >> (width - lead)
        register = lead_tables[0][lead_value]
        state = lead_tables[1][lead_value]
        stuffed = lead_tables[2][lead_value]
    else:
        register = 0
        run_value, run_length = 2, 0
        stuffed = 0
        for shift in range(width - 1, width - 1 - lead, -1):
            bit = (value >> shift) & 1
            msb = (register >> 14) & 1
            register = (register << 1) & CRC15_MASK
            if bit ^ msb:
                register ^= CRC15_POLY
            run_value, run_length, stuffed = _advance_bit(
                run_value, run_length, stuffed, bit)
        state = (run_value * 5 + run_length) * 256
    remaining = width - lead
    while remaining:
        remaining -= 8
        byte = (value >> remaining) & 0xFF
        register = (((register << 8) & CRC15_MASK)
                    ^ crc_table[((register >> 7) ^ byte) & 0xFF])
        index = state + byte
        stuffed += add_table[index]
        state = next_table[index]
    return register, state, stuffed


def _crc_and_stuff_from(register: int, state: int, stuffed: int,
                        data: bytes) -> tuple[int, int]:
    """Finish :func:`_crc_and_stuff` from a header state.

    The byte-walk and CRC-tail code deliberately mirrors the back half
    of :func:`_crc_and_stuff` instead of being shared with it: this
    pair runs once per analytically-transmitted frame, and an extra
    call layer inside `_crc_and_stuff` would tax every scalar frame
    too.
    """
    crc_table = _CRC_TABLE
    add_table = _STUFF_ADD
    next_table = _STUFF_NEXT
    for byte in data:
        register = (((register << 8) & CRC15_MASK)
                    ^ crc_table[((register >> 7) ^ byte) & 0xFF])
        index = state + byte
        stuffed += add_table[index]
        state = next_table[index]
    index = (state >> 8) * 128 + (register >> 8)
    stuffed += _TAIL_ADD[index]
    stuffed += add_table[_TAIL_STATE[index] + (register & 0xFF)]
    return register, stuffed


def _classic_wire_bits(frame: CanFrame) -> int:
    """On-wire bit count of a classic frame, stuffing included and
    interframe space excluded.

    Header construction and the stuffing walk fused together for
    :meth:`CanFrame.wire_bit_lengths` -- the once-per-transmitted-frame
    hot path, where extra call layers are measurable.  (``len(data)``
    is the DLC: remote frames carry no data and their ``dlc`` property
    is likewise the payload length.)
    """
    data = frame.data
    rtr = 1 if frame.remote else 0
    if frame.extended:
        value = (((frame.can_id >> 18) << 27) | (0b11 << 25)
                 | ((frame.can_id & 0x3FFFF) << 7) | (rtr << 6) | len(data))
        width = 39
    else:
        value = (frame.can_id << 7) | (rtr << 6) | len(data)
        width = 19
    _, stuffed = _crc_and_stuff(value, width, data)
    return width + len(data) * 8 + 15 + stuffed + FRAME_TAIL_BITS


def _classic_header(frame: CanFrame) -> tuple[int, int]:
    """(bits-as-int, width) for SOF through DLC of a classic frame."""
    rtr = 1 if frame.remote else 0
    if frame.extended:
        base = frame.can_id >> 18
        ext = frame.can_id & 0x3FFFF
        # SOF(0) base(11) SRR(1) IDE(1) ext(18) RTR r1(0) r0(0) DLC(4)
        value = ((base << 27) | (0b11 << 25) | (ext << 7)
                 | (rtr << 6) | frame.dlc)
        return value, 39
    # SOF(0) id(11) RTR IDE(0) r0(0) DLC(4)
    value = (frame.can_id << 7) | (rtr << 6) | frame.dlc
    return value, 19


def fd_frame_bit_length(frame: CanFrame, *, include_ifs: bool = True) -> tuple[int, int]:
    """(arbitration-phase bits, data-phase bits) for a CAN FD frame.

    This is an engineering approximation -- FD uses CRC-17/21 and fixed
    stuff bits -- sized so bus-load figures are within a few percent:

    - arbitration phase: SOF + id + control ≈ 30 bits (standard id),
      49 bits (extended), plus tail + IFS at nominal rate when the
      frame does not switch bitrate.
    - data phase: data bytes + CRC-17/21 + ~10% stuffing overhead.
    """
    arb = 49 if frame.extended else 30
    crc_bits = 17 if frame.dlc <= 16 else 21
    data_phase = frame.dlc * 8 + crc_bits
    data_phase += data_phase // 10  # stuffing overhead
    tail = FRAME_TAIL_BITS + (INTERFRAME_BITS if include_ifs else 0)
    if frame.brs:
        return (arb + tail, data_phase)
    return (arb + tail + data_phase, 0)
