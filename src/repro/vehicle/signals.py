"""DBC-like signal definitions and codecs.

The paper's Vector rig decodes raw CAN payloads into named engineering
signals (RPM, speed, coolant temperature) using a signal database; the
erratic traces of Fig 7 and the negative RPM of Fig 8 are *decoded*
values.  This module is our equivalent database layer.

Bit numbering follows the DBC conventions:

- little-endian (Intel): ``start_bit`` is the position of the signal's
  least-significant bit, positions counted LSB-first within each byte
  (bit 0 = byte 0 bit 0, bit 8 = byte 1 bit 0, ...).
- big-endian (Motorola): ``start_bit`` is the position of the signal's
  *most*-significant bit using the same position numbering; successive
  bits walk down within the byte and then continue at bit 7 of the
  next byte (the DBC "sawtooth").

Raw-to-physical conversion is ``physical = raw * scale + offset`` with
optional two's-complement signedness -- exactly the DBC model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.can.frame import CanFrame
from repro.sim.snapshot import shared_by_reference

#: Frames one :class:`MessageDef` memoises (see :meth:`MessageDef.frame`)
#: before the memo is cleared wholesale.  The target car's senders
#: produce a few hundred distinct value sets in all, so the bound is only
#: a safety valve for a sender whose values never repeat.
FRAME_MEMO_MAX = 1024


class SignalCodecError(ValueError):
    """Raised for definition or encoding errors."""


def _le_bit_positions(start_bit: int, length: int) -> list[int]:
    """Bit positions (LSB-first numbering) for an Intel signal,
    least-significant signal bit first."""
    return [start_bit + i for i in range(length)]


def _be_bit_positions(start_bit: int, length: int) -> list[int]:
    """Bit positions for a Motorola signal, least-significant first.

    Walks the DBC sawtooth from the MSB at ``start_bit``: within a
    byte, positions decrease; crossing a byte boundary jumps to bit 7
    of the next byte.  Returned LSB-first to match the Intel helper.
    """
    positions = []
    pos = start_bit
    for _ in range(length):
        positions.append(pos)
        if pos % 8 == 0:
            pos += 15  # bit 0 of byte n -> bit 7 of byte n+1
        else:
            pos -= 1
    return list(reversed(positions))


def _byte_segments(positions: list[int]) -> tuple[tuple[int, int, int, int],
                                                  ...]:
    """Compile LSB-first bit positions into per-byte runs.

    Each run is ``(byte, shift, mask, raw_offset)``: raw bits from
    ``raw_offset`` upward sit at bits ``shift`` upward of payload byte
    ``byte``, as many as ``mask`` has bits set.  Runs come in
    signal-bit order, so a codec that walks them meets a missing byte
    where the bit walk would, and moves a whole run with one
    shift-and-mask.
    """
    runs: list[list[int]] = []
    for raw_offset, pos in enumerate(positions):
        byte, shift = divmod(pos, 8)
        if runs:
            last = runs[-1]
            if last[0] == byte and last[1] + last[2] == shift:
                last[2] += 1
                continue
        runs.append([byte, shift, 1, raw_offset])
    return tuple((byte, shift, (1 << width) - 1, raw_offset)
                 for byte, shift, width, raw_offset in runs)


@shared_by_reference
@dataclass(frozen=True)
class SignalDef:
    """One signal within a CAN message.

    Attributes:
        name: signal name ("EngineSpeed").
        start_bit: DBC start bit (see module docstring for conventions).
        length: width in bits (1-64).
        byte_order: ``"little_endian"`` (Intel) or ``"big_endian"``.
        signed: two's-complement raw value.
        scale: physical = raw * scale + offset.
        offset: see ``scale``.
        unit: engineering unit for display ("rpm", "km/h").
        minimum/maximum: *documentation* range.  Deliberately NOT
            enforced on decode: the paper's Fig 8 point is that the
            simulator displays physically invalid values (negative
            RPM); clamping here would hide exactly the behaviour the
            experiment demonstrates.
    """

    name: str
    start_bit: int
    length: int
    byte_order: str = "little_endian"
    signed: bool = False
    scale: float = 1.0
    offset: float = 0.0
    unit: str = ""
    minimum: float | None = None
    maximum: float | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.length <= 64:
            raise SignalCodecError(
                f"signal {self.name!r}: length {self.length} out of 1..64")
        if self.byte_order not in ("little_endian", "big_endian"):
            raise SignalCodecError(
                f"signal {self.name!r}: unknown byte order "
                f"{self.byte_order!r}")
        if self.scale == 0:
            raise SignalCodecError(f"signal {self.name!r}: scale is zero")
        if self.start_bit < 0:
            raise SignalCodecError(
                f"signal {self.name!r}: negative start bit")
        if self.byte_order == "little_endian":
            positions = _le_bit_positions(self.start_bit, self.length)
        else:
            positions = _be_bit_positions(self.start_bit, self.length)
        # The compiled codec (not a field: a pure function of the
        # definition, so sharing the definition shares it).
        object.__setattr__(self, "_segments", _byte_segments(positions))

    # ------------------------------------------------------------------
    # Raw <-> bytes
    # ------------------------------------------------------------------
    def extract_raw(self, data: bytes) -> int:
        """Raw (unscaled) value from payload bytes.

        Raises:
            SignalCodecError: the payload is too short for this signal
                -- the defect class behind short-DLC parsing bugs; the
                database layer decides whether to surface or skip it.
        """
        raw = 0
        size = len(data)
        for byte, shift, mask, raw_offset in self._segments:
            if byte >= size:
                raise SignalCodecError(
                    f"signal {self.name!r} needs byte {byte} but "
                    f"payload has {size} bytes")
            raw |= ((data[byte] >> shift) & mask) << raw_offset
        if self.signed and raw >= (1 << (self.length - 1)):
            raw -= 1 << self.length
        return raw

    def insert_raw(self, data: bytearray, raw: int) -> None:
        """Write a raw value into payload bytes in place."""
        if self.signed:
            low = -(1 << (self.length - 1))
            high = (1 << (self.length - 1)) - 1
        else:
            low, high = 0, (1 << self.length) - 1
        if not low <= raw <= high:
            raise SignalCodecError(
                f"signal {self.name!r}: raw value {raw} does not fit in "
                f"{'signed ' if self.signed else ''}{self.length} bits")
        if raw < 0:
            raw += 1 << self.length
        size = len(data)
        for byte, shift, mask, raw_offset in self._segments:
            if byte >= size:
                raise SignalCodecError(
                    f"signal {self.name!r} needs byte {byte} but "
                    f"payload has {size} bytes")
            data[byte] = ((data[byte] & ~(mask << shift))
                          | (((raw >> raw_offset) & mask) << shift))

    # ------------------------------------------------------------------
    # Physical <-> raw
    # ------------------------------------------------------------------
    def to_physical(self, raw: int) -> float:
        return raw * self.scale + self.offset

    def to_raw(self, physical: float) -> int:
        return round((physical - self.offset) / self.scale)

    def decode(self, data: bytes) -> float:
        """Physical value from payload bytes."""
        return self.to_physical(self.extract_raw(data))

    def encode(self, data: bytearray, physical: float) -> None:
        """Write a physical value into payload bytes in place."""
        self.insert_raw(data, self.to_raw(physical))


@shared_by_reference
@dataclass(frozen=True)
class MessageDef:
    """One CAN message: identifier, length, cycle time and signals."""

    name: str
    can_id: int
    length: int
    signals: tuple[SignalDef, ...] = ()
    cycle_time_ms: int | None = None
    sender: str = ""
    extended: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 8:
            raise SignalCodecError(
                f"message {self.name!r}: classic CAN length {self.length}")
        names = [s.name for s in self.signals]
        if len(names) != len(set(names)):
            raise SignalCodecError(
                f"message {self.name!r}: duplicate signal names")
        # The frame memo of :meth:`frame` (not a field: a pure memo, so
        # sharing the definition -- snapshots do -- shares it warm).
        object.__setattr__(self, "_frames", {})

    def signal(self, name: str) -> SignalDef:
        for sig in self.signals:
            if sig.name == name:
                return sig
        raise KeyError(f"message {self.name!r} has no signal {name!r}")

    def encode(self, values: dict[str, float]) -> bytes:
        """Payload bytes for the given physical values.

        Unnamed signals encode as zero; unknown names raise, because a
        silently dropped signal value is a test-authoring bug.
        """
        known = {s.name for s in self.signals}
        unknown = set(values) - known
        if unknown:
            raise SignalCodecError(
                f"message {self.name!r}: unknown signals {sorted(unknown)}")
        data = bytearray(self.length)
        for sig in self.signals:
            if sig.name in values:
                sig.encode(data, values[sig.name])
        return bytes(data)

    def frame(self, values: dict[str, float]) -> CanFrame:
        """The frame this message carries for the given physical values.

        The first time, the frame is built through :meth:`encode` and
        the validating :class:`CanFrame` constructor; after that the
        same (immutable) frame comes from a memo keyed by
        ``tuple(values.items())``.  A periodic sender that repeats its
        values then costs one dict lookup and reuses a frame whose hash
        and wire-bit length are already cached.  Whatever ``encode``
        raises propagates, and nothing is memoised for it.
        """
        key = tuple(values.items())
        memo = self._frames
        frame = memo.get(key)
        if frame is None:
            frame = CanFrame(self.can_id, self.encode(values),
                             extended=self.extended)
            if len(memo) >= FRAME_MEMO_MAX:
                memo.clear()
            memo[key] = frame
        return frame

    def decode(self, data: bytes, *, strict: bool = False) -> dict[str, float]:
        """Physical values from payload bytes.

        Signals extending past a short payload are skipped unless
        ``strict``; a truncated frame on the wire simply carries fewer
        signals, and the tracing layer must not explode on fuzz input.
        """
        values = {}
        for sig in self.signals:
            try:
                values[sig.name] = sig.decode(data)
            except SignalCodecError:
                if strict:
                    raise
        return values


@dataclass(frozen=True)
class DecodedMessage:
    """A frame decoded against the database."""

    time: int
    message: MessageDef
    values: dict[str, float] = field(default_factory=dict)


class SignalDatabase:
    """A set of message definitions, indexed by id and name."""

    def __init__(self, messages: list[MessageDef] | None = None) -> None:
        self._by_id: dict[int, MessageDef] = {}
        self._by_name: dict[str, MessageDef] = {}
        for message in messages or []:
            self.add(message)

    def add(self, message: MessageDef) -> None:
        if message.can_id in self._by_id:
            raise SignalCodecError(
                f"duplicate message id 0x{message.can_id:X}")
        if message.name in self._by_name:
            raise SignalCodecError(f"duplicate message name {message.name!r}")
        self._by_id[message.can_id] = message
        self._by_name[message.name] = message

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, can_id: int) -> bool:
        return can_id in self._by_id

    @property
    def messages(self) -> tuple[MessageDef, ...]:
        return tuple(self._by_id.values())

    @property
    def ids(self) -> tuple[int, ...]:
        """All defined identifiers (the 'known message ids' used for
        targeted fuzzing, §VII)."""
        return tuple(sorted(self._by_id))

    def by_id(self, can_id: int) -> MessageDef:
        if can_id not in self._by_id:
            raise KeyError(f"no message with id 0x{can_id:X}")
        return self._by_id[can_id]

    def by_name(self, name: str) -> MessageDef:
        if name not in self._by_name:
            raise KeyError(f"no message named {name!r}")
        return self._by_name[name]

    def decode_payload(self, can_id: int,
                       data: bytes) -> dict[str, float] | None:
        """Decode a payload, or ``None`` for an unknown identifier."""
        message = self._by_id.get(can_id)
        if message is None:
            return None
        return message.decode(data)

