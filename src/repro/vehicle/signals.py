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

from repro.sim.snapshot import shared_by_reference


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

    def _positions(self) -> list[int]:
        if self.byte_order == "little_endian":
            return _le_bit_positions(self.start_bit, self.length)
        return _be_bit_positions(self.start_bit, self.length)

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
        for bit_index, pos in enumerate(self._positions()):
            byte_index, bit_in_byte = divmod(pos, 8)
            if byte_index >= len(data):
                raise SignalCodecError(
                    f"signal {self.name!r} needs byte {byte_index} but "
                    f"payload has {len(data)} bytes")
            bit = (data[byte_index] >> bit_in_byte) & 1
            raw |= bit << bit_index
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
        for bit_index, pos in enumerate(self._positions()):
            byte_index, bit_in_byte = divmod(pos, 8)
            if byte_index >= len(data):
                raise SignalCodecError(
                    f"signal {self.name!r} needs byte {byte_index} but "
                    f"payload has {len(data)} bytes")
            if (raw >> bit_index) & 1:
                data[byte_index] |= 1 << bit_in_byte
            else:
                data[byte_index] &= ~(1 << bit_in_byte)

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

