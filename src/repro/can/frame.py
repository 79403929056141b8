"""CAN frame representation and validation.

Models classic CAN 2.0 data/remote frames (11-bit standard and 29-bit
extended identifiers, 0-8 data bytes) plus CAN FD data frames (up to 64
bytes), which the paper lists as future work ("apply the techniques to
the Flexible Data-rate version of CAN").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.snapshot import shared_by_reference

MAX_STANDARD_ID = 0x7FF
"""Largest 11-bit identifier (2047); the paper's target uses these."""

MAX_EXTENDED_ID = 0x1FFF_FFFF
"""Largest 29-bit identifier."""

MAX_DATA_CLASSIC = 8
"""Classic CAN payload limit in bytes."""

MAX_DATA_FD = 64
"""CAN FD payload limit in bytes."""

#: Valid CAN FD payload sizes (DLC encodings above 8 are quantised).
FD_VALID_SIZES = (0, 1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 20, 24, 32, 48, 64)


class FrameError(ValueError):
    """Raised when constructing a frame that violates the CAN spec."""


# Bound on first use by CanFrame.wire_bit_lengths (bitstuff imports this
# module, so binding at import time would be circular).
_classic_wire_bits = None
_fd_frame_bit_length = None


def fd_round_size(size: int) -> int:
    """Round a payload size up to the nearest valid CAN FD size.

    >>> fd_round_size(9)
    12
    """
    for valid in FD_VALID_SIZES:
        if size <= valid:
            return valid
    raise FrameError(f"payload of {size} bytes exceeds CAN FD maximum")


@shared_by_reference
@dataclass(frozen=True, slots=True)
class CanFrame:
    """An immutable CAN frame.

    Attributes:
        can_id: the arbitration identifier.
        data: payload bytes (empty for remote frames).
        extended: ``True`` for a 29-bit identifier.
        remote: ``True`` for a remote (RTR) frame; RTR frames carry a
            DLC but no data bytes.
        fd: ``True`` for a CAN FD frame (no remote frames exist in FD).
        brs: FD bit-rate switch -- data phase runs at the data bitrate.
    """

    can_id: int
    data: bytes = b""
    extended: bool = False
    remote: bool = False
    fd: bool = False
    brs: bool = False
    #: Lazily computed on-wire bit lengths (see :meth:`wire_bit_lengths`).
    #: Frames are immutable, so the cache never needs invalidating; it is
    #: excluded from comparison/hashing and repr.
    _wire_bits: "tuple[int, int] | None" = field(
        default=None, init=False, repr=False, compare=False)
    #: Lazily cached hash (see ``__hash__`` below).
    _hash: "int | None" = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.data.__class__ is not bytes:
            object.__setattr__(self, "data", bytes(self.data))
        limit = MAX_EXTENDED_ID if self.extended else MAX_STANDARD_ID
        if not 0 <= self.can_id <= limit:
            kind = "extended" if self.extended else "standard"
            raise FrameError(
                f"id 0x{self.can_id:X} out of range for {kind} frame "
                f"(max 0x{limit:X})"
            )
        if self.fd:
            if self.remote:
                raise FrameError("CAN FD has no remote frames")
            if len(self.data) > MAX_DATA_FD:
                raise FrameError(
                    f"FD payload of {len(self.data)} bytes exceeds "
                    f"{MAX_DATA_FD}"
                )
            if len(self.data) not in FD_VALID_SIZES:
                raise FrameError(
                    f"FD payload of {len(self.data)} bytes is not a valid "
                    f"FD size; use fd_round_size() and pad"
                )
        else:
            if len(self.data) > MAX_DATA_CLASSIC:
                raise FrameError(
                    f"classic CAN payload of {len(self.data)} bytes "
                    f"exceeds {MAX_DATA_CLASSIC}"
                )
        if self.remote and self.data:
            raise FrameError("remote frames carry no data bytes")
        if self.brs and not self.fd:
            raise FrameError("bit-rate switch is only valid on FD frames")

    def wire_bit_lengths(self) -> tuple[int, int]:
        """``(nominal_bits, data_phase_bits)`` on the wire, without IFS.

        The stuffing-aware bit walk is the hottest computation in a
        fuzz campaign (one per transmitted frame), and the result is a
        pure function of the immutable frame contents -- so it is
        computed once per frame object and cached.  Classic frames
        report all bits in the nominal phase (``data_phase_bits`` = 0);
        FD frames split at the BRS bit.  The interframe space is *not*
        included: callers add it at the timing layer so one cached
        value serves both spacings.
        """
        cached = self._wire_bits
        if cached is None:
            global _classic_wire_bits, _fd_frame_bit_length
            if _classic_wire_bits is None:
                # One-time lazy import; bitstuff imports this module, so
                # the binding cannot happen at import time.
                from repro.can.bitstuff import (_classic_wire_bits as cwb,
                                                fd_frame_bit_length)
                _classic_wire_bits = cwb
                _fd_frame_bit_length = fd_frame_bit_length
            if self.fd:
                cached = _fd_frame_bit_length(self, include_ifs=False)
            else:
                cached = (_classic_wire_bits(self), 0)
            object.__setattr__(self, "_wire_bits", cached)
        return cached

    @property
    def dlc(self) -> int:
        """Data length code.

        For classic frames this equals ``len(data)``.  For FD frames the
        DLC is the code for the (already validated) payload size; we
        expose the byte count, which is what every consumer wants.
        """
        return len(self.data)

    def id_hex(self) -> str:
        """Identifier formatted the way the paper prints it (``04B0``)."""
        width = 8 if self.extended else 4
        return f"{self.can_id:0{width}X}"

    def data_hex(self) -> str:
        """Payload as space-separated hex bytes (``1C 21 17 71``)."""
        return " ".join(f"{b:02X}" for b in self.data)

    def replace_data(self, data: bytes) -> "CanFrame":
        """A copy of this frame with different payload bytes."""
        return CanFrame(self.can_id, data, extended=self.extended,
                        remote=self.remote, fd=self.fd, brs=self.brs)

    # The snapshot replayer's prefix tree and ddmin's verdict memo hash frames
    # on every probe step; the generated dataclass hash walks all six
    # fields each call.  Frames are immutable, so hash once and keep it.
    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash((self.can_id, self.data, self.extended,
                           self.remote, self.fd, self.brs))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __str__(self) -> str:
        flags = "".join((
            "x" if self.extended else "",
            "r" if self.remote else "",
            "F" if self.fd else "",
        ))
        body = self.data_hex() if not self.remote else f"RTR dlc={self.dlc}"
        return f"{self.id_hex()}{('[' + flags + ']') if flags else ''} " \
               f"[{self.dlc}] {body}".rstrip()


def trusted_frame(can_id: int, data: bytes, extended: bool = False,
                  fd: bool = False) -> CanFrame:
    """Build a (non-remote) data frame, skipping validation.

    Hot-path constructor for callers whose inputs are already known
    valid -- the fuzz generator draws identifiers and lengths from
    pools the config validated once.  Produces a frame identical to
    ``CanFrame(can_id, data, extended=extended, fd=fd)``; the checks
    in ``__post_init__`` are the only thing skipped.
    """
    frame = CanFrame.__new__(CanFrame)
    osa = object.__setattr__
    osa(frame, "can_id", can_id)
    osa(frame, "data", data)
    osa(frame, "extended", extended)
    osa(frame, "remote", False)
    osa(frame, "fd", fd)
    osa(frame, "brs", False)
    osa(frame, "_wire_bits", None)
    osa(frame, "_hash", None)
    return frame


@shared_by_reference
@dataclass(frozen=True, slots=True)
class TimestampedFrame:
    """A frame plus the bus time (ticks) at which it finished transmitting.

    ``sender`` is the transmitting controller's name.  A real passive
    tap cannot see the sender, but a testing adaptor always knows its
    *own* transmissions -- oracles use this to ignore the fuzzer's own
    frames when watching for a response.
    """

    time: int
    frame: CanFrame
    channel: str = field(default="")
    sender: str = field(default="")

    def __str__(self) -> str:
        return f"({self.time / 1000:.3f}ms) {self.frame}"
