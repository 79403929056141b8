"""Fuzzer configuration: the paper's Table III, as a dataclass.

Table III lists the fuzzable elements of a CAN data packet for the
target vehicle:

====================  =======================  ==========================
Item                  Range                    Description
====================  =======================  ==========================
CAN Id                {0, 1, 2, ..., 2047}     All standard message ids
Payload length        {0, 1, 2, ..., 8}        Vary message length
Payload byte          {0, 1, 2, ..., 255}      Vary payload bytes
Rate                                           Vary transmission interval
====================  =======================  ==========================

(The paper's table prints the byte range upper bound as 256; a byte
holds 0-255 and the fuzzer's measured mean of 127 confirms the
uniform 0-255 draw.)

The configuration also covers the paper's targeted mode ("fuzzing
around known message ids monitored on the CAN bus, or being informed
by the design") via ``id_choices``, and the Fig 3 UI's bit-variation
control via the bit-walk generator parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.can.frame import MAX_DATA_CLASSIC, MAX_DATA_FD, MAX_STANDARD_ID
from repro.sim.clock import MS


class FuzzConfigError(ValueError):
    """Raised for inconsistent fuzzer parameters."""


@dataclass(frozen=True)
class FuzzConfig:
    """Parameters controlling fuzz frame generation and transmission.

    Attributes:
        id_min / id_max: inclusive identifier range.
        id_choices: explicit identifier set; overrides the range when
            set (targeted fuzzing around known ids).
        dlc_min / dlc_max: inclusive payload-length range.
        dlc_choices: explicit length set; overrides the range when set.
        byte_min / byte_max: inclusive payload byte-value range.
        interval: ticks between fuzz frames.  The paper's fuzzer "has a
            maximum message transmission rate of one message per
            millisecond"; 1 ms is the default and the minimum enforced.
        min_interval: floor for ``interval``.
        extended_ids: generate 29-bit identifiers.
        fd: generate CAN FD frames (payloads beyond 8 bytes).
        seed_label: RNG stream name, so two fuzzers in one simulation
            draw independently.
    """

    id_min: int = 0
    id_max: int = MAX_STANDARD_ID
    id_choices: tuple[int, ...] | None = None
    dlc_min: int = 0
    dlc_max: int = MAX_DATA_CLASSIC
    dlc_choices: tuple[int, ...] | None = None
    byte_min: int = 0
    byte_max: int = 255
    interval: int = 1 * MS
    min_interval: int = 1 * MS
    extended_ids: bool = False
    fd: bool = False
    seed_label: str = "fuzzer"

    def __post_init__(self) -> None:
        id_limit = MAX_STANDARD_ID if not self.extended_ids else 0x1FFFFFFF
        if not 0 <= self.id_min <= self.id_max <= id_limit:
            raise FuzzConfigError(
                f"id range [{self.id_min}, {self.id_max}] invalid "
                f"(limit 0x{id_limit:X})")
        dlc_limit = MAX_DATA_FD if self.fd else MAX_DATA_CLASSIC
        if not 0 <= self.dlc_min <= self.dlc_max <= dlc_limit:
            raise FuzzConfigError(
                f"DLC range [{self.dlc_min}, {self.dlc_max}] invalid "
                f"(limit {dlc_limit})")
        if not 0 <= self.byte_min <= self.byte_max <= 255:
            raise FuzzConfigError(
                f"byte range [{self.byte_min}, {self.byte_max}] invalid")
        if self.interval < self.min_interval:
            raise FuzzConfigError(
                f"interval {self.interval} below the fuzzer minimum "
                f"{self.min_interval} (1 frame/ms in the paper)")
        if self.id_choices is not None:
            if not self.id_choices:
                raise FuzzConfigError("id_choices must not be empty")
            bad = [i for i in self.id_choices if not 0 <= i <= id_limit]
            if bad:
                raise FuzzConfigError(f"id_choices out of range: {bad}")
        if self.dlc_choices is not None:
            if not self.dlc_choices:
                raise FuzzConfigError("dlc_choices must not be empty")
            bad = [d for d in self.dlc_choices
                   if not 0 <= d <= dlc_limit]
            if bad:
                raise FuzzConfigError(f"dlc_choices out of range: {bad}")

    # ------------------------------------------------------------------
    # Derived sets
    # ------------------------------------------------------------------
    def identifier_pool(self) -> tuple[int, ...] | range:
        """The identifiers the generator may draw from."""
        if self.id_choices is not None:
            return self.id_choices
        return range(self.id_min, self.id_max + 1)

    def dlc_pool(self) -> tuple[int, ...] | range:
        """The payload lengths the generator may draw from."""
        if self.dlc_choices is not None:
            return self.dlc_choices
        return range(self.dlc_min, self.dlc_max + 1)

    @property
    def id_count(self) -> int:
        pool = self.identifier_pool()
        return len(pool)

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def full_range(cls, **overrides) -> "FuzzConfig":
        """Table III exactly: every standard id, DLC 0-8, bytes 0-255."""
        return cls(**overrides)

    @classmethod
    def targeted(cls, ids: tuple[int, ...], **overrides) -> "FuzzConfig":
        """Fuzz only around known identifiers (§VII's recommended mode)."""
        return cls(id_choices=tuple(ids), **overrides)

    def describe(self) -> list[tuple[str, str, str]]:
        """Rows of (item, range, description) -- Table III's layout."""
        if self.id_choices is not None:
            id_range = "{" + ", ".join(str(i) for i in self.id_choices) + "}"
            id_desc = "Targeted message ids"
        else:
            id_range = f"{{{self.id_min}, ..., {self.id_max}}}"
            id_desc = "All standard message ids"
        if self.dlc_choices is not None:
            dlc_range = "{" + ", ".join(
                str(d) for d in self.dlc_choices) + "}"
        else:
            dlc_range = f"{{{self.dlc_min}, ..., {self.dlc_max}}}"
        return [
            ("CAN Id", id_range, id_desc),
            ("Payload length", dlc_range, "Vary message length"),
            ("Payload byte",
             f"{{{self.byte_min}, ..., {self.byte_max}}}",
             "Vary payload bytes"),
            ("Rate", f"{self.interval} us interval",
             "Vary transmission interval"),
        ]
