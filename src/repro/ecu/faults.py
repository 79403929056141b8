"""Vulnerability and fault models for simulated ECUs.

A :class:`Vulnerability` is a latent defect: a predicate over received
frames plus the effect triggering it has on the ECU.  The effects are
the failure modes the paper observed or cites:

- ``CRASH`` -- the ECU stops responding until power-cycled (the bench
  cluster's erratic behaviour; booFuzz-style "system failure").
- ``LATCH`` -- a state flag sticks even across power cycles (the
  cluster display that kept showing "crash", §VI).
- ``BRICK`` -- permanent death (Checkoway et al.'s bricked ECUs [25]).
- ``RESET`` -- spontaneous reboot (watchdog-style recovery).

The fuzzer has no knowledge of these predicates; finding them through
random input is the experiment.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

from repro.can.frame import CanFrame

Trigger = Callable[[CanFrame], bool]


class FaultEffect(enum.Enum):
    """What happens to the ECU when a vulnerability fires."""

    CRASH = "crash"
    LATCH = "latch"
    BRICK = "brick"
    RESET = "reset"


@dataclass(frozen=True)
class Vulnerability:
    """A latent defect reachable via bus input.

    Attributes:
        name: label used in findings and traces.
        trigger: predicate over a received frame.
        effect: consequence when the predicate is true.
        detail: free-form description (which register overflows, etc.).
    """

    name: str
    trigger: Trigger
    effect: FaultEffect
    detail: str = ""

    def fires_on(self, frame: CanFrame) -> bool:
        return self.trigger(frame)


@dataclass
class FaultModel:
    """The set of vulnerabilities baked into one ECU."""

    vulnerabilities: list[Vulnerability] = field(default_factory=list)

    def add(self, vulnerability: Vulnerability) -> None:
        self.vulnerabilities.append(vulnerability)

    def check(self, frame: CanFrame) -> Vulnerability | None:
        """First vulnerability triggered by ``frame``, or ``None``."""
        for vulnerability in self.vulnerabilities:
            if vulnerability.fires_on(frame):
                return vulnerability
        return None


# ----------------------------------------------------------------------
# Trigger builders for the defect classes the paper discusses
# ----------------------------------------------------------------------


def dlc_mismatch_trigger(can_id: int, expected_length: int) -> Trigger:
    """Fires when a known id arrives with an unexpected length.

    Handlers indexing fixed byte positions without a length check are
    a classic CAN parsing defect; a short frame triggers the
    out-of-bounds path.
    """
    def trigger(frame: CanFrame) -> bool:
        return (frame.can_id == can_id
                and len(frame.data) < expected_length)
    return trigger
