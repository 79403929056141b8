"""Test drivers for the CAN layer."""

from __future__ import annotations

from random import Random

from repro.can.frame import CanFrame
from repro.can.node import CanController
from repro.sim.clock import MS
from repro.sim.process import PeriodicProcess


class BabblingIdiot:
    """A faulty node spamming a top-priority id -- the classic babbling
    idiot failure the FlexRay literature guards against.

    Because CAN arbitration always yields to the lowest id, a babbler
    transmitting id 0 at a high rate starves every other node -- the
    bus-DoS condition the paper's §VI warns a careless fuzzer creates.
    The campaign supervisor tests use this node to manufacture
    utilisation saturation deterministically.

    Args:
        sim: simulation executive.
        bus: bus to pollute.
        can_id: identifier to spam (default 0, beats everything).
        period: ticks between transmissions.
        duty: probability each tick actually transmits (needs ``rng``
            when < 1), so the babble can be made intermittent.
    """

    def __init__(self, sim, bus, *, can_id: int = 0,
                 payload: bytes = b"\xff" * 8, period: int = 1 * MS,
                 duty: float = 1.0, rng: Random | None = None,
                 name: str = "babbler") -> None:
        if not 0.0 <= duty <= 1.0:
            raise ValueError(f"duty must be in [0, 1], got {duty!r}")
        if duty < 1.0 and rng is None:
            raise ValueError("duty < 1 needs an rng stream")
        # Depth 2: one frame on the wire plus one pending, so the
        # babbler contends (and wins) at every end-of-frame -- with a
        # deeper backlog nothing changes, and depth 1 would make each
        # babble tick abort its own in-flight frame.
        self.controller = CanController(name, tx_queue_limit=2)
        self.controller.attach(bus)
        self.frame = CanFrame(can_id, payload)
        self.duty = duty
        self._rng = rng
        self.frames_babbled = 0
        self._process = PeriodicProcess(sim, period, self._babble,
                                        label=f"{name}:babble")

    def start(self) -> None:
        self._process.start()

    def stop(self) -> None:
        self._process.stop()
        self.controller.clear_tx()

    def _babble(self) -> None:
        if self.duty < 1.0 and self._rng.random() >= self.duty:
            return
        if self.controller.pending_tx() >= 2:
            return  # wire + mailbox already full of babble
        try:
            self.controller.send(self.frame)
        except Exception:
            return  # bus-off or disabled: a dead babbler is a quiet one
        self.frames_babbled += 1
