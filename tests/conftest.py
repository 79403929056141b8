"""Shared fixtures for the test suite."""

from __future__ import annotations

import errno
import multiprocessing

import pytest

from repro.can.bus import CanBus
from repro.can.node import CanController
from repro.sim.kernel import Simulator


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def bus(sim: Simulator) -> CanBus:
    return CanBus(sim, name="test-bus")


@pytest.fixture
def node_pair(bus: CanBus) -> tuple[CanController, CanController]:
    """Two controllers attached to the same bus."""
    a = CanController("node-a")
    a.attach(bus)
    b = CanController("node-b")
    b.attach(bus)
    return a, b


class RefusingContext:
    """A multiprocessing context on an OS out of processes: pipes work,
    every ``Process`` fails the way ``fork`` does (``EAGAIN``)."""

    def Pipe(self, duplex: bool = True):
        return multiprocessing.get_context().Pipe(duplex)

    def Process(self, *args, **kwargs):
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")


@pytest.fixture
def refusing_mp_context() -> RefusingContext:
    """An ``mp_context`` whose every worker spawn is refused."""
    return RefusingContext()
