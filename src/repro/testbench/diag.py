"""Diagnostic test bench: one UDS server ECU and a tester client.

Deliberately *quiet*: the target ECU runs no cyclic tasks, so the bus
carries nothing but the tester's own requests.  That is how a real
diagnostic session looks (normal communication is suppressed while
reprogramming), and it is what makes two campaign guarantees cheap:

- liveness is probed with TesterPresent instead of watching heartbeat
  frames, so a fuzz-triggered power cycle cannot shift a cyclic task's
  phase and desynchronise later bus arbitration;
- the world between requests is a pure function of the clock, so a
  resume can rebuild a fresh bench, fast-forward the clock to the
  checkpoint tick and continue bit-identically -- including the
  server's time-derived security seeds.
"""

from __future__ import annotations

from repro.can.bus import CanBus
from repro.ecu.base import Ecu, EcuState
from repro.sim.clock import MS, SECOND
from repro.sim.kernel import Simulator
from repro.sim.random import RandomStreams
from repro.uds.client import UdsClient
from repro.uds.server import UdsServer

#: Tester request timeout.
CLIENT_TIMEOUT = 200 * MS


class DiagTestbench:
    """Simulator + bus + UDS server ECU + tester client.

    Args:
        seed: root seed for the bench's random streams (the generator
            draws from ``streams.stream("uds-fuzzer")``).
        boot_time: target ECU boot delay.
        key_algorithm: seed-to-key routine installed in the target's
            security access (default: the server's stock XOR); the
            tester is *not* told -- state generators must learn it.
    """

    def __init__(self, *, seed: int = 0, boot_time: int = 20 * MS,
                 name: str = "diag-bench",
                 key_algorithm=None) -> None:
        self.seed = seed
        self.sim = Simulator()
        self.streams = RandomStreams(seed)
        self.bus = CanBus(self.sim, name=name)
        self.ecu = Ecu(self.sim, self.bus, "diag-target",
                       boot_time=boot_time)
        self.server = UdsServer(self.ecu, key_algorithm=key_algorithm)
        self.client = UdsClient(self.sim, self.bus, timeout=CLIENT_TIMEOUT)

    def power_on(self, settle_seconds: float = 0.05) -> None:
        """Boot the target and let the bench settle."""
        self.ecu.power_on()
        self.sim.run_for(round(settle_seconds * SECOND))

    def crashed(self) -> bool:
        """Replay verdict: did the target go down?"""
        return self.ecu.state is EcuState.CRASHED

    def hung(self) -> bool:
        """Replay verdict: is the running target ignoring requests?

        True while the server application is wedged in the seeded
        NRC-path hang -- the ECU looks alive on the bus (frames are
        acknowledged, ISO-TP flow control still answers) but no request
        ever gets a response.
        """
        return self.sim.now < self.server._stalled_until

    def failed(self) -> bool:
        """Combined replay verdict: crashed *or* hung.

        The probe :class:`repro.testbench.factory.UdsReplayFactory`
        hands to replayers -- either loss mode confirms a liveness
        finding.
        """
        return self.crashed() or self.hung()
