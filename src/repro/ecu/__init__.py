"""ECU framework.

Every simulated ECU -- the target car's powertrain/body nodes, the
instrument cluster, the bench-top Arduino stand-ins -- is built on
:class:`~repro.ecu.base.Ecu`: lifecycle (off / boot / run / crashed /
bricked), cyclic transmit tasks, id-dispatched receive handlers, an
optional watchdog and a vulnerability-driven fault model.

The fault model is what makes the substrate *fuzzable*: the paper's
findings (a cluster that latches a "crash" message, ECUs that brick)
exist in our ECUs as injected vulnerabilities reachable only through
unusual inputs, which is exactly the class of defect fuzzing hunts.
"""

from repro.ecu.base import Ecu, EcuState
from repro.ecu.faults import (
    FaultEffect,
    FaultModel,
    Vulnerability,
    dlc_mismatch_trigger,
)
from repro.ecu.modes import OperatingMode, ModeManager
from repro.ecu.supervisor import DiagnosticTroubleCode, EcuSupervisor
from repro.ecu.watchdog import Watchdog

__all__ = [
    "Ecu",
    "EcuState",
    "FaultModel",
    "FaultEffect",
    "Vulnerability",
    "dlc_mismatch_trigger",
    "OperatingMode",
    "ModeManager",
    "Watchdog",
    "EcuSupervisor",
    "DiagnosticTroubleCode",
]
