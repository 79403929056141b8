"""Seeded cross-layer chaos engineering for the fuzzing service.

One :class:`~repro.chaos.schedule.ChaosSchedule` drives four
injectors -- storage IO faults, worker process signals, service clock
skew/jumps, and a mangling network proxy -- against a live
orchestrator + API stack, while the drill runner checks the standing
invariants (at-least-once execution, exactly-once bit-identical
results, consistent reopened state).  Every run is reproducible from
its ``(seed, schedule)`` pair.
"""

from repro.chaos.clock import SkewedClock
from repro.chaos.controller import ChaosController
from repro.chaos.network import ChaosProxy
from repro.chaos.runner import ChaosReport, run_chaos_drill
from repro.chaos.schedule import ChaosSchedule
from repro.chaos.storage import ChaosStoreFactory
from repro.chaos.workload import (ExplodingFactory, HogFactory,
                                  ThrottledUdsFactory,
                                  register_chaos_kinds)

__all__ = [
    "ChaosController",
    "ChaosProxy",
    "ChaosReport",
    "ChaosSchedule",
    "ChaosStoreFactory",
    "ExplodingFactory",
    "HogFactory",
    "SkewedClock",
    "ThrottledUdsFactory",
    "register_chaos_kinds",
    "run_chaos_drill",
]
