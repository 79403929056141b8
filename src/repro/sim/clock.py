"""Virtual clock for the discrete-event kernel.

All simulation time is an integer count of microseconds since the start
of the run.  Integer time avoids floating-point drift, which matters
because CAN frame durations at 500 kb/s are a few hundred microseconds
and the fuzzer schedules frames on a 1 ms grid: any drift would change
arbitration outcomes and make runs irreproducible.
"""

from __future__ import annotations

from repro.sim.snapshot import Snapshottable

US = 1
"""One microsecond, the base tick."""

MS = 1_000
"""One millisecond in ticks."""

SECOND = 1_000_000
"""One second in ticks."""


def format_time(ticks: int) -> str:
    """Render a tick count as a human-readable ``s.mmm uuu`` string.

    >>> format_time(5_328_009)
    '5.328009s'
    """
    return f"{ticks / SECOND:.6f}s"


class SimClock(Snapshottable):
    """Monotonic virtual clock.

    Only the :class:`~repro.sim.kernel.Simulator` should advance the
    clock; components read it through :attr:`now`.  Snapshot support
    uses the default attribute capture: the clock's whole state is
    ``_now``, and restoring may legitimately "rewind" a diverged world
    because the restored clone is a different timeline, not a rewind
    of this one.
    """

    def __init__(self, start: int = 0) -> None:
        if start < 0:
            raise ValueError(f"clock cannot start at negative time {start}")
        self._now = int(start)

    @property
    def now(self) -> int:
        """Current simulation time in microseconds."""
        return self._now

    def advance_to(self, when: int) -> None:
        """Move the clock forward to ``when``.

        Raises:
            ValueError: if ``when`` is in the past; the kernel never
                rewinds time and a request to do so indicates a
                scheduling bug in the caller.
        """
        if when < self._now:
            raise ValueError(
                f"cannot rewind clock from {self._now} to {when}"
            )
        self._now = when

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={format_time(self._now)})"
