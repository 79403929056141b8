"""Failure-trace minimisation (delta debugging).

When an oracle fires, the campaign attaches the recent transmit window
to the finding -- but which of those steps actually triggered the
failure?  ``minimize_trace`` applies ddmin over the recorded sequence
against a replay predicate, turning "the conditions that caused it are
recorded" into the *minimal* conditions, which is what a triager
needs.

``minimize_trace`` is generic over the step type: any hashable item
works, so the same ddmin drives frame-level traces
(:class:`~repro.can.frame.CanFrame` sequences via
:class:`~repro.fuzz.replay.Replayer`) and request-level UDS traces
(``bytes`` sequences via :class:`~repro.uds.replay.UdsReplayer`).

Two properties of the candidate schedule matter for replay cost:

- Chunk removal iterates **last chunk first**.  Removing a trailing
  chunk leaves the candidate sharing its whole surviving prefix with
  the previous candidate, which is exactly what
  :class:`~repro.fuzz.replay.SnapshotReplayer`'s prefix-tree cache
  exploits; a fresh-build replayer is indifferent to the order.  The
  *result* is unchanged either way -- ddmin converges to a 1-minimal
  subsequence regardless of probe order, and both the baseline and the
  snapshot path run this same schedule, so their minimised traces are
  bit-identical.
- Duplicate candidates are served from a verdict memo.  ddmin revisits
  subsets whenever granularity changes; re-probing an already judged
  candidate is pure waste.  Only real predicate invocations count
  against ``max_tests``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

#: Replay predicate over a candidate step sequence (frames, UDS
#: request payloads, ...); must be deterministic.
TraceTest = Callable[[list], bool]


@dataclass
class MinimizeStats:
    """Probe accounting for one minimisation run.

    Attributes:
        tests_used: real predicate invocations (replays) consumed.
        cache_hits: duplicate candidates answered from the verdict
            memo without a replay.
        from_size: input size (steps of the trace).
        to_size: result size in the same unit.
        exhausted: ``True`` when ``max_tests`` ran out before
            1-minimality was established; the result is the best
            reduction reached, not necessarily minimal.
    """

    tests_used: int = 0
    cache_hits: int = 0
    from_size: int = 0
    to_size: int = 0
    exhausted: bool = False


def minimize_trace(steps: Sequence, still_fails: TraceTest, *,
                   max_tests: int = 10_000,
                   stats: MinimizeStats | None = None) -> list:
    """ddmin: the smallest subsequence for which ``still_fails`` holds.

    Args:
        steps: the recorded window in transmit order; items need only
            be hashable (CAN frames, UDS request bytes, ...).
        still_fails: replays a candidate subsequence against a fresh
            target and reports whether the failure reproduces.  It
            must be deterministic for minimisation to make sense.
        max_tests: bound on real predicate invocations; memoised
            duplicates are free.
        stats: optional accounting sink, filled in place.

    Returns:
        A 1-minimal subsequence (removing any single remaining chunk
        no longer reproduces the failure), or the best reduction so
        far if ``max_tests`` ran out (``stats.exhausted`` is set).

    Raises:
        ValueError: the full trace does not reproduce the failure --
            the replay harness is broken, and minimising against a
            flaky predicate would produce garbage.
    """
    if max_tests < 1:
        raise ValueError("max_tests must be at least 1")
    if stats is None:
        stats = MinimizeStats()
    trace = list(steps)
    stats.from_size = len(trace)
    stats.to_size = len(trace)
    verdicts: dict[tuple, bool] = {}

    def test(candidate: list) -> bool | None:
        """Memoised predicate; ``None`` means the budget ran out."""
        key = tuple(candidate)
        cached = verdicts.get(key)
        if cached is not None:
            stats.cache_hits += 1
            return cached
        if stats.tests_used >= max_tests:
            stats.exhausted = True
            return None
        stats.tests_used += 1
        verdict = bool(still_fails(candidate))
        verdicts[key] = verdict
        return verdict

    if not test(trace):
        raise ValueError(
            "the full trace does not reproduce the failure; fix the "
            "replay harness before minimising")
    granularity = 2
    while len(trace) >= 2:
        chunk_size = max(1, len(trace) // granularity)
        chunks = [trace[i:i + chunk_size]
                  for i in range(0, len(trace), chunk_size)]
        reduced = False
        # Last chunk first: each candidate keeps the longest possible
        # shared prefix with the full trace, maximising checkpoint
        # reuse in a prefix-caching replayer (see module docstring).
        for index in reversed(range(len(chunks))):
            candidate = [frame
                         for j, chunk in enumerate(chunks) if j != index
                         for frame in chunk]
            if not candidate:
                continue
            verdict = test(candidate)
            if verdict is None:
                stats.to_size = len(trace)
                return trace
            if verdict:
                trace = candidate
                granularity = max(2, granularity - 1)
                reduced = True
                break
        if not reduced:
            if granularity >= len(trace):
                break
            granularity = min(len(trace), granularity * 2)
    stats.to_size = len(trace)
    return trace
