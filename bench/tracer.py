"""In-memory call tracer for the benchmark's traced run (``--trace 1``).

The tracer replaces public functions and methods of the program with
timing wrappers, from the benchmark's own files.  It must be installed
before any world is built: campaigns bind hot methods at construction
(``FuzzCampaign`` keeps ``adapter.write`` as an attribute), and only a
class-level wrapper is seen through such a binding.

Every wrapped call adds to three aggregates under its metric name:
calls, total seconds and self seconds (the call's duration minus the
duration of the wrapped calls nested inside it).  Coarse boundaries
(trial, hunt, probe, job, HTTP request) are also recorded as spans:
name, start, end, parent span and the id of the trial, finding or job
the workload is working on.  Spans stay in memory and are written out
once, when the run ends.

The tracer reads ``time.perf_counter`` only.  It never touches the
simulated clock or an RNG, so the traced run computes exactly what the
untraced run computes; the benchmark checks that by fingerprint.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict


class Tracer:
    """Counters, total/self times and spans of wrapped calls."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        #: Free-form counters the workloads or result hooks add to.
        self.counts: dict[str, float] = defaultdict(float)
        #: Timestamped per-key events (e.g. ``job-leased`` by job id).
        self.marks: dict[str, dict] = defaultdict(dict)
        self.spans: list[dict] = []
        #: Trial, finding or job the workload is currently driving;
        #: stamped on every span opened meanwhile.
        self.ident: str | None = None
        self._frames: list[list] = []
        self._open_spans: list[int] = []

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _wrapper(self, func, name: str, span: bool, on_result):
        calls, total, self_time = self.calls, self.total, self.self_time
        frames, open_spans, spans = self._frames, self._open_spans, self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            index = -1
            if span:
                index = len(spans)
                spans.append({"name": name, "start": clock(), "end": None,
                              "parent": open_spans[-1] if open_spans
                              else None, "id": self.ident})
                open_spans.append(index)
            frames.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                frames.pop()
                if frames:
                    frames[-1][0] += elapsed
                calls[name] += 1
                total[name] += elapsed
                self_time[name] += elapsed - frame[0]
                if span:
                    spans[index]["end"] = end
                    open_spans.pop()
            if on_result is not None:
                on_result(self, result, args)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        traced.__qualname__ = getattr(func, "__qualname__", name)
        return traced

    def wrap_method(self, owner: type, attr: str, name: str, *,
                    span: bool = False, on_result=None) -> None:
        """Wrap ``owner.attr`` (a function or property) in place."""
        original = owner.__dict__.get(attr)
        if original is None:
            original = getattr(owner, attr)
        if isinstance(original, property):
            setattr(owner, attr, property(
                self._wrapper(original.fget, name, span, on_result)))
        elif isinstance(original, (staticmethod, classmethod)):
            setattr(owner, attr, type(original)(
                self._wrapper(original.__func__, name, span, on_result)))
        else:
            setattr(owner, attr, self._wrapper(original, name, span,
                                               on_result))

    def wrap_function(self, module, attr: str, name: str, *,
                      span: bool = False, on_result=None) -> None:
        """Wrap a module-level function everywhere it was imported.

        ``from module import f`` copies the binding into the importing
        module, so every loaded ``repro`` module holding the original
        object is repointed at the wrapper.
        """
        original = getattr(module, attr)
        traced = self._wrapper(original, name, span, on_result)
        for loaded in list(sys.modules.values()):
            if (getattr(loaded, "__name__", "").startswith("repro")
                    and getattr(loaded, attr, None) is original):
                setattr(loaded, attr, traced)
        setattr(module, attr, traced)

    def mark(self, kind: str, key: str) -> None:
        """Timestamp the first occurrence of ``key`` under ``kind``."""
        self.marks[kind].setdefault(key, time.perf_counter())

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def top_level_seconds(self) -> float:
        """Duration covered by wrapped calls that had no wrapped caller.

        Self times of nested wrappers add up to exactly this, so the
        workload time minus it is the unattributed residual.
        """
        return sum(self.self_time.values())

    def write(self, path) -> None:
        """Write aggregates and spans as one JSON document."""
        payload = {
            "aggregates": {name: {"calls": self.calls[name],
                                  "total_s": self.total[name],
                                  "self_s": self.self_time[name]}
                           for name in sorted(self.calls)},
            "counts": dict(self.counts),
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
