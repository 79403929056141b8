"""Traffic analysis and reverse-engineering helpers.

The paper (§II): "often the only way to determine what a particular
CAN message does is to capture the network packets while operating a
vehicle feature" -- and fuzzing's main automotive use so far "has been
in helping to find how vehicle systems function".  This package is
that workflow: capture, id statistics, per-byte profiling and capture
diffing.
"""

from repro.analysis.bytefield import ByteFieldProfile, profile_id
from repro.analysis.capture import BusCapture
from repro.analysis.diffing import CaptureDiff, diff_captures
from repro.analysis.idstats import observed_ids

__all__ = [
    "BusCapture",
    "observed_ids",
    "ByteFieldProfile",
    "profile_id",
    "CaptureDiff",
    "diff_captures",
]
