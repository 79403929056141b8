"""Virtual CAN bus substrate.

The paper's fuzzer talks to its targets over a physical CAN bus at
500 kb/s through a PCAN-USB adaptor.  This package is the software
replacement for that hardware: a bit-timing-accurate simulated bus with
CSMA/CR arbitration, CRC-15, bit-stuffing-aware frame durations, error
signalling and a PCAN-Basic-style adapter API.

Public surface:

- :class:`~repro.can.frame.CanFrame` -- an immutable CAN frame.
- :class:`~repro.can.bus.CanBus` -- the shared medium.
- :class:`~repro.can.node.CanController` -- a node's CAN controller.
- :class:`~repro.can.adapter.PcanStyleAdapter` -- PCAN-Basic-like API.
- :class:`~repro.can.timing.BitTiming` -- bitrate and frame durations.
- :mod:`~repro.can.log` -- trace formats (paper Table II style, candump).
"""

from repro.can.adapter import AdapterStatus, PcanStyleAdapter
from repro.can.bus import BusStats, CanBus
from repro.can.channel import (
    AdversarialChannel,
    ChannelConfig,
    ChannelVerdict,
)
from repro.can.errors import BusOffError, CanError, ErrorCounters, ErrorState
from repro.can.frame import (
    CanFrame,
    FrameError,
    MAX_DATA_CLASSIC,
    MAX_DATA_FD,
    MAX_EXTENDED_ID,
    MAX_STANDARD_ID,
)
from repro.can.identifiers import AcceptanceFilter, arbitration_key
from repro.can.log import TraceRecord, format_candump, format_paper_table
from repro.can.node import CanController
from repro.can.timing import BitTiming

__all__ = [
    "CanFrame",
    "FrameError",
    "MAX_STANDARD_ID",
    "MAX_EXTENDED_ID",
    "MAX_DATA_CLASSIC",
    "MAX_DATA_FD",
    "CanBus",
    "BusStats",
    "CanController",
    "AdversarialChannel",
    "ChannelConfig",
    "ChannelVerdict",
    "PcanStyleAdapter",
    "AdapterStatus",
    "BitTiming",
    "AcceptanceFilter",
    "arbitration_key",
    "CanError",
    "BusOffError",
    "ErrorState",
    "ErrorCounters",
    "TraceRecord",
    "format_candump",
    "format_paper_table",
]
