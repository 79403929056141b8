"""UDS diagnostics substrate (ISO 14229 subset over ISO-TP).

The paper's related work fuzzes "Unified Diagnostics Services (UDS),
used for ECU diagnostics" [13], and §II stresses that ECUs must be
tested in all their operating modes because the diagnostic states
"have been previously exploited".  This package provides:

- :mod:`~repro.uds.isotp` -- ISO 15765-2 transport (segmentation,
  flow control) over the simulated CAN bus,
- :mod:`~repro.uds.services` -- service ids and negative response
  codes,
- :mod:`~repro.uds.server` -- a UDS server embedded in an ECU, with
  session control, security access and a seeded vulnerability,
- :mod:`~repro.uds.client` -- a tester-side client,
- :mod:`~repro.uds.stategen` -- the coverage-guided stateful
  generator driving :class:`~repro.fuzz.uds_campaign.UdsFuzzCampaign`
  (the Bayer/Ptok-style UDS fuzzing of related work [13], made
  stateful),
- :mod:`~repro.uds.replay` -- request-level semantic replay,
  confirmation and minimisation for stateful findings.
"""

from repro.uds.client import UdsClient, UdsResponse
from repro.uds.isotp import (
    IsoTpEndpoint,
    IsoTpError,
    decode_st_min,
    encode_st_min,
)
from repro.uds.replay import (
    UdsReplayer,
    UdsSnapshotReplayer,
    confirm_uds_findings,
)
from repro.uds.server import UdsServer
from repro.uds.services import NegativeResponse, ServiceId
from repro.uds.stategen import KEY_ALGORITHMS, UdsStateGenerator

__all__ = [
    "IsoTpEndpoint",
    "IsoTpError",
    "decode_st_min",
    "encode_st_min",
    "ServiceId",
    "NegativeResponse",
    "UdsServer",
    "UdsClient",
    "UdsResponse",
    "UdsStateGenerator",
    "KEY_ALGORITHMS",
    "UdsReplayer",
    "UdsSnapshotReplayer",
    "confirm_uds_findings",
]
