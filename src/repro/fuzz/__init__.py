"""The paper's contribution: a CAN-bus fuzzer for automotive testing.

Components, mapped to the paper's fuzzer design (§V: "the major
functional items for the software fuzzer program are the UI screens
for command and control, a timing thread for regular CAN data
transmission, a random bytes generator for the fuzzed CAN messages, a
communications API handling module, and a CAN bus traffic monitor"):

- :mod:`~repro.fuzz.config` -- command and control (the UI substitute):
  every Table III parameter.
- :mod:`~repro.fuzz.generator` / :mod:`~repro.fuzz.mutator` -- the
  random bytes generator, plus targeted / bit-walk / mutational modes.
- :mod:`~repro.fuzz.campaign` -- the timing thread and run loop.
- :mod:`~repro.fuzz.oracle` -- the traffic monitor and test-oracle
  framework (the CPS oracle problem, §II/§III).
- :mod:`~repro.fuzz.stats` -- data-integrity analysis (Figs 4/5).
- :mod:`~repro.fuzz.coverage` -- the combinatorial-explosion arithmetic
  (§V).
- :mod:`~repro.fuzz.minimize` -- delta-debugging a failure trace.
- :mod:`~repro.fuzz.session` -- run records and findings.
- :mod:`~repro.fuzz.parallel` -- the sharded multi-process runner.
- :mod:`~repro.fuzz.durability` -- write-ahead journal, durable
  checkpoints, and kill-resume for long campaigns.
"""

from repro.fuzz.campaign import (CampaignLimits, FuzzCampaign,
                                 resume_campaign)
from repro.fuzz.config import FuzzConfig
from repro.fuzz.durability import (
    CampaignJournal,
    DirectoryStore,
    FaultyStore,
    RetryPolicy,
    WriteAheadJournal,
    atomic_write_json,
    scan_records,
)
from repro.fuzz.coverage import (
    ProtocolStateCoverage,
    combination_count,
    expected_frames_to_hit,
    time_to_exhaust_seconds,
)
from repro.fuzz.health import (
    BusDownEvent,
    CampaignSupervisor,
    ConfirmationReport,
    confirm_findings,
)
from repro.fuzz.generator import (
    BitWalkGenerator,
    FrameGenerator,
    RandomFrameGenerator,
    TargetedFrameGenerator,
)
from repro.fuzz.minimize import MinimizeStats, minimize_trace
from repro.fuzz.mutator import MutationalGenerator
from repro.fuzz.parallel import (
    CampaignFactory,
    ShardedCampaign,
    ShardedResult,
    ShardFailure,
    ShardOutcome,
    ShardSpec,
    derive_shard_seed,
    slice_limits,
    terminate_and_reap,
)
from repro.fuzz.replay import Replayer, SnapshotReplayer
from repro.fuzz.oracle import (
    AckMessageOracle,
    Finding,
    Oracle,
    PhysicalStateOracle,
)
from repro.fuzz.session import FuzzResult
from repro.fuzz.uds_campaign import UdsFuzzCampaign
from repro.fuzz.stats import ByteColumnStats, byte_position_means

__all__ = [
    "FuzzConfig",
    "FrameGenerator",
    "RandomFrameGenerator",
    "TargetedFrameGenerator",
    "BitWalkGenerator",
    "MutationalGenerator",
    "FuzzCampaign",
    "UdsFuzzCampaign",
    "CampaignLimits",
    "resume_campaign",
    "FuzzResult",
    "ProtocolStateCoverage",
    "BusDownEvent",
    "CampaignSupervisor",
    "ConfirmationReport",
    "confirm_findings",
    "Oracle",
    "Finding",
    "AckMessageOracle",
    "PhysicalStateOracle",
    "ByteColumnStats",
    "byte_position_means",
    "combination_count",
    "time_to_exhaust_seconds",
    "expected_frames_to_hit",
    "minimize_trace",
    "MinimizeStats",
    "Replayer",
    "SnapshotReplayer",
    "CampaignFactory",
    "ShardedCampaign",
    "ShardedResult",
    "ShardFailure",
    "ShardOutcome",
    "ShardSpec",
    "derive_shard_seed",
    "slice_limits",
    "terminate_and_reap",
    "CampaignJournal",
    "DirectoryStore",
    "FaultyStore",
    "RetryPolicy",
    "WriteAheadJournal",
    "atomic_write_json",
    "scan_records",
]
