#!/usr/bin/env python3
"""Fuzzing the diagnostic (UDS) surface of an ECU.

The paper highlights that "automotive ECUs have different operating
modes" and that testers must cover all of them, because locked/
unlocked diagnostic states "have been previously exploited" (§II).
This example demonstrates exactly that effect on the simulated ECU:

1. a legitimate diagnostic session (read VIN, unlock, reprogram),
2. the seeded bootloader-scratch overflow sent in the *default*
   session -- refused before it reaches the defective handler, and
   the ECU survives,
3. a stateful, coverage-guided campaign (``UdsFuzzCampaign``) that
   walks the session state machine, learns the security key and
   crashes the ECU,
4. the crash replayed and minimised request by request: the minimal
   witness is exactly the state walk the defect hides behind --
   session change, seed, key, programming session -- plus the
   oversized write.

Run:
    python examples/uds_fuzzing.py
"""

import sys

from repro.fuzz import CampaignLimits, MinimizeStats, ShardSpec
from repro.testbench import UdsBenchFactory, UdsReplayFactory
from repro.testbench.diag import DiagTestbench
from repro.uds.replay import UdsSnapshotReplayer, confirm_uds_findings
from repro.uds.server import BOOTLOADER_SCRATCH_DID, SCRATCH_BUFFER_SIZE

SEED = 0
SCRATCH_WRITE = bytes((0x2E, BOOTLOADER_SCRATCH_DID >> 8,
                       BOOTLOADER_SCRATCH_DID & 0xFF))

#: The overflow's minimal witness, by request prefix.
CORE = (
    (bytes.fromhex("1003"), "extended session"),
    (bytes.fromhex("2701"), "request seed"),
    (bytes.fromhex("2702"), "send key (byte re-derived at replay)"),
    (bytes.fromhex("1002"), "programming session"),
    (SCRATCH_WRITE, "oversized bootloader-scratch write"),
)


def label(request: bytes) -> str | None:
    """The core step ``request`` plays, if any."""
    return next((name for prefix, name in CORE
                 if request.startswith(prefix)), None)


def fresh_bench() -> DiagTestbench:
    bench = DiagTestbench(seed=SEED)
    bench.power_on()
    return bench


def main() -> int:
    print("=== 1. A legitimate diagnostic session ===")
    client = fresh_bench().client
    vin = client.read_did(0xF190)
    print(f"read VIN: {vin.message[3:].decode()}")
    print(f"extended session: {client.change_session(0x03).positive}")
    print(f"security unlock:  {client.security_unlock()}")
    print(f"programming mode: {client.change_session(0x02).positive}")
    write = client.write_did(BOOTLOADER_SCRATCH_DID, b"BOOT-PATCH-016B")
    print(f"write scratch record (15 bytes): positive={write.positive}")

    print()
    print("=== 2. The overflow in the DEFAULT session ===")
    bench = fresh_bench()
    oversized = bytes(SCRATCH_BUFFER_SIZE + 1)
    refused = bench.client.write_did(BOOTLOADER_SCRATCH_DID, oversized)
    print(f"write scratch record ({len(oversized)} bytes): "
          f"NRC 0x{refused.nrc:02X} (security access denied)")
    print(f"ECU state: {bench.ecu.state.value} "
          f"(the defect hides behind security access)")

    print()
    print("=== 3. Stateful fuzzing of the diagnostic state machine ===")
    spec = ShardSpec(index=0, shard_count=1, master_seed=SEED, seed=SEED,
                     limits=CampaignLimits(max_frames=300,
                                           stop_on_finding=False))
    result = UdsBenchFactory()(spec).run()
    print(result.summary())
    health = result.health["uds"]
    key_algorithm = health["key_algorithm_index"]
    print(f"security-access key algorithm learned: "
          f"{health['key_algorithm']}")
    confirmation = confirm_uds_findings(
        result.findings, UdsReplayFactory(seed=SEED),
        key_algorithm=key_algorithm)
    print(f"clean-replay confirmation: {len(confirmation.confirmed)} "
          f"confirmed, {len(confirmation.rejected)} rejected")

    print()
    print("=== 4. Minimising the scratch-overflow witness ===")
    overflow = next((finding for finding in confirmation.confirmed
                     if finding.recent_requests[-1][:3] == SCRATCH_WRITE),
                    None)
    if overflow is None:
        print("no confirmed scratch-overflow finding")
        return 1
    replayer = UdsSnapshotReplayer(UdsReplayFactory(seed=SEED),
                                   key_algorithm=key_algorithm)
    stats = MinimizeStats()
    minimal = replayer.minimize(overflow.recent_requests, stats=stats)
    print(f"witness of {len(overflow.recent_requests)} requests -> "
          f"{len(minimal)} in {stats.tests_used} replay probes:")
    for request in minimal:
        shown = request.hex(" ")
        if len(shown) > 24:
            shown = f"{shown[:24]}... ({len(request)} bytes)"
        print(f"  {shown:<40} {label(request) or '?'}")
    if [label(request) for request in minimal] \
            != [name for _, name in CORE]:
        print("minimal witness is not the expected five-request core")
        return 1
    print()
    print("Lesson (paper §II): 'it is important for system testers to "
          "cover all the states of an ECU'.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
