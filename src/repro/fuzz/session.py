"""Run records: the fuzzer's output artefacts.

A campaign produces a :class:`FuzzResult`: what was sent, what the
oracles detected, and enough metadata (seed, configuration rows) to
re-run the identical campaign -- the reproducibility the paper's
methodology needs for its Table V trials.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.fuzz.oracle import Finding
from repro.sim.clock import SECOND


def frame_to_dict(frame) -> dict:
    """All frame fields, JSON-ready.

    ``remote``/``fd``/``brs`` are included unconditionally: an RTR or
    FD finding that loses its flags deserialises as a *different*
    frame, and replaying or minimising the loaded result would probe
    the wrong input.
    """
    return {
        "id": frame.can_id,
        "data": frame.data.hex(),
        "extended": frame.extended,
        "remote": frame.remote,
        "fd": frame.fd,
        "brs": frame.brs,
    }


def frame_from_dict(payload: dict):
    """Rebuild a frame; flag keys default to False for pre-flag JSON."""
    from repro.can.frame import CanFrame

    return CanFrame(
        payload["id"],
        bytes.fromhex(payload["data"]),
        extended=payload.get("extended", False),
        remote=payload.get("remote", False),
        fd=payload.get("fd", False),
        brs=payload.get("brs", False),
    )


def _finding_to_dict(finding: Finding) -> dict:
    payload = {
        "time": finding.time,
        "oracle": finding.oracle,
        "description": finding.description,
        "recent_frames": [frame_to_dict(frame)
                          for frame in finding.recent_frames],
        "recent_times": list(finding.recent_times),
    }
    if finding.recent_requests:
        payload["recent_requests"] = [request.hex()
                                      for request in
                                      finding.recent_requests]
    return payload


def _finding_from_dict(item: dict, requests: dict | None = None) -> Finding:
    """Rebuild a finding; ``requests`` maps the hex of each request
    payload already decoded to its bytes."""
    requests = {} if requests is None else requests
    return Finding(
        time=item.get("time", 0),
        oracle=item.get("oracle", ""),
        description=item.get("description", ""),
        recent_frames=tuple(frame_from_dict(f)
                            for f in item.get("recent_frames", [])),
        # Pre-pacing results carry no timestamps; replay falls back to
        # the fixed interval grid then.
        recent_times=tuple(item.get("recent_times", ())),
        # Protocol-level (UDS) findings record request payloads.
        recent_requests=tuple(requests.setdefault(r, bytes.fromhex(r))
                              for r in item.get("recent_requests", ())),
    )


# Public names for the finding codec: checkpoint, finding and result
# records all serialise findings with one schema, so a finding
# round-trips identically through any of them.
finding_to_dict = _finding_to_dict
finding_from_dict = _finding_from_dict

#: Warning prefix a sharded run attaches to worlds the fast-path
#: prover sent to the reference kernel.  Shared by the producer
#: (``run_shard_batch``) and the consumers
#: (``ShardedResult.fallback_reasons``, CLI reports) so the reason
#: survives the warning round-trip intact.
FALLBACK_WARNING_PREFIX = "scalar fallback: "


@dataclass
class FuzzResult:
    """Outcome of one fuzz campaign run."""

    name: str
    seed_label: str
    started_at: int
    ended_at: int
    frames_sent: int
    findings: list[Finding] = field(default_factory=list)
    write_errors: dict[str, int] = field(default_factory=dict)
    stop_reason: str = ""
    config_rows: list[tuple[str, str, str]] = field(default_factory=list)
    #: Frames vetoed by a campaign supervisor's quarantine gate.
    frames_skipped: int = 0
    #: Health telemetry keyed by oracle name (bus-down events, backoff
    #: and quarantine counters) from oracles exposing ``health_dict``.
    health: dict = field(default_factory=dict)
    #: Why ``run()`` / ``resume_campaign`` ran this world on the
    #: reference kernel ``_execute`` instead of its fast path: the
    #: prover's violated rule, or the UDS exchange's mid-run bail.
    #: Empty when the fast path ran the whole world, when the campaign
    #: pins no bench, and for results loaded from a journal.  Run-side
    #: diagnostics only: deliberately excluded from :meth:`to_dict` so
    #: both kernels keep identical fingerprints.
    fallback_reasons: list = field(default_factory=list)

    @property
    def duration_seconds(self) -> float:
        return (self.ended_at - self.started_at) / SECOND

    @property
    def first_finding_seconds(self) -> float | None:
        """Seconds from campaign start to the first detection.

        This is the paper's Table V measurement: "the mean time to
        cause the unlock response".
        """
        if not self.findings:
            return None
        return (self.findings[0].time - self.started_at) / SECOND

    @property
    def frames_per_second(self) -> float:
        if self.duration_seconds <= 0:
            return 0.0
        return self.frames_sent / self.duration_seconds

    def summary(self) -> str:
        """One-paragraph human-readable outcome."""
        lines = [
            f"campaign {self.name!r}: {self.frames_sent} frames over "
            f"{self.duration_seconds:.1f} s "
            f"({self.frames_per_second:.0f} frames/s), "
            f"{len(self.findings)} finding(s), "
            f"stopped because {self.stop_reason or 'unspecified'}",
        ]
        for finding in self.findings[:10]:
            seconds = (finding.time - self.started_at) / SECOND
            lines.append(f"  [{seconds:9.3f}s] {finding.oracle}: "
                         f"{finding.description}")
        if len(self.findings) > 10:
            lines.append(f"  ... and {len(self.findings) - 10} more")
        for reason in self.fallback_reasons:
            lines.append(f"  {FALLBACK_WARNING_PREFIX}{reason}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready payload (findings keep id/data as hex strings)."""
        return {
            "name": self.name,
            "seed_label": self.seed_label,
            "started_at": self.started_at,
            "ended_at": self.ended_at,
            "frames_sent": self.frames_sent,
            "frames_skipped": self.frames_skipped,
            "stop_reason": self.stop_reason,
            "write_errors": self.write_errors,
            "config_rows": [list(row) for row in self.config_rows],
            "findings": [_finding_to_dict(f) for f in self.findings],
            "health": self.health,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FuzzResult":
        """Rebuild a result from a :meth:`to_dict` payload.

        Every top-level read tolerates a missing key with the seed-era
        default, so results saved before a field existed still load.
        """
        requests: dict[str, bytes] = {}
        return cls(
            name=payload.get("name", ""),
            seed_label=payload.get("seed_label", ""),
            started_at=payload.get("started_at", 0),
            ended_at=payload.get("ended_at", 0),
            frames_sent=payload.get("frames_sent", 0),
            # A campaign's findings overlap in their recent-request
            # windows; sharing each decoded payload keeps a loaded
            # result as small as the one that was saved.
            findings=[_finding_from_dict(item, requests)
                      for item in payload.get("findings", [])],
            write_errors=dict(payload.get("write_errors", {})),
            stop_reason=payload.get("stop_reason", ""),
            config_rows=[tuple(row) for row in payload.get(
                "config_rows", [])],
            frames_skipped=payload.get("frames_skipped", 0),
            health=dict(payload.get("health", {})),
        )

    def to_json(self) -> str:
        """Serialise; the shard-merge currency of the parallel runner."""
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FuzzResult":
        return cls.from_dict(json.loads(text))
