"""Tests for trace minimisation and result persistence."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.can.frame import CanFrame
from repro.fuzz.minimize import MinimizeStats, minimize_trace
from repro.fuzz.oracle import Finding
from repro.fuzz.replay import Replayer
from repro.fuzz.session import FuzzResult
from repro.sim.clock import SECOND
from repro.testbench.bench import UnlockTestbench
from repro.vehicle.database import BODY_COMMAND_ID, UNLOCK_COMMAND


class TestMinimizeTrace:
    def test_single_culprit_found(self):
        culprit = CanFrame(0x215, b"\x20")
        noise = [CanFrame(0x100 + i, bytes((i,))) for i in range(20)]
        trace = noise[:10] + [culprit] + noise[10:]
        minimal = minimize_trace(trace, lambda t: culprit in t)
        assert minimal == [culprit]

    def test_pair_of_culprits_kept(self):
        first = CanFrame(0x111, b"\x01")
        second = CanFrame(0x222, b"\x02")
        noise = [CanFrame(0x300 + i) for i in range(15)]
        trace = [first] + noise[:7] + [second] + noise[7:]

        def still_fails(candidate):
            return first in candidate and second in candidate

        minimal = minimize_trace(trace, still_fails)
        assert set(minimal) == {first, second}

    def test_non_reproducing_trace_rejected(self):
        with pytest.raises(ValueError):
            minimize_trace([CanFrame(1)], lambda t: False)

    def test_order_preserved(self):
        a, b = CanFrame(0x1, b"\x01"), CanFrame(0x2, b"\x02")
        trace = [CanFrame(0x300), a, CanFrame(0x301), b]
        minimal = minimize_trace(
            trace, lambda t: a in t and b in t
            and t.index(a) < t.index(b))
        assert minimal == [a, b]

    @settings(max_examples=30, deadline=None)
    @given(position=st.integers(0, 29))
    def test_property_single_culprit_any_position(self, position):
        frames = [CanFrame(0x100 + i) for i in range(30)]
        culprit = frames[position]
        minimal = minimize_trace(frames, lambda t: culprit in t)
        assert minimal == [culprit]

    def test_far_apart_interacting_pair_kept(self):
        # The hard ddmin shape: the two frames that only fail together
        # sit at opposite ends of a long window, so every early chunk
        # removal that drops one of them is rejected.
        first = CanFrame(0x111, b"\x01")
        last = CanFrame(0x222, b"\x02")
        noise = [CanFrame(0x300 + i) for i in range(60)]
        trace = [first] + noise + [last]
        stats = MinimizeStats()
        minimal = minimize_trace(
            trace, lambda t: first in t and last in t, stats=stats)
        assert minimal == [first, last]
        assert stats.from_size == 62 and stats.to_size == 2
        assert not stats.exhausted

    def test_max_tests_cutoff_returns_best_so_far(self):
        culprit = CanFrame(0x215, b"\x20")
        noise = [CanFrame(0x100 + i) for i in range(40)]
        trace = noise[:20] + [culprit] + noise[20:]
        still_fails = lambda t: culprit in t  # noqa: E731
        stats = MinimizeStats()
        partial = minimize_trace(trace, still_fails, max_tests=4,
                                 stats=stats)
        assert stats.exhausted
        assert stats.tests_used <= 4
        # The cut happened mid-reduction: the result is a valid failing
        # trace, smaller than the input but not yet 1-minimal.
        assert still_fails(partial)
        assert 1 < len(partial) < len(trace)
        assert stats.to_size == len(partial)

    def test_memoised_duplicates_never_reprobe(self):
        culprit = CanFrame(0x215, b"\x20")
        noise = [CanFrame(0x100 + i) for i in range(10)]
        trace = noise[:5] + [culprit] + noise[5:]
        probed = []

        def still_fails(candidate):
            probed.append(tuple(candidate))
            return culprit in candidate

        stats = MinimizeStats()
        minimize_trace(trace, still_fails, stats=stats)
        assert len(probed) == stats.tests_used
        assert len(set(probed)) == len(probed)  # each candidate once

    def test_max_tests_validation(self):
        with pytest.raises(ValueError):
            minimize_trace([CanFrame(1)], lambda t: True, max_tests=0)


class TestFuzzResult:
    def make_result(self):
        return FuzzResult(
            name="demo", seed_label="fuzzer",
            started_at=0, ended_at=10 * SECOND, frames_sent=10_000,
            findings=[Finding(
                time=5 * SECOND, oracle="ack", description="unlock seen",
                recent_frames=(CanFrame(0x215, b"\x20"),))],
            write_errors={"PCAN_ERROR_QXMTFULL": 2},
            stop_reason="finding from oracle 'ack'",
            config_rows=[("CAN Id", "{0, ..., 2047}", "All ids")])

    def test_derived_metrics(self):
        result = self.make_result()
        assert result.duration_seconds == 10.0
        assert result.first_finding_seconds == 5.0
        assert result.frames_per_second == 1000.0

    def test_no_findings_first_time_is_none(self):
        result = self.make_result()
        result.findings = []
        assert result.first_finding_seconds is None

    def test_json_roundtrip(self):
        result = self.make_result()
        restored = FuzzResult.from_json(result.to_json())
        assert restored.name == result.name
        assert restored.frames_sent == result.frames_sent
        assert restored.findings[0].description == "unlock seen"
        assert restored.findings[0].recent_frames[0] == CanFrame(
            0x215, b"\x20")
        assert restored.write_errors == result.write_errors
        assert restored.config_rows == result.config_rows

    def test_summary_text(self):
        text = self.make_result().summary()
        assert "10000 frames" in text
        assert "unlock seen" in text

    def test_rtr_and_fd_frames_survive_roundtrip(self):
        """The flag-dropping bug: an RTR or FD finding used to
        deserialise as a plain data frame, so replay probed the wrong
        input."""
        frames = (
            CanFrame(0x101, remote=True),
            CanFrame(0x102, bytes(range(12)), fd=True),
            CanFrame(0x103, bytes(16), fd=True, brs=True),
            CanFrame(0x1ABCDE, b"\x01", extended=True),
        )
        result = self.make_result()
        result.findings = [Finding(time=1, oracle="o", description="d",
                                   recent_frames=frames)]
        restored = FuzzResult.from_json(result.to_json())
        assert restored.findings[0].recent_frames == frames

    def test_recent_times_roundtrip(self):
        result = self.make_result()
        result.findings = [Finding(
            time=5 * SECOND, oracle="ack", description="unlock seen",
            recent_frames=(CanFrame(0x215, b"\x20"), CanFrame(0x100)),
            recent_times=(4 * SECOND, 4 * SECOND + 1000))]
        restored = FuzzResult.from_json(result.to_json())
        assert restored.findings[0].recent_times == (
            4 * SECOND, 4 * SECOND + 1000)

    def test_loads_pre_recent_times_json(self):
        """Findings saved before per-frame timestamps existed load with
        an empty ``recent_times`` (replay falls back to the grid)."""
        payload = self.make_result().to_dict()
        for finding in payload["findings"]:
            finding.pop("recent_times", None)
        restored = FuzzResult.from_dict(payload)
        assert restored.findings[0].recent_times == ()
        assert restored.findings[0].recent_frames == (
            CanFrame(0x215, b"\x20"),)

    def test_loads_pre_flag_json(self):
        """Frames saved before remote/fd/brs were serialised load as
        plain data frames."""
        payload = self.make_result().to_dict()
        for frame in payload["findings"][0]["recent_frames"]:
            del frame["remote"], frame["fd"], frame["brs"]
        restored = FuzzResult.from_dict(payload)
        assert restored.findings[0].recent_frames[0] == CanFrame(
            0x215, b"\x20")

    def test_loads_seed_era_json_missing_top_level_keys(self):
        """Results saved before a field existed must not KeyError."""
        restored = FuzzResult.from_json(json.dumps({
            "name": "old", "frames_sent": 7,
            "findings": [{"time": 3, "oracle": "ack",
                          "description": "seen"}],
        }))
        assert restored.name == "old"
        assert restored.frames_sent == 7
        assert restored.seed_label == ""
        assert restored.started_at == 0
        assert restored.findings[0].recent_frames == ()

    def test_loads_empty_payload(self):
        restored = FuzzResult.from_dict({})
        assert restored.findings == []
        assert restored.frames_sent == 0


def unlock_bench_factory():
    bench = UnlockTestbench(seed=3, check_mode="byte")
    bench.power_on()
    adapter = bench.attacker_adapter()
    return bench.sim, adapter, lambda: bench.bcm.led_on


class TestDeserialisedReplay:
    """The replay->minimize path driven from a *loaded* FuzzResult.

    This is the workflow the serialisation bugfixes protect: a finding
    crosses a process boundary (or a disk file) as JSON, and the
    minimiser must probe exactly the frames the campaign recorded --
    including RTR and FD noise around the culprit.
    """

    def make_loaded_finding(self) -> Finding:
        culprit = CanFrame(BODY_COMMAND_ID,
                           bytes((UNLOCK_COMMAND, 0x99, 0x01)))
        noise = [
            CanFrame(0x100, b"\x01"),
            CanFrame(0x101, remote=True),
            CanFrame(0x102, bytes(range(12)), fd=True),
            CanFrame(0x103, bytes(16), fd=True, brs=True),
        ]
        result = FuzzResult(
            name="hunt", seed_label="fuzzer", started_at=0,
            ended_at=SECOND, frames_sent=5,
            findings=[Finding(time=SECOND, oracle="unlock-ack",
                              description="unlock seen",
                              recent_frames=tuple(
                                  noise[:2] + [culprit] + noise[2:]))])
        restored = FuzzResult.from_json(result.to_json())
        return restored.findings[0]

    def test_replay_reproduces_from_loaded_result(self):
        finding = self.make_loaded_finding()
        replayer = Replayer(unlock_bench_factory)
        assert replayer.probe(finding.recent_frames)

    def test_minimize_finds_culprit_in_loaded_window(self):
        finding = self.make_loaded_finding()
        replayer = Replayer(unlock_bench_factory)
        minimal = replayer.minimize(finding.recent_frames)
        assert minimal == [CanFrame(BODY_COMMAND_ID,
                                    bytes((UNLOCK_COMMAND, 0x99, 0x01)))]
