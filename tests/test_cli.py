"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestSurvey:
    def test_prints_chart(self, capsys):
        assert main(["survey"]) == 0
        out = capsys.readouterr().out
        assert "Fuzz testing" in out


class TestCapture:
    def test_paper_format(self, capsys):
        assert main(["capture", "--seconds", "1", "--head", "5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Time (ms)")

    def test_candump_format(self, capsys):
        assert main(["capture", "--seconds", "1",
                     "--format", "candump"]) == 0
        out = capsys.readouterr().out
        assert "#" in out and "powertrain" in out

    def test_csv_format(self, capsys):
        assert main(["capture", "--seconds", "1", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("time_ms,")

    def test_body_bus(self, capsys):
        assert main(["capture", "--seconds", "1", "--bus", "body",
                     "--format", "candump"]) == 0
        assert "body" in capsys.readouterr().out


class TestByteStats:
    def test_uniform_output(self, capsys):
        assert main(["byte-stats", "--frames", "5000"]) == 0
        out = capsys.readouterr().out
        assert "overall mean: 127" in out


class TestCoverage:
    def test_paper_numbers(self, capsys):
        assert main(["coverage"]) == 0
        out = capsys.readouterr().out
        assert "524,288" in out
        assert "8.7 minutes" in out

    def test_two_bytes_in_days(self, capsys):
        assert main(["coverage", "--payload-bytes", "2"]) == 0
        out = capsys.readouterr().out
        assert "days" in out


class TestFuzzBench:
    def test_unlocks_with_known_seed(self, capsys):
        assert main(["fuzz-bench", "--seed", "19"]) == 0
        out = capsys.readouterr().out
        assert "unlocked" in out

    def test_budget_exhaustion_returns_nonzero(self, capsys):
        # 2 simulated seconds is far too little to unlock blind.
        assert main(["fuzz-bench", "--seed", "1",
                     "--max-seconds", "2"]) == 1

    def test_sharded_run_reports_provenance(self, capsys):
        # Master seed 14: shard 1's derived stream hits the unlock
        # within ~8 simulated seconds (pinned by scan).
        assert main(["fuzz-bench", "--seed", "14", "--shards", "2",
                     "--jobs", "2", "--max-seconds", "20"]) == 0
        out = capsys.readouterr().out
        assert "2/2 shards ok" in out
        assert "[shard 1] unlock-ack" in out

    def test_sharded_budget_exhaustion_returns_nonzero(self, capsys):
        assert main(["fuzz-bench", "--seed", "1", "--shards", "2",
                     "--jobs", "2", "--max-seconds", "1"]) == 1
        assert "0 finding(s)" in capsys.readouterr().out


class TestNoiseFlags:
    def test_ack_loss_alone_builds_a_channel_without_bit_errors(
            self, capsys, tmp_path):
        import json

        report = tmp_path / "ack-loss.json"
        assert main(["fuzz-bench", "--seed", "1", "--max-seconds", "1",
                     "--ack-loss", "0.5", "--report", str(report)]) == 1
        payload = json.loads(report.read_text())
        rows = {name: value for _, name, value in payload["channel"]}
        assert rows["ack loss"] == "0.5"
        assert rows["bit error rate"] == "0"
        # The channel comes with its campaign supervisor.
        assert "campaign-health" in payload["result"]["health"]

    # (BER, burst BER, ack loss) each flag combination configures.
    @pytest.mark.parametrize("flags, expected", [
        ([], None),
        (["--channel-noise"], (1e-4, 0.0, 0.0)),
        (["--channel-noise", "--ack-loss", "0.2"], (1e-4, 0.0, 0.2)),
        (["--ber", "2e-3"], (2e-3, 0.0, 0.0)),
        (["--burst", "5e-2"], (0.0, 5e-2, 0.0)),
        (["--ber", "2e-3", "--burst", "5e-2", "--ack-loss", "0.1"],
         (2e-3, 5e-2, 0.1)),
        (["--ack-loss", "0.5"], (0.0, 0.0, 0.5)),
    ])
    def test_flags_build_the_channel_they_describe(self, flags, expected):
        from repro.cli import _channel_config, build_parser

        config = _channel_config(build_parser().parse_args(
            ["fuzz-bench", *flags]))
        got = (None if config is None
               else (config.ber, config.burst_ber, config.ack_loss))
        assert got == expected


class TestFuzzBenchMinimize:
    def make_finding(self):
        from repro.can.frame import CanFrame
        from repro.fuzz.oracle import Finding
        from repro.vehicle.database import BODY_COMMAND_ID, UNLOCK_COMMAND

        culprit = CanFrame(BODY_COMMAND_ID,
                           bytes((UNLOCK_COMMAND, 0x99, 0x01)))
        noise = [CanFrame(0x100 + i, bytes((i,))) for i in range(6)]
        return Finding(
            time=1_000_000, oracle="unlock-ack", description="unlock",
            recent_frames=tuple(noise[:3] + [culprit] + noise[3:]))

    def test_minimize_finding_record(self):
        from repro.cli import _minimize_finding

        record = _minimize_finding(self.make_finding(),
                                   check_mode="byte", seed=3)
        assert record["reproduced"]
        assert record["window_frames"] == 7
        assert len(record["minimized_frames"]) == 1
        assert record["minimized_frames"][0]["id"] == 0x215
        assert record["probes"] > 0
        assert record["replayer"]["replays"] >= record["probes"]

    def test_non_reproducing_window_is_reported_not_fatal(self):
        from repro.can.frame import CanFrame
        from repro.cli import _minimize_finding
        from repro.fuzz.oracle import Finding

        benign = Finding(time=1, oracle="ack", description="noise only",
                         recent_frames=(CanFrame(0x100, b"\x01"),))
        record = _minimize_finding(benign, check_mode="byte", seed=3)
        assert record == {"oracle": "ack", "time": 1,
                          "window_frames": 1, "reproduced": False}

    def test_end_to_end_minimize_and_report(self, capsys, tmp_path):
        report = tmp_path / "bench.json"
        assert main(["fuzz-bench", "--seed", "19", "--minimize",
                     "--report", str(report)]) == 0
        out = capsys.readouterr().out
        assert "minimised" in out
        import json

        payload = json.loads(report.read_text())
        assert payload["mode"] == "single"
        assert payload["minimized"][0]["reproduced"]
        assert payload["minimized"][0]["probes"] > 0
        assert payload["result"]["findings"]


class TestFuzzUds:
    def test_end_to_end_journalled_hunt(self, capsys, tmp_path):
        report = tmp_path / "uds.json"
        assert main(["fuzz-uds", "--seed", "0", "--requests", "1500",
                     "--journal", str(tmp_path / "journal"),
                     "--checkpoint-every", "100",
                     "--minimize", "--report", str(report)]) == 0
        out = capsys.readouterr().out
        assert "protocol-state coverage" in out
        assert "1 confirmed" in out
        assert "minimised" in out
        import json

        payload = json.loads(report.read_text())
        assert payload["mode"] == "uds"
        assert payload["result"]["findings"]
        assert payload["confirmation"]["confirmed"] == 1
        # A scalar run never degraded from a batch, so the report's
        # fallback block is present but empty.
        assert payload["fallback_reasons"] == []
        record = payload["minimized"][0]
        assert record["reproduced"]
        # The hunt stops at its first finding: the NRC-path hang, a
        # single session-control request into the stalled sub-function.
        assert record["minimized_requests"] == ["1004"]

    def test_keep_going_surfaces_all_three_defects(self, capsys,
                                                   tmp_path):
        report = tmp_path / "uds-keep-going.json"
        assert main(["fuzz-uds", "--seed", "0", "--requests", "300",
                     "--keep-going", "--minimize",
                     "--report", str(report)]) == 0
        out = capsys.readouterr().out
        assert "3 confirmed" in out
        import json

        payload = json.loads(report.read_text())
        assert len(payload["result"]["findings"]) == 3
        assert payload["confirmation"]["confirmed"] == 3
        tails = [record["minimized_requests"][-1]
                 for record in payload["minimized"]]
        # One run, all three seeded defects: the NRC-path hang (one
        # request), the armed calibration-dump read that crashes the
        # ECU, and the bootloader-scratch overflow (each a session
        # walk, handshake, then the fatal request).
        assert tails[0] == "1004"
        assert tails[1] == "22f1a5"
        assert tails[2].startswith("2ef1a0")
        assert len(payload["minimized"][1]["minimized_requests"]) == 5
        assert len(payload["minimized"][2]["minimized_requests"]) == 5

    def test_resume_of_finished_run_returns_saved_result(self, capsys,
                                                         tmp_path):
        journal = str(tmp_path / "journal")
        assert main(["fuzz-uds", "--seed", "0", "--requests", "300",
                     "--journal", journal]) == 0
        capsys.readouterr()
        assert main(["fuzz-uds", "--seed", "0", "--requests", "300",
                     "--journal", journal, "--resume"]) == 0
        assert "uds-liveness" in capsys.readouterr().out

    def test_occupied_journal_without_resume_errors(self, capsys,
                                                    tmp_path):
        journal = str(tmp_path / "journal")
        assert main(["fuzz-uds", "--seed", "0", "--requests", "300",
                     "--journal", journal]) == 0
        assert main(["fuzz-uds", "--seed", "0", "--requests", "300",
                     "--journal", journal]) == 2

    def test_resume_requires_journal(self, capsys):
        assert main(["fuzz-uds", "--resume"]) == 2


class TestTable5:
    def test_single_trial_row(self, capsys):
        assert main(["table5", "--trials", "1", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        assert "mean:" in out


class TestObdScan:
    def test_scan_lists_pids(self, capsys):
        assert main(["obd-scan"]) == 0
        out = capsys.readouterr().out
        assert "ENGINE_RPM" in out
        assert "stored DTCs: 0" in out


class TestParser:
    def test_missing_subcommand_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand_errors(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
