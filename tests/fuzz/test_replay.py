"""Tests for the replay harness."""

import pytest

from repro.can.frame import CanFrame
from repro.fuzz.replay import Replayer
from repro.testbench.bench import UnlockTestbench
from repro.vehicle.database import BODY_COMMAND_ID, UNLOCK_COMMAND


def bench_factory():
    bench = UnlockTestbench(seed=3, check_mode="byte")
    bench.power_on()
    adapter = bench.attacker_adapter()
    return bench.sim, adapter, lambda: bench.bcm.led_on


UNLOCK_FRAME = CanFrame(BODY_COMMAND_ID,
                        bytes((UNLOCK_COMMAND, 0x99, 0x01)))
NOISE = [CanFrame(0x100 + i, bytes((i,))) for i in range(10)]


class TestProbe:
    def test_failing_trace_reproduces(self):
        replayer = Replayer(bench_factory)
        assert replayer.probe(NOISE[:5] + [UNLOCK_FRAME] + NOISE[5:])

    def test_benign_trace_does_not(self):
        replayer = Replayer(bench_factory)
        assert not replayer.probe(NOISE)

    def test_each_probe_uses_a_fresh_target(self):
        replayer = Replayer(bench_factory)
        assert replayer.probe([UNLOCK_FRAME])
        # A fresh bench starts locked again; noise alone must not fail.
        assert not replayer.probe(NOISE)
        assert replayer.replays == 2

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Replayer(bench_factory, interval=0)
        with pytest.raises(ValueError):
            Replayer(bench_factory, settle=-1)


class TestMinimise:
    def test_minimize_finds_the_culprit(self):
        replayer = Replayer(bench_factory)
        trace = NOISE[:6] + [UNLOCK_FRAME] + NOISE[6:]
        minimal = replayer.minimize(trace)
        assert minimal == [UNLOCK_FRAME]

    def test_minimize_benign_trace_raises(self):
        replayer = Replayer(bench_factory)
        with pytest.raises(ValueError):
            replayer.minimize(NOISE)
