"""Tests for the simulation executive."""

import pytest

from repro.sim.kernel import SimulationError, Simulator
from repro.sim.clock import MS


class TestScheduling:
    def test_call_after_fires_at_right_time(self, sim):
        fired_at = []
        sim.call_after(100, lambda: fired_at.append(sim.now))
        sim.run_for(1000)
        assert fired_at == [100]

    def test_call_at_absolute(self, sim):
        fired_at = []
        sim.call_at(250, lambda: fired_at.append(sim.now))
        sim.run_until(1000)
        assert fired_at == [250]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.call_after(-1, lambda: None)

    def test_past_deadline_rejected(self, sim):
        sim.run_for(100)
        with pytest.raises(SimulationError):
            sim.call_at(50, lambda: None)

    def test_cancel_prevents_firing(self, sim):
        fired = []
        event = sim.call_after(10, lambda: fired.append(1))
        sim.cancel(event)
        sim.run_for(100)
        assert fired == []

    def test_actions_can_schedule_more_actions(self, sim):
        order = []

        def first():
            order.append("first")
            sim.call_after(5, lambda: order.append("second"))

        sim.call_after(10, first)
        sim.run_for(100)
        assert order == ["first", "second"]

    def test_same_tick_rescheduling_runs_this_tick(self, sim):
        fired = []
        sim.call_after(10, lambda: sim.call_after(0, lambda: fired.append(
            sim.now)))
        sim.run_for(10)
        assert fired == [10]


class TestRunUntil:
    def test_clock_lands_exactly_on_deadline(self, sim):
        sim.call_after(10, lambda: None)
        sim.run_until(500)
        assert sim.now == 500

    def test_events_after_deadline_do_not_fire(self, sim):
        fired = []
        sim.call_after(600, lambda: fired.append(1))
        sim.run_until(500)
        assert fired == []
        sim.run_until(700)
        assert fired == [1]

    def test_deadline_in_past_rejected(self, sim):
        sim.run_for(100)
        with pytest.raises(SimulationError):
            sim.run_until(50)

    def test_stop_halts_run(self, sim):
        fired = []
        sim.call_after(10, lambda: (fired.append(1), sim.stop()))
        sim.call_after(20, lambda: fired.append(2))
        sim.run_until(100)
        assert fired == [1]
        assert sim.now == 10  # stop leaves the clock at the stop point

    def test_events_fired_counter(self, sim):
        for delay in (1, 2, 3):
            sim.call_after(delay, lambda: None)
        sim.run_for(10)
        assert sim.events_fired == 3


class TestRunUntilIdle:
    def test_drains_queue(self, sim):
        fired = []
        sim.call_after(10, lambda: fired.append(1))
        sim.call_after(20, lambda: fired.append(2))
        sim.run_until_idle()
        assert fired == [1, 2]

    def test_max_time_bounds_periodic_work(self, sim):
        count = []

        def again():
            count.append(sim.now)
            sim.call_after(10, again)

        sim.call_after(0, again)
        sim.run_until_idle(max_time=55)
        assert len(count) == 6  # t = 0, 10, 20, 30, 40, 50
        assert sim.now == 55

    def test_drained_queue_still_lands_on_max_time(self, sim):
        # Regression: the queue draining before max_time used to leave
        # the clock at the last event, unlike run_until's contract.
        fired = []
        sim.call_after(10, lambda: fired.append(sim.now))
        sim.run_until_idle(max_time=500)
        assert fired == [10]
        assert sim.now == 500

    def test_empty_queue_advances_to_max_time(self, sim):
        sim.run_until_idle(max_time=300)
        assert sim.now == 300

    def test_max_time_in_past_rejected(self, sim):
        sim.run_for(100)
        with pytest.raises(SimulationError):
            sim.run_until_idle(max_time=50)

    def test_stop_leaves_clock_at_stop_point(self, sim):
        # stop() wins over the land-on-max_time guarantee, matching
        # run_until.
        sim.call_after(10, sim.stop)
        sim.call_after(20, lambda: None)
        sim.run_until_idle(max_time=500)
        assert sim.now == 10

    def test_without_max_time_clock_stays_at_last_event(self, sim):
        sim.call_after(10, lambda: None)
        sim.run_until_idle()
        assert sim.now == 10


class TestStep:
    def test_step_returns_false_on_empty(self, sim):
        assert sim.step() is False

    def test_step_executes_one_event(self, sim):
        fired = []
        sim.call_after(5, lambda: fired.append(1))
        sim.call_after(6, lambda: fired.append(2))
        assert sim.step() is True
        assert fired == [1]
