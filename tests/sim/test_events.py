"""Unit tests for :mod:`repro.sim.events`."""

import pytest

from repro.sim.engine import Environment
from repro.sim.errors import EventError, ScheduleError
from repro.sim.events import AllOf, AnyOf, ConditionValue, Event, Timeout


class TestEvent:
    def test_starts_pending(self, env):
        evt = Event(env)
        assert not evt.triggered
        assert not evt.processed

    def test_value_unavailable_before_trigger(self, env):
        evt = Event(env)
        with pytest.raises(EventError):
            _ = evt.value
        with pytest.raises(EventError):
            _ = evt.ok

    def test_succeed_carries_value(self, env):
        evt = Event(env).succeed(42)
        assert evt.triggered
        assert evt.ok
        assert evt.value == 42

    def test_double_trigger_rejected(self, env):
        evt = Event(env).succeed()
        with pytest.raises(EventError):
            evt.succeed()
        with pytest.raises(EventError):
            evt.fail(RuntimeError("nope"))

    def test_fail_requires_exception(self, env):
        evt = Event(env)
        with pytest.raises(TypeError):
            evt.fail("not an exception")

    def test_callbacks_run_on_processing(self, env):
        evt = Event(env)
        seen = []
        evt.callbacks.append(lambda e: seen.append(e.value))
        evt.succeed("hello")
        env.run()
        assert seen == ["hello"]
        assert evt.processed

    def test_unhandled_failure_raises_from_run(self, env):
        evt = Event(env)
        evt.fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            env.run()

    def test_defused_failure_is_silent(self, env):
        evt = Event(env)
        evt.fail(RuntimeError("boom"))
        evt.defuse()
        env.run()  # no raise
        assert not evt.ok


class TestTimeout:
    def test_fires_at_delay(self, env):
        evt = env.timeout(5.0, value="done")
        assert env.run(until=evt) == "done"
        assert env.now == 5.0

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ScheduleError):
            env.timeout(-1.0)

    def test_zero_delay_fires_now(self, env):
        evt = env.timeout(0.0)
        env.run(until=evt)
        assert env.now == 0.0

    def test_delay_property(self, env):
        assert Timeout(env, 2.5).delay == 2.5


class TestDirectCalendarPushes:
    """``Event.succeed`` and ``Timeout`` push their calendar entry without
    going through ``Environment.schedule``; its checks must still hold.
    (Negative ``env.schedule`` delays: ``tests/sim/test_engine.py``.)"""

    def test_rejected_timeout_pushes_nothing(self, env):
        with pytest.raises(ScheduleError):
            Timeout(env, -1)
        assert env.queue_size == 0

    @pytest.mark.parametrize("second", ["succeed", "fail"])
    def test_failed_event_cannot_be_triggered_again(self, env, second):
        evt = Event(env).fail(RuntimeError("first"))
        evt.defuse()
        with pytest.raises(EventError):
            if second == "succeed":
                evt.succeed()
            else:
                evt.fail(RuntimeError("second"))
        assert env.queue_size == 1

    def test_timeout_cannot_be_triggered_again(self, env):
        evt = Timeout(env, 1.0)
        with pytest.raises(EventError):
            evt.succeed()
        assert env.queue_size == 1

    def test_same_time_ties_keep_push_order_across_entry_points(self, env):
        order = []
        scheduled = Event(env)
        scheduled._ok, scheduled._value = True, None
        env.schedule(scheduled)
        succeeded = Event(env).succeed()
        timeout = Timeout(env, 0)
        for name, evt in (
            ("scheduled", scheduled), ("succeeded", succeeded), ("timeout", timeout)
        ):
            evt.callbacks.append(lambda _e, n=name: order.append(n))
        env.run()
        assert order == ["scheduled", "succeeded", "timeout"]


class TestConditions:
    def test_all_of_waits_for_everything(self, env):
        t1 = env.timeout(1, value="a")
        t2 = env.timeout(2, value="b")
        result = env.run(until=env.all_of([t1, t2]))
        assert env.now == 2
        assert list(result.values()) == ["a", "b"]

    def test_any_of_fires_on_first(self, env):
        t1 = env.timeout(1, value="a")
        t2 = env.timeout(2, value="b")
        result = env.run(until=env.any_of([t1, t2]))
        assert env.now == 1
        assert result[t1] == "a"
        assert t2 not in result

    def test_empty_all_of_trivially_true(self, env):
        evt = env.all_of([])
        env.run(until=evt)
        assert env.now == 0.0

    def test_operators_compose(self, env):
        t1 = env.timeout(1)
        t2 = env.timeout(2)
        t3 = env.timeout(3)
        combined = (t1 & t2) | t3
        env.run(until=combined)
        assert env.now == 2  # t1 & t2 completes before t3

    def test_nested_condition_values_flatten(self, env):
        t1 = env.timeout(1, value=1)
        t2 = env.timeout(2, value=2)
        t3 = env.timeout(3, value=3)
        result = env.run(until=(t1 & t2) & t3)
        assert sorted(result.values()) == [1, 2, 3]

    def test_condition_propagates_failure(self, env):
        bad = Event(env)
        good = env.timeout(1)
        cond = env.all_of([bad, good])
        bad.fail(ValueError("broken"))
        with pytest.raises(ValueError, match="broken"):
            env.run(until=cond)

    def test_cross_environment_rejected(self, env):
        other = Environment()
        with pytest.raises(ValueError):
            env.all_of([env.timeout(1), other.timeout(1)])


class TestConditionValue:
    def test_dict_interface(self, env):
        e1 = Event(env)
        e1._value = "x"
        cv = ConditionValue([e1])
        assert cv[e1] == "x"
        assert e1 in cv
        assert len(cv) == 1
        assert cv == {e1: "x"}
        assert list(cv.keys()) == [e1]

    def test_missing_key(self, env):
        cv = ConditionValue([])
        with pytest.raises(KeyError):
            _ = cv[Event(env)]
