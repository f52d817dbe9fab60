"""Unit tests for the discrete-event kernel."""

import pytest
from hypothesis import given, strategies as st

from repro.exp.scale import kernel_throughput
from repro.sim.core import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Simulator,
    SimulationError,
    Timeout,
)


class TestClockAndTimeouts:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_timeout_advances_clock(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(5)
            return sim.now

        assert sim.run_process(proc()) == 5.0

    def test_timeout_value_passthrough(self):
        sim = Simulator()

        def proc():
            value = yield sim.timeout(1, value="hello")
            return value

        assert sim.run_process(proc()) == "hello"

    def test_negative_timeout_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.timeout(-1)

    def test_zero_timeout_fires_same_instant(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(0)
            return sim.now

        assert sim.run_process(proc()) == 0.0

    def test_run_until_stops_clock_exactly(self):
        sim = Simulator()
        sim.spawn(iter_timeouts(sim, [10, 10, 10]))
        sim.run(until=15)
        assert sim.now == 15

    def test_run_until_past_is_error(self):
        sim = Simulator()
        sim.run(until=10)
        with pytest.raises(SimulationError):
            sim.run(until=5)

    def test_enqueue_in_the_past_rejected(self):
        sim = Simulator()
        sim.run(until=10)
        with pytest.raises(SimulationError, match="in the past"):
            sim._enqueue(sim.event(), delay=-1.0)
        assert not sim._queue
        sim.run()
        assert sim.now == 10

    def test_run_until_with_no_events_advances_clock(self):
        sim = Simulator()
        sim.run(until=42)
        assert sim.now == 42


def iter_timeouts(sim, delays):
    for delay in delays:
        yield sim.timeout(delay)


class TestEventOrdering:
    def test_fifo_among_equal_timestamps(self):
        sim = Simulator()
        order = []

        def maker(tag):
            yield sim.timeout(5)
            order.append(tag)

        for tag in range(10):
            sim.spawn(maker(tag))
        sim.run()
        assert order == list(range(10))

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=40))
    def test_events_process_in_time_order(self, delays):
        sim = Simulator()
        seen = []

        def waiter(delay):
            yield sim.timeout(delay)
            seen.append(sim.now)

        for delay in delays:
            sim.spawn(waiter(delay))
        sim.run()
        assert seen == sorted(seen)
        assert len(seen) == len(delays)


    def test_kernel_stress_event_count(self):
        """An uncontended CPU claim dispatches no grant event: with a
        grant hop per slice this stress counts 11,644 events."""
        assert kernel_throughput(64)[1] == 6_526


class TestEvents:
    def test_manual_succeed(self, sim):
        event = sim.event()

        def proc():
            value = yield event
            return value

        process = sim.spawn(proc())
        event.succeed(99)
        sim.run()
        assert process.value == 99

    def test_double_trigger_rejected(self, sim):
        event = sim.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_fail_propagates_into_waiter(self, sim):
        event = sim.event()

        def proc():
            yield event

        process = sim.spawn(proc())
        event.fail(RuntimeError("boom"))
        sim.run()
        with pytest.raises(RuntimeError, match="boom"):
            _ = process.value

    def test_fail_requires_exception(self, sim):
        event = sim.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_value_before_trigger_is_error(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            _ = event.value

    def test_yield_already_processed_event(self, sim):
        event = sim.event()
        event.succeed("early")
        sim.run()

        def proc():
            value = yield event
            return value

        assert sim.run_process(proc()) == "early"

    def test_yield_non_event_fails_process(self, sim):
        def proc():
            yield "not an event"

        process = sim.spawn(proc())
        sim.run()
        with pytest.raises(SimulationError):
            _ = process.value

    def test_bare_number_yield_is_a_timeout(self, sim):
        """``yield 42`` sleeps 42us via the process's reusable tick --
        the allocation-free shorthand the CPU slice loop uses."""

        def proc():
            yield 42
            yield 0.5
            return sim.now

        assert sim.run_process(proc()) == 42.5

    def test_negative_bare_number_yield_fails(self, sim):
        def proc():
            yield -1.0

        process = sim.spawn(proc())
        sim.run()
        with pytest.raises(SimulationError, match="negative"):
            _ = process.value


class TestProcesses:
    def test_return_value(self, sim):
        def proc():
            yield sim.timeout(1)
            return "done"

        assert sim.run_process(proc()) == "done"

    def test_nested_yield_from(self, sim):
        def inner():
            yield sim.timeout(3)
            return 7

        def outer():
            value = yield from inner()
            return value * 2

        assert sim.run_process(outer()) == 14

    def test_process_waits_on_process(self, sim):
        def child():
            yield sim.timeout(10)
            return "child-result"

        def parent():
            result = yield sim.spawn(child())
            return result

        assert sim.run_process(parent()) == "child-result"

    def test_exception_propagates_to_parent(self, sim):
        def child():
            yield sim.timeout(1)
            raise ValueError("child died")

        def parent():
            yield sim.spawn(child())

        process = sim.spawn(parent())
        sim.run()
        with pytest.raises(ValueError, match="child died"):
            _ = process.value

    def test_failed_processes_recorded(self, sim):
        def doomed():
            yield sim.timeout(1)
            raise RuntimeError("unobserved")

        sim.spawn(doomed(), name="doomed")
        sim.run()
        assert any(name == "doomed" for name, _exc in sim.failed_processes)

    def test_interrupt_raises_in_process(self, sim):
        caught = []

        def victim():
            try:
                yield sim.timeout(100)
            except Interrupt as intr:
                caught.append((intr.cause, sim.now))

        process = sim.spawn(victim())
        def killer():
            yield sim.timeout(5)
            process.interrupt("stop now")

        sim.spawn(killer())
        sim.run()
        assert caught == [("stop now", 5.0)]
        assert not process.is_alive

    def test_interrupt_completed_process_is_noop(self, sim):
        def quick():
            yield sim.timeout(1)

        process = sim.spawn(quick())
        sim.run()
        process.interrupt("too late")  # must not raise
        sim.run()

    def test_interrupts_not_counted_as_failures(self, sim):
        def victim():
            yield sim.timeout(100)

        process = sim.spawn(victim(), name="victim")
        def killer():
            yield sim.timeout(1)
            process.interrupt()

        sim.spawn(killer())
        sim.run()
        assert not sim.failed_processes

    def test_run_process_detects_deadlock(self, sim):
        never = sim.event()

        def stuck():
            yield never

        with pytest.raises(SimulationError, match="never completed"):
            sim.run_process(stuck())


class TestConditions:
    def test_all_of_collects_values(self, sim):
        def proc():
            events = [sim.timeout(d, value=d) for d in (3, 1, 2)]
            values = yield sim.all_of(events)
            return values

        assert sim.run_process(proc()) == [3, 1, 2]

    def test_all_of_waits_for_slowest(self, sim):
        def proc():
            yield sim.all_of([sim.timeout(1), sim.timeout(9)])
            return sim.now

        assert sim.run_process(proc()) == 9

    def test_all_of_empty_fires_immediately(self, sim):
        def proc():
            value = yield sim.all_of([])
            return value

        assert sim.run_process(proc()) == []

    def test_any_of_returns_first(self, sim):
        def proc():
            fast = sim.timeout(1, value="fast")
            slow = sim.timeout(50, value="slow")
            event, value = yield sim.any_of([slow, fast])
            return value, sim.now

        value, when = sim.run_process(proc())
        assert value == "fast"
        assert when == 1

    def test_all_of_propagates_failure(self, sim):
        bad = sim.event()

        def proc():
            yield sim.all_of([sim.timeout(5), bad])

        process = sim.spawn(proc())
        bad.fail(RuntimeError("nope"))
        sim.run()
        with pytest.raises(RuntimeError):
            _ = process.value
