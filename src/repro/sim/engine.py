"""The discrete-event :class:`Environment` — clock, heap and run loop.

This module is the root of the simulation substrate used by the GPU model.
It implements a classic event-calendar design: a binary heap of
``(time, priority, sequence, event)`` tuples, popped in order, with a strict
non-decreasing clock.  Determinism matters for reproducing the paper's
figures, so ties are broken by a monotonically increasing sequence number —
two events scheduled for the same time and priority are always processed in
scheduling order.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Any, Iterable, List, Optional, Tuple

from .errors import EventError, ScheduleError, SimulationError, StopSimulation
from .events import NORMAL, AllOf, AnyOf, Event, Timeout
from .process import Process, ProcessGenerator

__all__ = ["Environment", "Infinity"]

#: Convenience alias used as the default run horizon.
Infinity: float = float("inf")


class Environment:
    """Execution environment for a single simulation run.

    Parameters
    ----------
    initial_time:
        Starting value of the simulated clock (seconds by convention
        throughout this repository; the GPU model uses seconds everywhere
        and converts to ms/us only for reporting).
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now: float = float(initial_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._eid = count()
        self._active_process: Optional[Process] = None
        self._events_processed: int = 0
        # Optional strided integrity probe (see repro.integrity.invariants).
        # The step loop compares the pop count with ``_probe_at`` (-1,
        # never reached, while unset) and does nothing else.  The strided
        # dispatch lives *inline* here rather than in a per-event callback
        # because a Python call per event pop costs percents of wall time
        # on event-dense workloads; one integer compare costs a fraction
        # of that.
        self._probe: Optional[Any] = None
        self._probe_stride: int = 0
        self._probe_at: int = -1
        # Optional causal tracer (see repro.telemetry.tracing).  Purely
        # passive: the step loop never consults it — instrumented layers
        # reach it through :attr:`tracer` with one attribute check, so an
        # untraced run is byte-identical to one that never heard of it.
        self._tracer: Optional[Any] = None

    # -- introspection ---------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if the engine is inside one."""
        return self._active_process

    @property
    def queue_size(self) -> int:
        """Number of events pending in the calendar (diagnostics only)."""
        return len(self._queue)

    @property
    def events_processed(self) -> int:
        """Total events popped from the calendar (diagnostics only)."""
        return self._events_processed

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none remain."""
        return self._queue[0][0] if self._queue else Infinity

    @property
    def probe(self) -> Optional[Any]:
        """The installed strided probe, if any (see :mod:`repro.integrity`)."""
        return self._probe

    def set_probe(self, probe: Any, stride: int) -> None:
        """Install a strided probe: ``probe(now)`` fires every ``stride``-th
        event pop.

        Used by the integrity subsystem's invariant checker.  The probe
        runs before the popped event's callbacks.  One slot only — a second install
        without :meth:`clear_probe` is a wiring bug and raises.  With no
        probe installed the run loop is byte-identical to one that never
        heard of probes.
        """
        if not callable(probe):
            raise TypeError(f"{probe!r} is not callable")
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride!r}")
        if self._probe is not None:
            raise RuntimeError("a probe is already installed on this environment")
        self._probe = probe
        self._probe_stride = stride
        self._probe_at = self._events_processed + stride

    def clear_probe(self) -> None:
        """Detach the strided probe (no-op if none installed)."""
        self._probe = None
        self._probe_stride = 0
        self._probe_at = -1

    @property
    def tracer(self) -> Optional[Any]:
        """The attached causal tracer, if any (see :mod:`repro.telemetry`)."""
        return self._tracer

    def attach_tracer(self, tracer: Any) -> None:
        """Attach a causal tracer so instrumented layers can reach it.

        The event loop itself never calls the tracer — spans are
        record-complete and written by the waiting layer — so attaching
        one cannot perturb the calendar.  Pass ``None`` to detach.
        """
        if tracer is not None and not hasattr(tracer, "record"):
            raise TypeError(f"{tracer!r} has no record(...) method")
        self._tracer = tracer

    # -- event factories ---------------------------------------------------

    def event(self) -> Event:
        """Create a new, untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(
        self, generator: ProcessGenerator, name: Optional[str] = None
    ) -> Process:
        """Start a new process executing ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that triggers when all of ``events`` have succeeded."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that triggers when any of ``events`` has succeeded."""
        return AnyOf(self, events)

    # -- scheduling --------------------------------------------------------

    def schedule(
        self, event: Event, delay: float = 0.0, priority: int = NORMAL
    ) -> None:
        """Insert ``event`` into the calendar ``delay`` units from now."""
        if delay < 0:
            raise ScheduleError(f"negative delay {delay!r}")
        heappush(self._queue, (self._now + delay, priority, next(self._eid), event))

    def step(self) -> None:
        """Process the single next event in the calendar.

        Raises
        ------
        EventError
            If the calendar is empty.
        """
        try:
            self._now, _, _, event = heappop(self._queue)
        except IndexError:
            raise EventError("no scheduled events left") from None
        self._events_processed = popped = self._events_processed + 1

        if popped == self._probe_at:
            self._probe_at = popped + self._probe_stride
            self._probe(self._now)

        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:
            raise EventError(f"{event!r} was scheduled twice")
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            # A failed event that nobody handled: surface the error rather
            # than silently dropping it.
            exc = event._value
            raise exc

    def run(self, until: "Event | float | None" = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            * ``None`` — run until the calendar is exhausted.
            * a number — run until the clock reaches that time.
            * an :class:`Event` — run until that event is processed and
              return its value.

        Returns
        -------
        The value of the ``until`` event if one was given, else ``None``.
        """
        stop: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                stop = until
                if stop.callbacks is None:
                    # Already processed.
                    if stop._ok:
                        return stop._value
                    raise stop._value
                stop.callbacks.append(self._stop_callback)
            else:
                at = float(until)
                if at < self._now:
                    raise ScheduleError(
                        f"until={at!r} is in the past (now={self._now!r})"
                    )
                stop = Event(self)
                stop._ok = True
                stop._value = None
                # Schedule with the lowest possible priority value so the
                # horizon fires before same-time model events.
                heappush(self._queue, (at, -1, next(self._eid), stop))
                stop.callbacks.append(self._stop_callback)

        queue, step = self._queue, self.step
        try:
            while queue:
                step()
        except StopSimulation as stop_exc:
            return stop_exc.value

        if stop is not None and isinstance(until, Event):
            raise SimulationError(
                f"simulation ended with {until!r} still pending"
            )
        return None

    @staticmethod
    def _stop_callback(event: Event) -> None:
        if event._ok:
            raise StopSimulation(event._value)
        # Propagate failures of the until-event to the caller of run().
        event.defuse()
        raise event._value
