"""Streaming (open-loop) workloads and online dispatch policies.

The paper's conclusion: "We envision designing intelligent scheduler
algorithms to support energy efficient execution or manage streaming
workloads, rather than a finite set."  This module implements that
extension: applications *arrive over time* (a seeded Poisson process over a
type mix) and an online :class:`Dispatcher` policy decides when to admit
each arrival to a stream:

* :class:`GreedyDispatcher` — admit immediately on the next stream
  (round-robin); maximum concurrency, the throughput-first policy.
* :class:`ConcurrencyCapDispatcher` — admit only while fewer than ``cap``
  applications are in flight; queue otherwise (FIFO).  ``cap=1`` recovers
  serialized execution, ``cap=NS`` the greedy policy.
* :class:`PowerCapDispatcher` — admit only while the board's sampled power
  is below a wattage budget; the "energy efficient execution" objective.

**Queue fairness.**  Queued arrivals are released *strictly FIFO by
arrival time*: whenever the dispatcher frees a slot, the queued job with
the smallest ``(arrival.time, arrival.index)`` key is admitted next, even
if a later arrival finished its host-side preparation earlier.  Ties in
arrival time are broken deterministically by arrival index, so two runs of
the same trace always release jobs in the same order.

**Starvation guard.**  A dispatcher may carry a ``stall_timeout``: if the
head-of-line job has waited that long without the admission condition ever
holding (e.g. a power budget the board never gets under), the engine emits
an :class:`AdmissionStallWarning` and releases the job anyway, so a
mis-sized budget degrades to slow progress instead of queueing forever.

:func:`run_streaming` executes one arrival trace under a dispatcher and
returns per-job latency (sojourn) statistics plus power/energy, so policies
are comparable on a throughput-latency-power frontier.  The optional
``serving`` hooks (:class:`ServingHooks`, driven by :mod:`repro.serving`)
add bounded admission, deadline-aware load shedding, circuit breaking and
crash-safe journaling; with the hooks inert the engine executes exactly
the same event sequence as a plain run — results are byte-identical.
"""

from __future__ import annotations

import heapq
import itertools
import warnings
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..apps.registry import get_app_class
from ..framework.app_thread import AppThread
from ..framework.metrics import AppRecord
from ..framework.world import DeviceWorld, run_parent, start_crash
from ..gpu.specs import DeviceSpec, tesla_k20
from ..sim.engine import Environment
from ..sim.errors import FaultError
from ..sim.events import AllOf, Event
from .workload import SCALES, resolve_scale

__all__ = [
    "Arrival",
    "poisson_arrivals",
    "Dispatcher",
    "GreedyDispatcher",
    "ConcurrencyCapDispatcher",
    "PowerCapDispatcher",
    "AdmissionStallWarning",
    "ServingHooks",
    "StreamingResult",
    "run_streaming",
]


class AdmissionStallWarning(RuntimeWarning):
    """A dispatcher's admission condition never held within its timeout.

    Emitted by :func:`run_streaming` when a head-of-line job is released
    by the starvation guard rather than by the dispatcher itself.
    """


@dataclass(frozen=True)
class Arrival:
    """One job of a streaming trace.

    The last four fields are the multi-tenant extension used by
    :mod:`repro.workload`; their defaults are inert, so traces built by
    :func:`poisson_arrivals` (and every pre-existing caller) behave — and
    fingerprint — exactly as before.

    Attributes
    ----------
    tenant:
        Tenant-class name, or ``""`` outside multi-tenant traffic.
    tenant_id:
        Sub-tenant index within the class (seeded popularity draw).
    deadline:
        Absolute SLO deadline carried *on the arrival* (seconds); ``0``
        means none.  Used only when the serving layer does not compute a
        deadline table of its own.
    priority:
        Tenant-class priority (higher = more important); informational.
    """

    index: int
    time: float
    type_name: str
    tenant: str = ""
    tenant_id: int = 0
    deadline: float = 0.0
    priority: int = 0


def poisson_arrivals(
    rate: float,
    duration: float,
    type_mix: Sequence[Tuple[str, float]],
    seed: int = 0,
) -> List[Arrival]:
    """A seeded Poisson arrival trace over a weighted type mix.

    Parameters
    ----------
    rate:
        Mean arrivals per second.
    duration:
        Trace length in (simulated) seconds.
    type_mix:
        ``[(type_name, weight), ...]``; weights are normalized.
    """
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    names = [n for n, _ in type_mix]
    weights = np.array([w for _, w in type_mix], dtype=float)
    if weights.sum() <= 0:
        raise ValueError("type mix weights must sum to > 0")
    weights = weights / weights.sum()
    rng = np.random.default_rng(seed)
    arrivals: List[Arrival] = []
    t = 0.0
    index = 0
    while True:
        t += rng.exponential(1.0 / rate)
        if t >= duration:
            break
        name = names[rng.choice(len(names), p=weights)]
        arrivals.append(Arrival(index=index, time=t, type_name=name))
        index += 1
    return arrivals


class Dispatcher:
    """Base class for online admission policies.

    Subclasses implement :meth:`may_admit`, consulted whenever a job is at
    the head of the queue; the streaming engine re-consults after every
    completion (and, for power capping, every sensor sample).

    ``stall_timeout`` (seconds, ``None`` = never) bounds how long the
    head-of-line job may wait for the admission condition; see the module
    docstring's starvation guard.
    """

    name = "dispatcher"
    stall_timeout: Optional[float] = None

    def may_admit(self, in_flight: int, power_watts: float) -> bool:  # pragma: no cover
        """Whether the head-of-queue job may start now."""
        raise NotImplementedError


class GreedyDispatcher(Dispatcher):
    """Admit everything immediately (throughput-first)."""

    name = "greedy"

    def may_admit(self, in_flight: int, power_watts: float) -> bool:
        return True


class ConcurrencyCapDispatcher(Dispatcher):
    """At most ``cap`` applications in flight.

    Queued arrivals are released strictly FIFO by arrival time with ties
    broken by arrival index (see the module docstring); the cap bounds
    *concurrency*, never reorders the queue.
    """

    def __init__(self, cap: int) -> None:
        if cap < 1:
            raise ValueError("cap must be >= 1")
        self.cap = cap
        self.name = f"cap-{cap}"

    def may_admit(self, in_flight: int, power_watts: float) -> bool:
        return in_flight < self.cap


class PowerCapDispatcher(Dispatcher):
    """Admit only while sampled board power is under ``watts``.

    A budget below the board's active floor would otherwise serialize the
    queue behind every in-flight drain (the head waits for the device to go
    fully idle before each admission).  ``stall_timeout`` bounds that wait:
    after ``stall_timeout`` seconds the head-of-line job is released anyway
    and an :class:`AdmissionStallWarning` is emitted.  ``None`` (default)
    preserves the original queue-forever behaviour.
    """

    def __init__(self, watts: float, stall_timeout: Optional[float] = None) -> None:
        if watts <= 0:
            raise ValueError("watts must be positive")
        if stall_timeout is not None and stall_timeout <= 0:
            raise ValueError("stall_timeout must be positive (or None)")
        self.watts = watts
        self.stall_timeout = stall_timeout
        self.name = f"power-cap-{watts:.0f}W"

    def may_admit(self, in_flight: int, power_watts: float) -> bool:
        return in_flight == 0 or power_watts < self.watts


@dataclass
class ServingHooks:
    """Engine-level switches for the overload-resilient serving layer.

    Built and owned by :mod:`repro.serving` (see
    :class:`~repro.serving.config.ServingConfig` for the user-facing
    surface); :func:`run_streaming` only consumes it.  Every field's
    default is inert: a default-constructed ``ServingHooks`` executes the
    exact event sequence of a plain run.

    Attributes
    ----------
    queue_depth:
        Maximum jobs waiting for admission; ``0`` = unbounded (the
        original implicit FIFO).
    queue_policy:
        What to do with an arrival that finds the queue full:
        ``"block"`` (backpressure: the arrival waits for a slot),
        ``"reject"`` (shed the new arrival) or ``"shed-oldest"`` (evict
        the queue head to make room).
    deadlines:
        Absolute SLO deadline per arrival index (seconds), or ``None``.
    service_estimates:
        ``type_name -> seconds`` estimate of one job's service time, used
        for the deadline-reachability check.
    shed_unreachable:
        Shed a job at release time when ``now + estimate`` already
        overshoots its deadline (deadline-aware load shedding).
    breaker:
        Per-app-type circuit breaker panel (``allow`` / ``on_success`` /
        ``on_failure`` duck type), or ``None``.
    journal:
        Crash-safe run journal (``record(entry)`` duck type), or ``None``.
    crash_at:
        Simulated time at which to raise
        :class:`~repro.sim.errors.HarnessCrash` (the ``harness_crash``
        fault kind), or ``None``.
    fault_plan:
        Optional :class:`~repro.resilience.FaultPlan` injected into the
        device engines for this run.
    fleet_gate:
        Fleet-aware admission gate (``may_admit`` / ``route`` /
        ``breaker_key`` duck type, see
        :class:`~repro.serving.fleet_gate.FleetCapacityGate`), or
        ``None``.  When set, admission is additionally capped by the
        fleet's surviving capacity, each admitted job is stamped with a
        device index, and breakers are scoped by the gate's key.
    on_settle:
        Callback ``(record, arrival_time)`` invoked once per terminal
        outcome, right after the journal write.  The workload layer's
        streaming statistics sink; ``None`` changes nothing.
    retain_records:
        ``False`` drops each :class:`AppRecord` from the result list at
        settle time (after ``on_settle``), and stops accumulating the
        per-job sojourn/queue-delay lists — the bounded-memory mode for
        million-request traces.  The default keeps every record, exactly
        as before.
    front_door:
        Shed arrivals *at the front door* — inside the arrival source,
        before the application object is even constructed — whenever the
        admission pipeline (preparing + ready jobs) is already at
        ``queue_depth``.  Requires the ``"reject"`` queue policy; the
        bound then covers host-side preparation as well as the ready
        queue, which is what keeps an overloaded million-request run
        O(queue_depth) in memory and O(1) per shed arrival.
    """

    queue_depth: int = 0
    queue_policy: str = "block"
    deadlines: Optional[Sequence[float]] = None
    service_estimates: Optional[Mapping[str, float]] = None
    shed_unreachable: bool = False
    breaker: Optional[object] = None
    journal: Optional[object] = None
    crash_at: Optional[float] = None
    fault_plan: Optional[object] = None
    fleet_gate: Optional[object] = None
    on_settle: Optional[object] = None
    retain_records: bool = True
    front_door: bool = False

    def __post_init__(self) -> None:
        if self.queue_depth < 0:
            raise ValueError("queue_depth must be >= 0")
        if self.queue_policy not in ("block", "reject", "shed-oldest"):
            raise ValueError(f"unknown queue policy {self.queue_policy!r}")
        if self.front_door and (
            self.queue_policy != "reject" or self.queue_depth <= 0
        ):
            raise ValueError(
                "front_door shedding requires queue_policy='reject' "
                "and a positive queue_depth"
            )


@dataclass
class StreamingResult:
    """Measurements of one streaming run."""

    dispatcher: str
    jobs: int
    completion_time: float          # last job completion (s)
    records: List[AppRecord]
    sojourn_times: List[float]      # arrival -> completion per job
    queue_delays: List[float]       # arrival -> admission per job
    energy: float
    average_power: float
    peak_power: float
    peak_in_flight: int

    @property
    def throughput(self) -> float:
        """Completed jobs per second of makespan."""
        return self.jobs / self.completion_time if self.completion_time else 0.0

    @property
    def mean_sojourn(self) -> float:
        """Mean time from arrival to completion."""
        return float(np.mean(self.sojourn_times)) if self.sojourn_times else 0.0

    @property
    def p95_sojourn(self) -> float:
        """95th-percentile sojourn time."""
        if not self.sojourn_times:
            return 0.0
        return float(np.percentile(self.sojourn_times, 95))

    @property
    def p99_sojourn(self) -> float:
        """99th-percentile sojourn time (the serving layer's tail metric)."""
        if not self.sojourn_times:
            return 0.0
        return float(np.percentile(self.sojourn_times, 99))

    def summary(self) -> str:
        """One-line digest for reports."""
        return (
            f"{self.dispatcher}: {self.jobs} jobs in "
            f"{self.completion_time * 1e3:.1f} ms "
            f"({self.throughput:.0f} jobs/s), mean sojourn "
            f"{self.mean_sojourn * 1e3:.2f} ms, p95 "
            f"{self.p95_sojourn * 1e3:.2f} ms, avg power "
            f"{self.average_power:.0f} W, energy {self.energy:.3f} J"
        )


#: Slack for float comparisons on the simulated clock.
_EPS = 1e-15


def run_streaming(
    arrivals: Iterable[Arrival],
    dispatcher: Dispatcher,
    num_streams: int = 32,
    memory_sync: bool = True,
    scale: Optional[str] = None,
    spec: Optional[DeviceSpec] = None,
    power_interval: float = 1e-3,
    serving: Optional[ServingHooks] = None,
    telemetry=None,
    tracing=None,
) -> StreamingResult:
    """Execute an arrival trace under an online dispatch policy.

    With ``serving`` omitted (or inert) this is the plain open-loop
    engine; :mod:`repro.serving` passes hooks to enable bounded admission,
    shedding, circuit breaking and journaling on the same code path.
    ``telemetry`` (a :class:`~repro.telemetry.Telemetry`) additionally
    samples queue depths, in-flight count, outcome counters and sojourn
    histograms; ``None`` leaves every code path untouched.  ``tracing``
    (a :class:`~repro.telemetry.Tracing`) records one causal trace per
    arrival — admission queue, stream, mutex and DMA waits — and feeds
    terminal outcomes to the SLO burn-rate monitor when one is
    configured; ``None`` likewise leaves results byte-identical.

    ``arrivals`` may be any iterable ordered by arrival time — a
    materialized list (the original contract) or a lazy generator such as
    a :mod:`repro.workload` traffic stream, which is consumed one arrival
    at a time so the trace is never held in memory.
    """
    arrival_iter: Iterator[Arrival]
    if isinstance(arrivals, Sequence):
        if not arrivals:
            raise ValueError("empty arrival trace")
        arrival_iter = iter(arrivals)
    else:
        arrival_iter = iter(arrivals)
        try:
            head = next(arrival_iter)
        except StopIteration:
            raise ValueError("empty arrival trace") from None
        arrival_iter = itertools.chain((head,), arrival_iter)
    hooks = serving if serving is not None else ServingHooks()
    scale_name = resolve_scale(scale)
    spec = spec or tesla_k20()
    env = Environment()
    world = DeviceWorld(
        env,
        spec=spec,
        num_streams=num_streams,
        memory_sync=memory_sync,
        power_interval=power_interval,
        plan=hooks.fault_plan,
    )
    device, manager, monitor = world.gpu, world.manager, world.monitor
    if not hooks.retain_records:
        # Bounded-memory mode: drop the O(simulated-time) power history.
        # The exact running energy integral and the monitor's aggregate
        # stats survive; only retrospective series queries are given up.
        device.power.retain_segments = False
        monitor.retain_samples = False

    records: List[AppRecord] = []
    sojourns: List[float] = []
    queue_delays: List[float] = []
    state = {
        "in_flight": 0,
        "peak": 0,
        "settled": 0,
        "produced": 0,       # arrivals emitted by the source so far
        "source_done": False,
        "front_queue": 0,    # preparing + ready jobs (front-door bound)
        "last_complete": 0.0,
        "last_energy": 0.0,  # exact J integral at last_complete (bounded mode)
    }
    #: Jobs ready for admission, ordered by (arrival time, arrival index):
    #: strict FIFO release by arrival, deterministic tie-break by index.
    ready: List[Tuple[float, int, AppThread]] = []
    #: Arrivals back-pressured by a full bounded queue, same ordering.
    blocked: List[Tuple[float, int, Event]] = []
    admit_poke = {"event": None}

    deadlines = hooks.deadlines
    estimates = dict(hooks.service_estimates or {})
    breaker = hooks.breaker
    journal = hooks.journal
    fleet_gate = hooks.fleet_gate

    def breaker_key(record: AppRecord) -> str:
        """Breaker scope: per (device, type) with a fleet gate, else type."""
        if fleet_gate is not None:
            return fleet_gate.breaker_key(record)
        return record.type_name

    tracer = tracing.tracer if tracing is not None else None
    burn_monitor = tracing.monitor if tracing is not None else None
    if tracer is not None:
        env.attach_tracer(tracer)
    #: launch_index -> root SpanContext for every traced arrival.
    trace_ctxs: Dict[int, object] = {}

    outcome_counter = None
    sojourn_hist = None
    goodput_counter = None
    if telemetry is not None:
        from ..telemetry.probes import instrument_run

        instrument_run(telemetry, env, records, [world])
        admission_depth = telemetry.gauge(
            "repro_serving_admission_queue_depth",
            "Jobs prepared and waiting for admission",
        )
        blocked_depth = telemetry.gauge(
            "repro_serving_blocked_arrivals",
            "Arrivals back-pressured by a full bounded queue",
        )
        inflight_gauge = telemetry.gauge(
            "repro_serving_in_flight", "Jobs admitted and not yet settled"
        )
        outcome_counter = telemetry.counter(
            "repro_serving_outcomes_total",
            "Terminal job outcomes",
            labelnames=("outcome",),
        )
        goodput_counter = telemetry.counter(
            "repro_serving_goodput_jobs_total",
            "Jobs completed within their SLO (or with no SLO set)",
        )
        sojourn_hist = telemetry.histogram(
            "repro_serving_sojourn_seconds", "Arrival-to-completion latency"
        )
        telemetry.add_probe(lambda: admission_depth.set(len(ready)))
        telemetry.add_probe(lambda: blocked_depth.set(len(blocked)))
        telemetry.add_probe(lambda: inflight_gauge.set(state["in_flight"]))

    instance_counters: Dict[str, int] = {}

    def arrival_record(arrival: Arrival, app_id: str, instance: int) -> AppRecord:
        """The record of one arrival, stamped with its SLO deadline and tenant."""
        record = AppRecord(
            app_id=app_id,
            type_name=arrival.type_name,
            instance=instance,
            stream_index=-1,
            launch_index=arrival.index,
        )
        if deadlines is not None:
            record.slo_deadline = deadlines[arrival.index]
        elif arrival.deadline > 0.0:
            record.slo_deadline = arrival.deadline
        if arrival.tenant:
            record.tenant = arrival.tenant
            record.tenant_id = arrival.tenant_id
        return record

    def make_thread(arrival: Arrival) -> AppThread:
        count = instance_counters.get(arrival.type_name, 0)
        instance_counters[arrival.type_name] = count + 1
        kwargs = SCALES[scale_name].get(arrival.type_name, {})
        app = get_app_class(arrival.type_name).create(instance=count, **kwargs)
        record = arrival_record(arrival, app.app_id, count)
        records.append(record)
        return AppThread(env, device, app, world.synchronizer, record)

    def poke() -> None:
        evt = admit_poke["event"]
        if evt is not None and not evt.triggered:
            evt.succeed()

    def finalize(record: AppRecord, outcome: str, arrival_time: float) -> None:
        """Stamp a terminal outcome and journal it (host-side only)."""
        record.outcome = outcome
        if tracer is not None:
            ctx = trace_ctxs.pop(record.launch_index, None)
            if ctx is not None:
                tracer.end_trace(ctx, env.now, outcome=outcome)
        if burn_monitor is not None:
            burn_monitor.observe(env.now, outcome == "completed")
        if outcome_counter is not None:
            outcome_counter.inc(outcome=outcome)
            if outcome == "completed":
                goodput_counter.inc()
            if record.ran:
                sojourn_hist.observe(env.now - arrival_time)
        if journal is not None:
            journal.record(
                {
                    "index": record.launch_index,
                    "app_id": record.app_id,
                    "type": record.type_name,
                    "outcome": outcome,
                    "arrival": arrival_time,
                    "admit": record.spawn_time if record.spawn_time > 0 else None,
                    "complete": record.complete_time if record.ran else None,
                    "deadline": (
                        record.slo_deadline if record.slo_deadline > 0 else None
                    ),
                    "deadline_met": record.deadline_met if record.ran else None,
                    # The device key exists only in fleet-aware runs, so
                    # single-device journals stay byte-identical.
                    **(
                        {"device": record.device_index}
                        if fleet_gate is not None
                        else {}
                    ),
                    # Tenant keys exist only in multi-tenant traffic runs.
                    **(
                        {"tenant": record.tenant, "user": record.tenant_id}
                        if record.tenant
                        else {}
                    ),
                }
            )
        if record.ran and record.complete_time > state["last_complete"]:
            state["last_complete"] = record.complete_time
            if not hooks.retain_records:
                # Snapshot now, while complete_time is still the present:
                # without the segment history a later retrospective
                # energy(completion_time) query would be unanswerable.
                state["last_energy"] = device.power.energy(record.complete_time)
        if hooks.on_settle is not None:
            hooks.on_settle(record, arrival_time)
        if not hooks.retain_records:
            # Identity-based removal: the live window is O(in-flight).
            for i in range(len(records) - 1, -1, -1):
                if records[i] is record:
                    del records[i]
                    break

    def shed(record: AppRecord, outcome: str, arrival_time: float) -> None:
        """Terminal outcome for a job that never starts; unblocks the loop."""
        finalize(record, outcome, arrival_time)
        state["settled"] += 1
        poke()

    def job_body(thread: AppThread, arrival_time: float):
        record = thread.record
        failed = False
        try:
            yield from thread.run()
        except FaultError:
            failed = True
        state["in_flight"] -= 1
        if failed:
            record.failed = True
            if breaker is not None:
                breaker.on_failure(breaker_key(record), env.now)
            finalize(record, "failed", arrival_time)
        else:
            if hooks.retain_records:
                sojourns.append(env.now - arrival_time)
            if breaker is not None:
                breaker.on_success(breaker_key(record), env.now)
            late = 0 < record.slo_deadline < env.now - _EPS
            finalize(record, "late" if late else "completed", arrival_time)
        poke()

    def arrival_body(arrival: Arrival):
        # Per-job host thread: allocate/initialize concurrently with other
        # arrivals, then join the admission queue.
        thread = make_thread(arrival)
        if tracer is not None:
            thread.open_trace(tracer, arrival.time, trace_ctxs)
        yield from thread.prepare()
        # With front-door shedding the bound was already enforced at the
        # source (over preparing + ready), so the ready-only check is off.
        if (
            not hooks.front_door
            and hooks.queue_depth > 0
            and len(ready) >= hooks.queue_depth
        ):
            if hooks.queue_policy == "reject":
                shed(thread.record, "shed-reject", arrival.time)
                return
            if hooks.queue_policy == "shed-oldest":
                old_time, _, old_thread = heapq.heappop(ready)
                shed(old_thread.record, "shed-oldest", old_time)
            else:  # block: wait (FIFO by arrival) until a slot frees
                while len(ready) >= hooks.queue_depth:
                    gate = Event(env)
                    heapq.heappush(blocked, (arrival.time, arrival.index, gate))
                    yield gate
        heapq.heappush(ready, (arrival.time, arrival.index, thread))
        poke()

    def front_door_shed(arrival: Arrival) -> None:
        """Shed an arrival before constructing its application object.

        The O(1)-per-arrival overload path: no app, no host thread, no
        ready-queue churn — just a terminal record, so a run drowning in
        traffic costs microseconds per excess arrival.
        """
        record = arrival_record(
            arrival, f"{arrival.type_name}#fd{arrival.index}", -1
        )
        if hooks.retain_records:
            records.append(record)
        shed(record, "shed-reject", arrival.time)

    def source():
        now = 0.0
        for arrival in arrival_iter:
            yield env.timeout(arrival.time - now)
            now = arrival.time
            state["produced"] += 1
            if hooks.front_door and state["front_queue"] >= hooks.queue_depth:
                front_door_shed(arrival)
                continue
            if hooks.front_door:
                state["front_queue"] += 1
            env.process(arrival_body(arrival), name=f"arrival-{arrival.index}")
        state["source_done"] = True
        poke()

    completions: List[Event] = []

    def admitter():
        while not (
            state["source_done"] and state["settled"] >= state["produced"]
        ):
            if not ready:
                # Wait for an enqueue (or a shed that settles the count).
                gate = Event(env)
                admit_poke["event"] = gate
                yield gate
                admit_poke["event"] = None
                continue
            # Wait for the dispatcher's admission condition (head-of-line),
            # further capped by the fleet's surviving capacity when a
            # fleet gate is attached.
            def may_start() -> bool:
                return dispatcher.may_admit(
                    state["in_flight"], device.power.current_power
                ) and (
                    fleet_gate is None
                    or fleet_gate.may_admit(state["in_flight"], env.now)
                )

            wait_start = env.now
            while not may_start():
                stall = dispatcher.stall_timeout
                if stall is not None:
                    remaining = stall - (env.now - wait_start)
                    if remaining <= _EPS:
                        warnings.warn(
                            f"{dispatcher.name}: admission condition not met "
                            f"after {stall:.6g}s; releasing head-of-line job "
                            "to avoid starvation",
                            AdmissionStallWarning,
                            stacklevel=2,
                        )
                        break
                    tick = env.timeout(min(power_interval, remaining))
                else:
                    tick = env.timeout(power_interval)
                gate = Event(env)
                admit_poke["event"] = gate
                # Re-evaluate on every completion or sensor tick.
                yield env.any_of([gate, tick])
                admit_poke["event"] = None
            arrival_time, _, thread = heapq.heappop(ready)
            if hooks.front_door:
                state["front_queue"] -= 1
            if blocked:
                # A queue slot freed: wake the oldest back-pressured arrival.
                _, _, gate = heapq.heappop(blocked)
                gate.succeed()
            record = thread.record
            if fleet_gate is not None:
                # Stamp the fleet routing decision before the breaker
                # check: breaker scope is (device, type).
                record.device_index = fleet_gate.route(env.now)
            # Deadline-aware shedding: drop work whose queueing delay
            # already makes the SLO unreachable.
            if (
                hooks.shed_unreachable
                and record.slo_deadline > 0
                and env.now + estimates.get(record.type_name, 0.0)
                > record.slo_deadline + _EPS
            ):
                shed(record, "shed-deadline", arrival_time)
                continue
            # Circuit breaker: fail fast while the app type's breaker is open.
            if breaker is not None and not breaker.allow(breaker_key(record), env.now):
                shed(record, "breaker-open", arrival_time)
                continue
            state["settled"] += 1
            if hooks.retain_records:
                queue_delays.append(env.now - arrival_time)
            if tracer is not None and env.now > thread.ready_at:
                tracer.record_leaf(
                    thread.trace_ctx, "admission.queue",
                    "admission-queue", thread.ready_at, env.now,
                )
            stream = manager.acquire(thread.app.app_id)
            thread.assign_stream(stream)
            thread.record.stream_index = stream.index
            thread.record.spawn_time = env.now
            state["in_flight"] += 1
            state["peak"] = max(state["peak"], state["in_flight"])
            proc = env.process(
                job_body(thread, arrival_time), name=thread.app.app_id
            )
            if hooks.retain_records:
                completions.append(proc)
        if completions:
            yield AllOf(env, completions)
        # Bounded-memory mode retains no process list: drain by count.
        # job_body pokes on every completion, so this wakes precisely
        # when the in-flight population changes.
        while state["in_flight"] > 0:
            gate = Event(env)
            admit_poke["event"] = gate
            yield gate
            admit_poke["event"] = None
        monitor.stop()
        if telemetry is not None:
            telemetry.stop()

    if hooks.crash_at is not None:
        start_crash(env, hooks.crash_at, "harness-crash")
    monitor.start()
    if telemetry is not None:
        telemetry.start()
    env.process(source(), name="arrival-source")
    run_parent(env, admitter(), "admitter")
    if telemetry is not None:
        telemetry.finalize()

    if hooks.retain_records:
        completion_time = max((r.complete_time for r in records), default=0.0)
        energy = device.power.energy(completion_time)
    else:
        completion_time = state["last_complete"]
        energy = state["last_energy"]
    return StreamingResult(
        dispatcher=dispatcher.name,
        jobs=state["produced"],
        completion_time=completion_time,
        records=records,
        sojourn_times=sojourns,
        queue_delays=queue_delays,
        energy=energy,
        average_power=energy / completion_time if completion_time else 0.0,
        peak_power=device.power.peak_power,
        peak_in_flight=state["peak"],
    )
