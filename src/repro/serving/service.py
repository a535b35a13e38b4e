"""The serving layer's entry point: :func:`run_serving`.

Wires a :class:`~repro.serving.config.ServingConfig` into the streaming
engine's :class:`~repro.core.streaming.ServingHooks`:

* computes each arrival's absolute SLO deadline from its type's
  serial-baseline runtime (plus seeded per-arrival jitter),
* instantiates the per-type circuit breaker panel,
* splits the fault plan into device faults (injected as usual) and the
  first ``HARNESS_CRASH`` (which kills the run at its arm time),
* opens the crash-safe run journal, fingerprinted by the full run
  configuration, and
* aggregates the engine's per-record outcomes into a
  :class:`ServingResult` with *goodput* (deadline-met completions per
  second) reported separately from raw throughput.

Crash/resume contract: a run killed by :class:`~repro.sim.errors.\
HarnessCrash` leaves a valid journal prefix on disk; calling
:func:`run_serving` again with the same arguments and ``resume=True``
replays the run deterministically, verifies the prefix, and returns the
same :class:`ServingResult` an uninterrupted run would have produced —
byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from ..core.streaming import (
    Arrival,
    Dispatcher,
    GreedyDispatcher,
    ServingHooks,
    StreamingResult,
    run_streaming,
)
from ..core.workload import resolve_scale
from ..framework.metrics import deadline_met_count
from ..gpu.specs import DeviceSpec
from ..resilience.faults import FaultKind, FaultPlan
from ..sim.errors import HarnessCrash
from .breaker import CircuitBreakerPanel
from .config import ServingConfig
from .fleet_gate import FleetCapacityGate
from .journal import JournalMismatchError, RunJournal

__all__ = [
    "ServingResult",
    "SHED_OUTCOMES",
    "measure_service_baselines",
    "run_serving",
    "BatchOutcome",
    "BatchedServingResult",
    "run_batched_serving",
]

#: Terminal outcomes that mean "never ran": shed by admission control.
SHED_OUTCOMES = ("shed-reject", "shed-oldest", "shed-deadline", "breaker-open")


@dataclass
class ServingResult(StreamingResult):
    """A :class:`StreamingResult` plus serving-layer accounting.

    ``jobs`` still counts every *arrival*; ``throughput`` is overridden to
    count only jobs that actually completed, and :attr:`goodput` only the
    completions that met their SLO deadline.
    """

    outcomes: Dict[str, int] = field(default_factory=dict)
    deadline_met: int = 0
    breaker_trips: int = 0
    breaker_fast_fails: int = 0
    recovered_entries: int = 0
    resumed: bool = False
    journal_file: Optional[str] = None
    # -- fleet accounting (zero outside fleet-aware runs) -----------------
    fleet_devices: int = 0       # devices the capacity was spread across
    devices_lost: int = 0        # losses detected during the run

    @property
    def completed(self) -> int:
        """Jobs that ran to completion (on time or late)."""
        return self.outcomes.get("completed", 0) + self.outcomes.get("late", 0)

    @property
    def shed(self) -> int:
        """Jobs shed by admission control (never dispatched)."""
        return sum(self.outcomes.get(k, 0) for k in SHED_OUTCOMES)

    @property
    def failed(self) -> int:
        """Jobs dispatched but killed by an injected fault."""
        return self.outcomes.get("failed", 0)

    @property
    def shed_rate(self) -> float:
        """Fraction of arrivals shed before execution."""
        return self.shed / self.jobs if self.jobs else 0.0

    @property
    def throughput(self) -> float:
        """Completed jobs per second of makespan (sheds excluded)."""
        if not self.completion_time:
            return 0.0
        return self.completed / self.completion_time

    @property
    def goodput(self) -> float:
        """Deadline-met completions per second of makespan.

        The serving layer's headline metric: raw throughput counts every
        completion, goodput only the ones that still had value when they
        landed.
        """
        if not self.completion_time:
            return 0.0
        return self.deadline_met / self.completion_time

    def summary(self) -> str:
        """One-line digest for reports."""
        return (
            f"{self.dispatcher}: {self.jobs} arrivals -> "
            f"{self.completed} completed ({self.deadline_met} in-SLO), "
            f"{self.shed} shed, {self.failed} failed in "
            f"{self.completion_time * 1e3:.1f} ms; goodput "
            f"{self.goodput:.0f}/s vs throughput {self.throughput:.0f}/s, "
            f"p99 sojourn {self.p99_sojourn * 1e3:.2f} ms"
        )


#: Serial-baseline sojourns per (type, scale) on the default device.
_BASELINE_CACHE: Dict[tuple, float] = {}


def measure_service_baselines(
    type_names: Iterable[str],
    scale: Optional[str] = None,
    spec: Optional[DeviceSpec] = None,
) -> Dict[str, float]:
    """End-to-end serial-baseline latency (seconds) per application type.

    One single-arrival streaming run per type on an otherwise idle
    device: the measured sojourn covers host-side preparation *and* the
    GPU section — the unit an arrival-to-completion SLO has to be scaled
    from (the resilience watchdog's GPU-section baseline would undershoot
    by the preparation cost).  Cached per (type, scale) on the default
    device.
    """
    scale_name = resolve_scale(scale)
    baselines: Dict[str, float] = {}
    for name in sorted(set(type_names)):
        key = (name, scale_name)
        if spec is None and key in _BASELINE_CACHE:
            baselines[name] = _BASELINE_CACHE[key]
            continue
        result = run_streaming(
            [Arrival(index=0, time=0.0, type_name=name)],
            GreedyDispatcher(),
            num_streams=1,
            scale=scale_name,
            spec=spec,
        )
        value = result.sojourn_times[0]
        if spec is None:
            _BASELINE_CACHE[key] = value
        baselines[name] = value
    return baselines


def _fingerprint(
    arrivals: Sequence[Arrival],
    dispatcher: Dispatcher,
    num_streams: int,
    memory_sync: bool,
    scale_name: str,
    power_interval: float,
    config: ServingConfig,
    baselines: Optional[Mapping[str, float]],
) -> str:
    """Content hash of everything that determines the run's outcome log."""
    plan = config.plan
    payload = {
        "arrivals": [[a.index, a.time, a.type_name] for a in arrivals],
        "dispatcher": dispatcher.name,
        "stall_timeout": dispatcher.stall_timeout,
        "num_streams": num_streams,
        "memory_sync": memory_sync,
        "scale": scale_name,
        "power_interval": power_interval,
        "queue_depth": config.queue_depth,
        "queue_policy": config.queue_policy,
        "slo_factor": config.slo_factor,
        "slo_jitter": config.slo_jitter,
        "shed_unreachable": config.shed_unreachable,
        "breaker": (
            [
                config.breaker.threshold,
                config.breaker.cooldown,
                config.breaker.jitter,
            ]
            if config.breaker is not None
            else None
        ),
        "plan": (
            [
                [
                    f.kind.value,
                    f.time,
                    f.target,
                    f.duration,
                    f.factor,
                    f.direction,
                ]
                for f in plan
            ]
            if plan is not None
            else []
        ),
        "seed": config.seed,
        "baselines": sorted((baselines or {}).items()),
    }
    # Fleet-aware runs extend the payload; single-device payloads stay
    # exactly as before so existing journals keep their fingerprints.
    if config.fleet is not None:
        payload["fleet"] = [
            config.fleet.num_devices,
            config.fleet.detection_latency,
            config.fleet.scope_breakers,
        ]
        payload["plan_devices"] = (
            [f.device for f in plan] if plan is not None else []
        )
        if config.fleet.slow_start_window > 0:
            payload["fleet_slow_start"] = [
                config.fleet.slow_start_window,
                config.fleet.slow_start_floor,
            ]
    if config.breaker is not None and config.breaker.slow_start_initial > 0:
        payload["breaker_slow_start"] = [
            config.breaker.slow_start_initial,
            config.breaker.slow_start_interval,
            config.breaker.slow_start_steps,
        ]
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha1(blob).hexdigest()


def _compute_deadlines(
    arrivals: Sequence[Arrival],
    baselines: Mapping[str, float],
    config: ServingConfig,
) -> List[float]:
    """Absolute SLO deadline per arrival index.

    ``deadline = arrival + slo_factor * baseline * (1 + jitter_draw)``;
    jitter draws come from one generator seeded with
    ``(seed, crc32("slo-jitter"))`` consumed in arrival-index order, so
    the schedule is reproducible and independent of trace construction.
    """
    rng = np.random.default_rng(
        [config.seed, zlib.crc32(b"slo-jitter")]
    )
    deadlines = [0.0] * len(arrivals)
    for arrival in sorted(arrivals, key=lambda a: a.index):
        window = config.slo_factor * baselines[arrival.type_name]
        if config.slo_jitter > 0:
            window *= 1.0 + config.slo_jitter * (2.0 * float(rng.random()) - 1.0)
        deadlines[arrival.index] = arrival.time + window
    return deadlines


def run_serving(
    arrivals,
    dispatcher: Dispatcher,
    config: Optional[ServingConfig] = None,
    *,
    num_streams: int = 32,
    memory_sync: bool = True,
    scale: Optional[str] = None,
    spec: Optional[DeviceSpec] = None,
    power_interval: float = 1e-3,
    journal_path=None,
    resume: bool = False,
    telemetry=None,
    tracing=None,
    fingerprint: Optional[str] = None,
    sink=None,
    front_door: bool = False,
) -> ServingResult:
    """Execute an arrival trace under the overload-resilient serving layer.

    With an inert config and no journal this is exactly
    :func:`~repro.core.streaming.run_streaming` (byte-identical results).
    Raises :class:`~repro.sim.errors.HarnessCrash` when the fault plan
    kills the harness mid-run — the journal keeps everything committed up
    to that instant; call again with ``resume=True`` to recover.

    ``tracing`` (a :class:`~repro.telemetry.Tracing`) records one causal
    trace per arrival.  When it also carries a burn-rate config and an
    ``alert_journal`` path, SLO burn-rate alerts are journaled there —
    fenced, crash-safe and replay-verified on resume exactly like the
    outcome journal.  ``None`` leaves results byte-identical.

    **Streamed traces.**  ``arrivals`` may also be a lazy iterable (a
    :mod:`repro.workload` traffic stream).  In that mode the trace is
    never materialized, so per-arrival deadlines must travel on the
    arrivals themselves (``config.slo_factor`` must be 0), a journal
    needs an explicit ``fingerprint`` (the identity hash normally derived
    from the materialized trace), and outcome aggregation moves to the
    ``sink`` — an object with a ``settle(record, arrival_time)`` method
    plus ``outcomes``/``deadline_met`` views, e.g.
    :class:`repro.workload.TrafficStats`.  With a sink the engine runs in
    bounded-memory mode (records are dropped once settled);
    ``front_door=True`` additionally sheds overload arrivals before app
    construction (see :class:`~repro.core.streaming.ServingHooks`).
    """
    config = config or ServingConfig()
    if resume and journal_path is None and (
        tracing is None or tracing.alert_journal is None
    ):
        raise ValueError("resume=True requires a journal_path")
    scale_name = resolve_scale(scale)
    streamed = not isinstance(arrivals, Sequence)

    deadlines: Optional[List[float]] = None
    baselines: Optional[Dict[str, float]] = None
    if config.slo_factor > 0:
        if streamed:
            raise ValueError(
                "slo_factor requires a materialized trace; streamed "
                "arrivals carry their own deadlines"
            )
        if config.baseline_runtimes is not None:
            baselines = dict(config.baseline_runtimes)
        else:
            baselines = measure_service_baselines(
                (a.type_name for a in arrivals), scale=scale_name, spec=spec
            )
        deadlines = _compute_deadlines(arrivals, baselines, config)
    elif streamed and config.baseline_runtimes is not None:
        # Streamed mode: deadlines ride on the arrivals; the baselines
        # feed the deadline-reachability shed check.
        baselines = dict(config.baseline_runtimes)

    # Split the plan: device faults go to the injector, the first
    # HARNESS_CRASH kills the run (unless we are resuming past it).
    crash_at: Optional[float] = None
    device_plan: Optional[FaultPlan] = None
    if config.plan is not None and not config.plan.empty:
        rest = FaultPlan(
            [
                f
                for f in config.plan
                if f.kind is not FaultKind.HARNESS_CRASH
            ]
        )
        if not rest.empty:
            device_plan = rest
        crashes = config.plan.crash_times()
        if crashes and not resume:
            crash_at = crashes[0]

    journal: Optional[RunJournal] = None
    recovered = 0
    if journal_path is not None:
        journal = RunJournal(journal_path)
        if fingerprint is None:
            if streamed:
                raise ValueError(
                    "journaling a streamed trace requires an explicit "
                    "fingerprint (the trace cannot be materialized to "
                    "derive one)"
                )
            fingerprint = _fingerprint(
                arrivals,
                dispatcher,
                num_streams,
                memory_sync,
                scale_name,
                power_interval,
                config,
                baselines,
            )
        recovered = journal.begin(fingerprint, resume=resume)

    # The burn-rate monitor's alert journal: its own file, fingerprinted
    # by the run *plus* the alert policy, with every write fenced.  The
    # main journal's fingerprint is untouched (tracing cannot change the
    # outcome log), so pre-tracing journals stay valid.
    alert_journal: Optional[RunJournal] = None
    if (
        tracing is not None
        and tracing.monitor is not None
        and tracing.alert_journal is not None
    ):
        from ..integrity.fencing import FencedJournal, GenerationFence

        burn = tracing.burn
        if fingerprint is not None:
            run_fpr = fingerprint
        elif streamed:
            raise ValueError(
                "an alert journal over a streamed trace requires an "
                "explicit fingerprint"
            )
        else:
            run_fpr = _fingerprint(
                arrivals,
                dispatcher,
                num_streams,
                memory_sync,
                scale_name,
                power_interval,
                config,
                baselines,
            )
        alert_fpr = hashlib.sha1(
            json.dumps(
                {
                    "run": run_fpr,
                    "budget": burn.budget,
                    "windows": [list(w) for w in burn.windows],
                    "min_events": burn.min_events,
                },
                sort_keys=True,
            ).encode("utf-8")
        ).hexdigest()
        alert_journal = RunJournal(tracing.alert_journal)
        alert_journal.begin(alert_fpr, resume=resume)
        fence = GenerationFence()
        tracing.monitor.journal = FencedJournal(alert_journal, fence)
        tracing.monitor.token = fence.token(0)

    panel: Optional[CircuitBreakerPanel] = None
    if config.breaker is not None:
        panel = CircuitBreakerPanel(
            config.breaker, seed=config.seed, telemetry=telemetry
        )

    gate: Optional[FleetCapacityGate] = None
    if config.fleet is not None:
        gate = FleetCapacityGate.from_plan(
            config.fleet, num_streams, config.plan
        )

    hooks = ServingHooks(
        queue_depth=config.queue_depth,
        queue_policy=config.queue_policy,
        deadlines=deadlines,
        service_estimates=baselines,
        shed_unreachable=config.shed_unreachable
        and (deadlines is not None or (streamed and baselines is not None)),
        breaker=panel,
        journal=journal,
        crash_at=crash_at,
        fault_plan=device_plan,
        fleet_gate=gate,
        on_settle=sink.settle if sink is not None else None,
        retain_records=sink is None,
        front_door=front_door,
    )

    try:
        base = run_streaming(
            arrivals,
            dispatcher,
            num_streams=num_streams,
            memory_sync=memory_sync,
            scale=scale_name,
            spec=spec,
            power_interval=power_interval,
            serving=hooks,
            telemetry=telemetry,
            tracing=tracing,
        )
    except HarnessCrash as crash:
        # The journal holds everything committed before the crash; stamp
        # a durable crash marker and leave it on disk for the resume.
        if journal is not None:
            journal.mark_crash(crash.time)
            journal.close()
        if alert_journal is not None:
            alert_journal.mark_crash(crash.time)
            alert_journal.close()
        raise
    if journal is not None:
        if journal.pending:
            raise JournalMismatchError(
                f"resumed run settled only "
                f"{journal.verified}/{journal.recovered} journaled entries; "
                "the journal belongs to a longer run"
            )
        journal.close()
    if alert_journal is not None:
        if alert_journal.pending:
            raise JournalMismatchError(
                "resumed run did not re-emit every journaled alert record; "
                "the alert journal belongs to a longer run"
            )
        alert_journal.close()

    if sink is not None:
        outcomes = dict(sink.outcomes)
        met = int(sink.deadline_met)
    else:
        outcomes = dict(Counter(r.outcome for r in base.records))
        met = deadline_met_count(base.records)
    return ServingResult(
        **vars(base),
        outcomes=outcomes,
        deadline_met=met,
        breaker_trips=panel.trips if panel is not None else 0,
        breaker_fast_fails=panel.fast_fails if panel is not None else 0,
        recovered_entries=recovered,
        resumed=resume,
        journal_file=str(journal_path) if journal_path is not None else None,
        fleet_devices=gate.num_devices if gate is not None else 0,
        devices_lost=(
            gate.devices_lost(base.completion_time) if gate is not None else 0
        ),
    )


# ---------------------------------------------------------------------------
# Batch-scheduled serving: admission hands whole batches to the scheduler.
# ---------------------------------------------------------------------------


@dataclass
class BatchOutcome:
    """One admitted batch, as decided and as measured."""

    decision: object             # repro.scheduling.SchedulingDecision
    makespan: float              # measured batch makespan (s)
    energy: float                # exact energy over the batch window (J)
    records: list                # AppRecords, all stamped with the order


@dataclass
class BatchedServingResult:
    """Everything measured across a batch-scheduled serving run."""

    policy: str
    batches: List[BatchOutcome]
    total_makespan: float        # sum of batch makespans (batches run serially)
    total_energy: float
    cumulative_regret: float     # bandit regret (0 for non-learning policies)
    recovered_entries: int = 0
    resumed: bool = False
    journal_file: Optional[str] = None

    @property
    def decisions(self) -> list:
        return [b.decision for b in self.batches]

    def summary(self) -> str:
        """One-line digest for reports."""
        orders = Counter(d.order_label for d in self.decisions)
        mix = ", ".join(f"{k}x{v}" for k, v in sorted(orders.items()))
        return (
            f"{self.policy}: {len(self.batches)} batches in "
            f"{self.total_makespan * 1e3:.1f} ms ({mix}); "
            f"regret {self.cumulative_regret * 1e3:.2f} ms"
        )


def _normalize_batch(batch, scale_name: str):
    """One admitted batch -> a Workload (grouped FIFO admission order).

    Accepts either a flat sequence of type names or ``(type, count)``
    pairs.  Types are grouped in first-appearance order — the same
    Naive-FIFO convention every offline experiment uses — so the scheduler
    permutes exactly what the workload instantiates.
    """
    from ..core.workload import Workload

    if not batch:
        raise ValueError("empty batch")
    first = batch[0]
    if isinstance(first, str):
        counts: Dict[str, int] = {}
        order: List[str] = []
        for name in batch:
            if name not in counts:
                order.append(name)
            counts[name] = counts.get(name, 0) + 1
        spec = [(name, counts[name]) for name in order]
    else:
        spec = list(batch)
    return Workload.mixed(spec, scale=scale_name)


def run_batched_serving(
    batches: Sequence,
    policy: str = "bandit",
    *,
    width: Optional[int] = None,
    scale: Optional[str] = None,
    spec: Optional[DeviceSpec] = None,
    seed: int = 0,
    epsilon: float = 0.1,
    device: int = 0,
    scheduler=None,
    scheduler_config=None,
    journal_path=None,
    resume: bool = False,
    crash_after: Optional[int] = None,
    telemetry=None,
    tracing=None,
) -> BatchedServingResult:
    """Serve admitted batches through the adaptive batch scheduler.

    Each element of ``batches`` is one admitted batch (a sequence of type
    names, or ``(type, count)`` pairs).  Per batch the scheduler picks the
    launch order, the transfer-mutex setting and the stream width; the
    batch runs on the framework harness with exactly those parameters, and
    its measured makespan is fed back so learning policies improve across
    batches.  Batches execute back-to-back (the serving layer admits the
    next batch when the previous one drains), so ``total_makespan`` is the
    sum of per-batch makespans.

    Crash/resume: with a ``journal_path``, every decision and observation
    is journaled under a fingerprint that includes a digest of the batch
    sequence.  ``crash_after=N`` kills the run after N completed batches
    (test hook, mirroring the fault plan's HARNESS_CRASH); calling again
    with ``resume=True`` replays the run, verifies the journaled prefix
    byte-identically, and returns the result an uninterrupted run would
    have produced.

    Pass a prebuilt ``scheduler`` (:class:`repro.scheduling.BatchScheduler`)
    to share learning state across calls; otherwise one is built from
    ``scheduler_config`` or the keyword arguments.
    """
    from ..framework.harness import HarnessConfig, TestHarness
    from ..scheduling import BatchScheduler, SchedulerConfig

    if resume and journal_path is None and scheduler is None and (
        scheduler_config is None or scheduler_config.journal_path is None
    ):
        raise ValueError("resume=True requires a journal_path")
    scale_name = resolve_scale(scale)
    workloads = [_normalize_batch(b, scale_name) for b in batches]

    own_scheduler = scheduler is None
    if own_scheduler:
        if scheduler_config is None:
            digest = hashlib.sha1(
                json.dumps(
                    [w.types for w in workloads], sort_keys=True
                ).encode("utf-8")
            ).hexdigest()
            scheduler_config = SchedulerConfig(
                policy=policy,
                seed=seed,
                scale=scale_name,
                spec=spec,
                max_width=width,
                epsilon=epsilon,
                journal_path=journal_path,
                resume=resume,
                salt=f"batched-serving:{digest}",
            )
        scheduler = BatchScheduler(scheduler_config)
    sched_policy = scheduler.config.policy

    if telemetry is not None:
        from ..telemetry.probes import instrument_scheduler

        instrument_scheduler(telemetry, scheduler)

    outcomes: List[BatchOutcome] = []
    try:
        for i, workload in enumerate(workloads):
            if crash_after is not None and i >= crash_after:
                # Mirrors the fault plan's HARNESS_CRASH: abandon the run
                # mid-stream, leaving the journal prefix for the resume.
                raise HarnessCrash(sum(b.makespan for b in outcomes))
            decision = scheduler.schedule(
                workload.types, device=device, width=width
            )
            apps = workload.instantiate(decision.schedule)
            batch_ctx = None
            if tracing is not None:
                # Scope the tracer so per-app trace names stay unique
                # across batches (each batch reuses instance numbers),
                # and record the scheduler's decision as its own trace.
                tracing.tracer.set_scope(f"batch-{i}")
                batch_ctx = tracing.tracer.start_trace(
                    "batch", 0.0, policy=sched_policy
                )
                tracing.tracer.instant(
                    batch_ctx,
                    "schedule.decision",
                    "scheduler-decision",
                    0.0,
                    order=decision.order_label,
                    num_streams=decision.num_streams,
                    memory_sync=decision.memory_sync,
                    predicted=decision.predicted_makespan,
                )
            harness = TestHarness(
                HarnessConfig(
                    apps=apps,
                    num_streams=decision.num_streams,
                    memory_sync=decision.memory_sync,
                    spec=spec,
                    seed=seed,
                    order_label=decision.order_label,
                    tracing=tracing,
                )
            )
            result = harness.run()
            if batch_ctx is not None:
                tracing.tracer.end_trace(
                    batch_ctx, result.makespan, outcome="completed"
                )
                tracing.tracer.set_scope("")
            scheduler.observe(decision, result.makespan, records=result.records)
            outcomes.append(
                BatchOutcome(
                    decision=decision,
                    makespan=result.makespan,
                    energy=result.energy,
                    records=result.records,
                )
            )
    except HarnessCrash as crash:
        # Decisions/observations up to the crash are on disk; stamp the
        # crash marker and leave the journal for the resume.
        scheduler.mark_crash(crash.time)
        if own_scheduler:
            scheduler.close()
        raise
    if own_scheduler:
        scheduler.close()

    return BatchedServingResult(
        policy=sched_policy,
        batches=outcomes,
        total_makespan=sum(b.makespan for b in outcomes),
        total_energy=sum(b.energy for b in outcomes),
        cumulative_regret=scheduler.cumulative_regret(device),
        recovered_entries=scheduler.recovered,
        resumed=resume,
        journal_file=(
            str(scheduler.config.journal_path)
            if scheduler.config.journal_path is not None
            else None
        ),
    )
