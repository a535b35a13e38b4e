"""The multi-device fleet harness: run a schedule across N devices and
survive losing some of them.

Mirrors :class:`~repro.framework.harness.TestHarness`'s paper flow (parent
prepares every app up front, then spawns one driver per app, staggered by
the thread-spawn cost) on top of the fleet machinery:

* apps are placed on devices by the :class:`~repro.fleet.coordinator.
  FailoverCoordinator` using the configured placement policy;
* each app runs inside a *driver* loop that retries faults from the last
  checkpoint and migrates across device losses;
* an optional crash-safe journal (reusing :class:`~repro.serving.journal.
  RunJournal`) records checkpoints, device losses, failovers and terminal
  app outcomes; a run killed by :class:`~repro.sim.errors.HarnessCrash`
  mid-failover resumes by deterministic replay, verified entry-by-entry.

:class:`FleetResult` aggregates per-device summaries (energy cut off at
the loss instant, goodput), recovery timelines and migration accounting,
and duck-types the pieces of :class:`~repro.framework.harness.
HarnessResult` that :class:`~repro.core.runner.RunResult` reads.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..framework.app_thread import close_traces
from ..framework.kernel import KernelApp
from ..framework.metrics import AppRecord, makespan
from ..framework.world import run_parent
from ..gpu.specs import DeviceSpec
from ..resilience.budget import RetryBudget, unfinishable
from ..resilience.degradation import ConcurrencyLimiter
from ..resilience.faults import FaultPlan
from ..resilience.metastable import MetastabilityProbe
from ..resilience.retry import app_rng
from ..sim.engine import Environment
from ..sim.errors import DeviceLost, FaultError, HarnessCrash, Interrupt
from ..sim.events import AllOf
from .checkpoint import CheckpointStore
from .config import FleetConfig
from .coordinator import FailoverCoordinator, RecoveryEvent
from .health import HealthEvent, HealthMonitor
from .hedging import HedgeManager, HedgeWin
from .registry import DeviceRegistry
from .thread import FleetAppThread

__all__ = ["DeviceSummary", "FleetResult", "FleetHarness", "run_fleet"]


class _ShedWork(Exception):
    """Raised at a checkpoint boundary to abandon deadline-doomed work."""


@dataclass
class DeviceSummary:
    """End-of-run accounting for one fleet device."""

    index: int
    state: str
    loss_time: Optional[float]
    detected_time: Optional[float]
    apps_completed: int
    energy: float
    peak_power: float
    #: ``rail<r>/sw<s>/rack<k>`` fault-domain tag; ``None`` without a
    #: configured topology.
    domain: Optional[str] = None

    def goodput(self, span: float) -> float:
        """Completed apps per second of fleet makespan."""
        return self.apps_completed / span if span > 0 else 0.0


@dataclass
class FleetResult:
    """Everything measured in one fleet run."""

    fleet: FleetConfig
    records: List[AppRecord]
    makespan: float
    total_time: float
    energy: float                 # sum over devices, cut at loss instants
    average_power: float          # fleet energy / makespan
    peak_power: float             # max over devices
    devices: List[DeviceSummary]
    health_events: List[HealthEvent]
    recoveries: List[RecoveryEvent]
    checkpoints: int = 0
    recovered_entries: int = 0
    resumed: bool = False
    #: Generation advances declared by the fence (one per device loss).
    fence_advances: int = 0
    #: Journal writes rejected for presenting a superseded fence token.
    stale_writes_rejected: int = 0
    #: Gray-failure mitigation accounting (all zero with hedging off).
    hedges_launched: int = 0
    hedge_wins: int = 0
    duplicate_kernels: int = 0
    hedge_events: List[dict] = field(default_factory=list)
    #: Failover-storm control accounting (all zero with storm=None).
    storm_queued: int = 0
    storm_released: int = 0
    storm_failed: int = 0
    storm_peak_depth: int = 0
    #: Shared retry-budget accounting (all zero with retry_budget=None).
    retry_budget_granted: int = 0
    retry_budget_denied: int = 0
    #: Metastability accounting (all zero/empty with brownout=None).
    metastable_windows: int = 0
    brownout_level: int = 0
    brownout_events: List[dict] = field(default_factory=list)
    goodput_windows: List[dict] = field(default_factory=list)
    journal_file: Optional[str] = None
    #: The run's telemetry (same object passed to the harness), if enabled.
    telemetry: object = None

    @property
    def completed(self) -> int:
        """Apps that ran to completion."""
        return sum(1 for r in self.records if not r.failed)

    @property
    def shed_apps(self) -> int:
        """Apps shed by deadline propagation or a level-2 brownout."""
        return sum(
            1 for r in self.records if r.outcome.startswith("shed-")
        )

    @property
    def deadline_misses(self) -> int:
        """Apps that finished (or gave up) past their deadline."""
        return sum(
            1 for r in self.records if r.outcome == "deadline-missed"
        )

    @property
    def retries_denied(self) -> int:
        """Retries/re-runs refused by the shared retry budget."""
        return sum(r.retries_denied for r in self.records)

    @property
    def failed(self) -> int:
        """Apps that could not be completed (faults or lost devices)."""
        return sum(1 for r in self.records if r.failed)

    @property
    def migrations(self) -> int:
        """Total device-loss failovers survived."""
        return sum(r.migrations for r in self.records)

    @property
    def reexecuted_kernels(self) -> int:
        """Total kernels re-run because they were in flight at a loss."""
        return sum(r.reexecuted_kernels for r in self.records)

    @property
    def devices_lost(self) -> int:
        """Devices that fell off the bus during the run."""
        return sum(1 for d in self.devices if d.state == "lost")

    @property
    def recovery_time(self) -> float:
        """Worst loss-to-resumed latency across recoveries (seconds)."""
        if not self.recoveries:
            return 0.0
        return max(r["resumed"] - r["lost"] for r in self.recoveries)

    def per_device_goodput(self) -> Dict[int, float]:
        """device index -> completed apps per second of makespan."""
        return {d.index: d.goodput(self.makespan) for d in self.devices}

    def summary(self) -> str:
        """One-paragraph digest (duck-types ``HarnessResult.summary``)."""
        text = (
            f"{len(self.records)} apps on {len(self.devices)} devices "
            f"({self.devices_lost} lost): {self.completed} completed, "
            f"{self.failed} failed, {self.migrations} migrations, "
            f"{self.reexecuted_kernels} kernels re-executed; makespan "
            f"{self.makespan * 1e3:.2f} ms, energy {self.energy:.3f} J, "
            f"avg power {self.average_power:.1f} W"
        )
        if self.recoveries:
            text += f"; worst recovery {self.recovery_time * 1e3:.2f} ms"
        return text


def _fleet_fingerprint(
    apps: Sequence[KernelApp],
    fleet: FleetConfig,
    num_streams: int,
    memory_sync: bool,
    copy_policy: str,
    spec: Optional[DeviceSpec],
    power_interval: float,
    plan: FaultPlan,
    seed: int,
    deadlines: Optional[Dict[str, float]] = None,
) -> str:
    """Content hash of everything that determines the run's journal."""
    payload = {
        "apps": [[a.app_id, a.profile.name] for a in apps],
        "fleet": [
            fleet.num_devices,
            fleet.heartbeat_interval,
            fleet.detection_latency,
            fleet.detection_jitter,
            fleet.failover,
            fleet.checkpoint,
            fleet.max_attempts,
            fleet.placement,
            fleet.seed,
        ],
        "num_streams": num_streams,
        "memory_sync": memory_sync,
        "copy_policy": copy_policy,
        "spec": spec.name if spec is not None else None,
        "power_interval": power_interval,
        # HARNESS_CRASH is excluded on purpose: a crash (and the resume
        # that follows) does not change what the run computes, so a
        # crashed-and-resumed journal stays byte-identical to the journal
        # of the same run executed uninterrupted.
        "plan": [
            [f.kind.value, f.time, f.target, f.duration, f.factor,
             f.direction, f.device]
            for f in plan
            if f.kind.value != "harness_crash"
        ],
        "seed": seed,
    }
    if fleet.hedging is not None:
        # Key is absent (not None) with hedging off so fingerprints — and
        # therefore journals — of pre-gray runs stay byte-identical.
        h = fleet.hedging
        payload["hedging"] = [
            h.check_interval,
            h.straggler_score,
            h.min_samples,
            h.ema_alpha,
            h.window,
            h.min_remaining_kernels,
            h.budget_fraction,
            h.max_hedges_per_app,
        ]
    # Like "hedging": every containment key is absent — not None — when
    # its feature is off, so pre-cascade journals stay byte-identical.
    if fleet.topology is not None:
        t = fleet.topology
        payload["topology"] = [t.rails, t.switches, t.racks, t.shuffle_seed]
    if fleet.storm is not None:
        s = fleet.storm
        payload["storm"] = [s.max_inflight_per_device, s.pace_interval]
    if fleet.retry_budget is not None:
        b = fleet.retry_budget
        payload["retry_budget"] = [b.rate, b.burst, b.shared]
    if fleet.brownout is not None:
        bo = fleet.brownout
        payload["brownout"] = [
            bo.window,
            bo.floor,
            bo.trip_windows,
            bo.recover_windows,
            bo.max_level,
            bo.width_factor,
            list(bo.shed_types),
            bo.per_device_rate,
        ]
    if fleet.retry_backoff is not None:
        rb = fleet.retry_backoff
        payload["retry_backoff"] = [
            rb.max_attempts,
            rb.base_delay,
            rb.backoff,
            rb.jitter,
            rb.mode,
        ]
    if fleet.shed_unfinishable:
        payload["shed_unfinishable"] = True
    if deadlines:
        payload["deadlines"] = sorted(
            [app_id, float(t)] for app_id, t in deadlines.items()
        )
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha1(blob).hexdigest()


class FleetHarness:
    """Executes one schedule on a fleet of devices, with failover."""

    def __init__(
        self,
        apps: Sequence[KernelApp],
        fleet: Optional[FleetConfig] = None,
        *,
        num_streams: int = 4,
        memory_sync: bool = False,
        spec: Optional[DeviceSpec] = None,
        copy_policy: str = "interleave",
        power_interval: float = 15e-3,
        plan: Optional[FaultPlan] = None,
        seed: int = 0,
        journal_path=None,
        resume: bool = False,
        telemetry=None,
        tracing=None,
        deadlines: Optional[Dict[str, float]] = None,
    ) -> None:
        if not apps:
            raise ValueError("empty schedule")
        if resume and journal_path is None:
            raise ValueError("resume=True requires a journal_path")
        self.apps = list(apps)
        #: Absolute SLO deadlines per app id (may cover a subset).
        #: Drives queue priority under storm control, deadline shedding
        #: (``shed_unfinishable``), and the late-completion re-run model.
        self.deadlines: Dict[str, float] = dict(deadlines or {})
        known = {a.app_id for a in apps}
        for app_id in self.deadlines:
            if app_id not in known:
                raise ValueError(f"deadline for unknown app {app_id!r}")
        self.fleet = fleet if fleet is not None else FleetConfig()
        self.num_streams = num_streams
        self.memory_sync = memory_sync
        self.spec = spec
        self.copy_policy = copy_policy
        self.power_interval = power_interval
        self.plan = plan if plan is not None else FaultPlan()
        self.seed = seed
        self.journal_path = journal_path
        self.resume = resume
        self.telemetry = telemetry
        #: Optional repro.telemetry.Tracing: per-app causal traces with
        #: migration-stall / checkpoint / hedge spans.  None = untraced.
        self.tracing = tracing

    def run(self) -> FleetResult:
        """Build the fleet, run the schedule to completion, measure."""
        from ..integrity.fencing import FencedJournal, GenerationFence
        from ..serving.journal import JournalMismatchError, RunJournal

        fleet = self.fleet
        env = Environment()
        tracer = self.tracing.tracer if self.tracing is not None else None
        if tracer is not None:
            env.attach_tracer(tracer)
        registry = DeviceRegistry(
            env,
            fleet,
            num_streams=self.num_streams,
            memory_sync=self.memory_sync,
            spec=self.spec,
            copy_policy=self.copy_policy,
            power_interval=self.power_interval,
            plan=self.plan,
        )
        store = CheckpointStore()

        journal = None
        recovered = 0
        if self.journal_path is not None:
            journal = RunJournal(self.journal_path)
            fingerprint = _fleet_fingerprint(
                self.apps,
                fleet,
                self.num_streams,
                self.memory_sync,
                self.copy_policy,
                registry.spec,
                self.power_interval,
                self.plan,
                self.seed,
                self.deadlines,
            )
            recovered = journal.begin(fingerprint, resume=self.resume)

        # All fleet journaling goes through the fence: checkpoint writes
        # present their bind-time token, coordinator/terminal records pass
        # tokenless (they are legitimate after a loss).
        fence = GenerationFence()
        fenced = FencedJournal(journal, fence) if journal is not None else None
        coordinator = FailoverCoordinator(
            env, registry, fleet, store, journal=fenced, fence=fence,
            deadlines=self.deadlines,
        )
        deadline_of = self.deadlines

        # Shared retry budget: one token bucket gating supervisor-style
        # fault retries, deadline re-runs *and* hedge launches.
        budget: Optional[RetryBudget] = None
        if fleet.retry_budget is not None:
            budget = RetryBudget(fleet.retry_budget, lambda: env.now)

        # Gray-failure mitigation is built only when configured: with
        # ``hedging=None`` no detector exists, no observation callbacks
        # fire, no scan process runs — results stay byte-identical.
        detector = None
        hedges: Optional[HedgeManager] = None
        if fleet.hedging is not None:
            from ..resilience.gray import StragglerDetector

            hcfg = fleet.hedging
            detector = StragglerDetector(
                fleet.num_devices,
                ema_alpha=hcfg.ema_alpha,
                window=hcfg.window,
                min_samples=hcfg.min_samples,
                straggler_score=hcfg.straggler_score,
            )
            hedges = HedgeManager(
                env,
                registry,
                coordinator,
                store,
                fleet,
                detector,
                total_kernels={
                    a.app_id: a.profile.kernel_launches for a in self.apps
                },
                journal=fenced,
                fence=fence,
                budget=budget,
            )

        # Metastability probe + brownout ladder: built only when
        # configured, like hedging — otherwise no process, no gates,
        # byte-identical results.
        probe: Optional[MetastabilityProbe] = None
        width_gates: Optional[Dict[int, ConcurrencyLimiter]] = None
        if fleet.brownout is not None:
            width_gates = {
                d.index: ConcurrencyLimiter(
                    env, self.num_streams, name=f"width-dev{d.index}"
                )
                for d in registry
            }

            def on_brownout(level: int, old: int) -> None:
                # Level >= 1: narrow per-device admission width so running
                # attempts stop time-sharing with the recovery backlog,
                # and stand the hedge scanner down (speculative duplicates
                # are the last thing an overloaded fleet needs).
                if level >= 1:
                    width = max(
                        1,
                        int(self.num_streams * fleet.brownout.width_factor),
                    )
                else:
                    width = self.num_streams
                for gate in width_gates.values():
                    gate.set_limit(width)
                if hedges is not None:
                    hedges.suspended = level >= 1

            probe = MetastabilityProbe(
                env,
                fleet.brownout,
                lambda: len(registry.healthy()),
                journal=fenced,
                on_level=on_brownout,
            )

        monitor = HealthMonitor(
            env,
            registry,
            interval=fleet.heartbeat_interval,
            detection_latency=fleet.detection_latency,
            detection_jitter=fleet.detection_jitter,
            seed=fleet.seed,
            on_lost=coordinator.device_detected_lost,
            detector=detector,
        )

        # The first planned harness crash kills the run at its arm time —
        # unless we are resuming past it.
        crash_at: Optional[float] = None
        crashes = self.plan.crash_times()
        if crashes and not self.resume:
            crash_at = crashes[0]

        records: List[AppRecord] = []
        spec = registry.spec

        telemetry = self.telemetry
        if telemetry is not None:
            from ..telemetry.probes import (
                instrument_failover,
                instrument_fleet_health,
                instrument_health_monitor,
                instrument_hedging,
                instrument_integrity,
                instrument_run,
            )

            instrument_run(telemetry, env, records, registry)
            instrument_fleet_health(telemetry, registry)
            instrument_health_monitor(telemetry, monitor)
            instrument_failover(telemetry, coordinator)
            instrument_integrity(telemetry, None, fence=fence, journal=journal)
            if hedges is not None:
                instrument_hedging(telemetry, hedges, detector)
            if (
                probe is not None
                or coordinator.storm is not None
                or budget is not None
            ):
                from ..telemetry.probes import instrument_cascade

                instrument_cascade(
                    telemetry,
                    probe=probe,
                    storm=coordinator.storm,
                    budget=budget,
                )

        def bind(thread: FleetAppThread, fdev) -> None:
            # (Re-)binding takes a fresh fencing token; snapshots carry
            # its generation so stale post-failover writes are rejected.
            thread.bind(fdev)
            thread.fence_token = fence.token(fdev.index)
            thread.checkpoint.generation = thread.fence_token.generation

        # Per-app high-water mark of checkpointed kernels: the probe is
        # fed only *new* progress, and only while the app can still meet
        # its deadline — work re-executed for doomed attempts is retry
        # amplification, not goodput.
        progress_seen: Dict[str, int] = {}

        def note_progress(thread: FleetAppThread) -> None:
            if probe is None:
                return
            app_id = thread.app.app_id
            completed = thread.checkpoint.completed_kernels
            seen = progress_seen.get(app_id, 0)
            if completed > seen:
                deadline = deadline_of.get(app_id)
                if deadline is None or env.now <= deadline:
                    probe.note_progress(completed - seen)
                progress_seen[app_id] = completed

        def on_checkpoint(thread: FleetAppThread) -> None:
            app_id = thread.app.app_id
            note_progress(thread)
            if tracer is not None and thread.trace_ctx is not None:
                tracer.instant(
                    thread.trace_ctx, "checkpoint", "checkpoint", env.now,
                    kernels=thread.checkpoint.completed_kernels,
                )
            # A migrant that reached a phase boundary on its new device
            # is warmed up: its recovery slot stops gating the queue.
            coordinator.note_warmed(app_id)
            if fleet.checkpoint:
                snapshot = dataclasses.replace(thread.checkpoint)
                store.save(snapshot)
                if fenced is not None:
                    fenced.record(snapshot.as_entry(), token=thread.fence_token)
            if fleet.shed_unfinishable and unfinishable(
                env.now, deadline_of.get(app_id)
            ):
                # Deadline propagation: the attempt cannot produce useful
                # output anymore, so stop burning capacity on it.
                raise _ShedWork()

        def adopt_win(record: AppRecord, win: HedgeWin) -> None:
            # The replica's result becomes the app's result; its measured
            # events join the record so all executed work stays visible.
            record.outcome = "completed"
            record.complete_time = win.time
            record.device_index = win.device
            record.stream_index = win.stream
            record.hedge_wins += 1
            record.duplicate_kernels += win.duplicates
            record.kernels.extend(win.kernels)
            record.transfers.extend(win.transfers)

        def drive(thread: FleetAppThread, record: AppRecord):
            app_id = thread.app.app_id
            trace_ctx = thread.trace_ctx
            traced = tracer is not None and trace_ctx is not None
            # Seeded at the first backoff, not here: most apps never
            # retry, and a generator costs tens of microseconds to build.
            backoff_rng = None
            fault_failures = 0
            attempts = 0
            pending_reexec: Optional[int] = None

            def terminal(outcome: str) -> None:
                record.failed = outcome != "completed"
                record.outcome = outcome
                record.complete_time = env.now

            while True:
                acquire_from = env.now
                fdev = yield from coordinator.acquire_device(app_id)
                if traced and env.now > acquire_from:
                    # Parked waiting for a surviving device: the failover/
                    # re-placement stall the critical path should show.
                    tracer.record(
                        trace_ctx, "migration.stall", "migration-stall",
                        acquire_from, env.now, attempt=attempts + 1,
                    )
                if hedges is not None:
                    # A replica may have finished while this driver was
                    # parked mid-failover: adopt its win instead of
                    # re-running from the checkpoint.
                    win = hedges.claim_win(app_id)
                    if win is not None:
                        adopt_win(record, win)
                        break
                if fdev is None:
                    terminal("device-lost")
                    break
                deadline = deadline_of.get(app_id)
                if fleet.shed_unfinishable and unfinishable(env.now, deadline):
                    # Deadline propagation at admission: do not start
                    # (or restart) work that can no longer finish.
                    terminal("shed-deadline")
                    break
                if probe is not None and probe.shed_class(record.type_name):
                    # Level-2 brownout: low-priority classes are dropped
                    # at their next admission point.
                    terminal("shed-brownout")
                    break
                if pending_reexec is not None:
                    record.migrations += 1
                    record.reexecuted_kernels += pending_reexec
                    pending_reexec = None
                bind(thread, fdev)
                attempts += 1
                record.attempts = attempts
                gate = (
                    width_gates.get(fdev.index)
                    if width_gates is not None
                    else None
                )
                holding = False
                try:
                    if gate is not None:
                        gate_from = env.now
                        yield from gate.acquire()
                        holding = True
                        if traced and env.now > gate_from:
                            tracer.record_leaf(
                                trace_ctx, "brownout.gate",
                                "admission-limiter", gate_from, env.now,
                            )
                    yield from thread.run_attempt()
                except _ShedWork:
                    terminal("shed-deadline")
                    break
                except Interrupt as exc:
                    cause = exc.cause
                    if isinstance(cause, HedgeWin):
                        adopt_win(record, cause)
                        break
                    if not isinstance(cause, DeviceLost):
                        raise
                    pending_reexec = thread.note_device_lost(cause)
                    if not fleet.checkpoint:
                        pending_reexec += thread.restart_from_scratch()
                    continue
                except FaultError:
                    fault_failures += 1
                    record.faults_detected += 1
                    if fault_failures >= fleet.max_attempts:
                        terminal("failed")
                        break
                    if fleet.shed_unfinishable and unfinishable(
                        env.now, deadline
                    ):
                        terminal("shed-deadline")
                        break
                    if budget is not None and not budget.try_spend(
                        record.type_name, env.now
                    ):
                        # The attempt cap would allow a retry, but the
                        # shared budget is empty: shed, don't amplify.
                        record.retries_denied += 1
                        terminal("retry-budget")
                        break
                    record.retries += 1
                    thread.reset_attempt()
                    if not fleet.checkpoint:
                        thread.restart_from_scratch()
                    if fleet.retry_backoff is not None:
                        if backoff_rng is None:
                            backoff_rng = app_rng(self.seed, app_id)
                        delay = fleet.retry_backoff.delay(
                            fault_failures, backoff_rng
                        )
                        if delay > 0:
                            backoff_from = env.now
                            yield env.timeout(delay)
                            if traced:
                                tracer.record(
                                    trace_ctx, "retry.backoff",
                                    "retry-backoff", backoff_from, env.now,
                                    attempt=attempts,
                                )
                    continue
                finally:
                    if holding:
                        gate.release()
                # The attempt finished cleanly — but did it finish in
                # time?  A late completion is worthless to its client.
                if deadline is not None and env.now > deadline:
                    if fleet.shed_unfinishable or attempts >= fleet.max_attempts:
                        terminal("deadline-missed")
                        break
                    if budget is not None and not budget.try_spend(
                        record.type_name, env.now
                    ):
                        record.retries_denied += 1
                        terminal("deadline-missed")
                        break
                    # Uncontained client behaviour: the response arrived
                    # too late, so the whole request is re-submitted from
                    # scratch — the deadline-driven retry storm that
                    # containment exists to break.
                    record.retries += 1
                    thread.reset_attempt()
                    record.reexecuted_kernels += thread.restart_from_scratch()
                    continue
                record.outcome = "completed"
                break
            coordinator.note_warmed(app_id)
            if hedges is not None:
                # Terminal either way: a still-racing replica stands down.
                hedges.primary_terminal(app_id)
            coordinator.note_done(app_id)
            if fenced is not None:
                # Tokenless on purpose: a "device-lost" terminal outcome
                # is legitimately written after the generation advanced.
                fenced.record(
                    {
                        "event": "app",
                        "app": app_id,
                        "outcome": record.outcome,
                        "device": record.device_index,
                        "migrations": record.migrations,
                        "reexec": record.reexecuted_kernels,
                        "complete": record.complete_time,
                    }
                )

        #: launch_index -> root SpanContext for every traced app.
        trace_ctxs: Dict[int, object] = {}

        def parent():
            threads: List[FleetAppThread] = []
            for launch_index, app in enumerate(self.apps):
                record = AppRecord.for_app(
                    app, launch_index, deadline_of.get(app.app_id, 0.0)
                )
                records.append(record)
                thread = FleetAppThread(
                    env, app, record,
                    checkpoint=_fresh_checkpoint(app.app_id),
                    on_checkpoint=on_checkpoint,
                )
                thread.detector = detector
                fdev = coordinator.register(thread)
                bind(thread, fdev)
                threads.append(thread)
                if tracer is not None:
                    thread.open_trace(tracer, env.now, trace_ctxs)
                yield from thread.prepare()

            registry.start()
            monitor.start()
            if hedges is not None:
                hedges.start()
            if coordinator.storm is not None:
                coordinator.storm.start()
            if probe is not None:
                probe.start()
            if telemetry is not None:
                telemetry.start()
            children = []
            for thread, record in zip(threads, records):
                yield env.timeout(spec.host.thread_spawn_cost)
                record.spawn_time = env.now
                proc = env.process(
                    drive(thread, record),
                    name=f"fleet-drive-{thread.app.app_id}",
                )
                coordinator.register_proc(thread.app.app_id, proc)
                children.append(proc)
            if children:
                yield AllOf(env, children)
            if hedges is not None:
                hedges.stop()
            if coordinator.storm is not None:
                coordinator.storm.stop()
            if probe is not None:
                probe.stop()
            monitor.stop()
            registry.stop()
            if telemetry is not None:
                telemetry.stop()
            for thread in threads:
                yield from thread.cleanup()
            if hedges is not None:
                yield from hedges.cleanup_replicas()

        try:
            run_parent(
                env, parent(), "fleet-parent",
                crash_at=crash_at, crash_name="fleet-crash",
            )
        except HarnessCrash as crash:
            if journal is not None:
                journal.mark_crash(crash.time)
                journal.close()
            raise
        if telemetry is not None:
            telemetry.finalize()

        if journal is not None:
            if journal.pending:
                raise JournalMismatchError(
                    f"resumed run settled only "
                    f"{journal.verified}/{journal.recovered} journaled "
                    "entries; the journal belongs to a longer run"
                )
            journal.close()

        if tracer is not None:
            close_traces(tracer, trace_ctxs, records)
            if hedges is not None:
                self._trace_hedges(tracer, trace_ctxs, records, hedges)

        span = makespan(records)
        t0 = min(r.spawn_time for r in records)
        t1 = max(r.complete_time for r in records)
        summaries: List[DeviceSummary] = []
        total_energy = 0.0
        peak = 0.0
        for device in registry:
            energy = device.energy_between(t0, t1)
            total_energy += energy
            peak = max(peak, device.monitor.peak_power())
            summaries.append(
                DeviceSummary(
                    index=device.index,
                    state=device.state.value,
                    loss_time=device.loss_time,
                    detected_time=device.detected_time,
                    apps_completed=sum(
                        1
                        for r in records
                        if not r.failed and r.device_index == device.index
                    ),
                    energy=energy,
                    peak_power=device.monitor.peak_power(),
                    domain=(
                        registry.topology.label(device.index)
                        if registry.topology is not None
                        else None
                    ),
                )
            )
        for recovery in coordinator.recoveries:
            recovery["reexecuted_kernels"] = sum(
                r.reexecuted_kernels
                for r in records
                if r.app_id in recovery["apps"]
            )
        return FleetResult(
            fleet=fleet,
            records=records,
            makespan=span,
            total_time=env.now,
            energy=total_energy,
            average_power=total_energy / span if span > 0 else 0.0,
            peak_power=peak,
            devices=summaries,
            health_events=monitor.events,
            recoveries=coordinator.recoveries,
            checkpoints=store.snapshots,
            recovered_entries=recovered,
            resumed=self.resume,
            fence_advances=fence.advances,
            stale_writes_rejected=coordinator.stale_writes_rejected,
            hedges_launched=hedges.hedges_launched if hedges else 0,
            hedge_wins=hedges.hedge_wins if hedges else 0,
            duplicate_kernels=hedges.duplicate_kernels if hedges else 0,
            hedge_events=list(hedges.events) if hedges else [],
            storm_queued=(
                coordinator.storm.queued_total if coordinator.storm else 0
            ),
            storm_released=(
                coordinator.storm.released_total if coordinator.storm else 0
            ),
            storm_failed=(
                coordinator.storm.failed_total if coordinator.storm else 0
            ),
            storm_peak_depth=(
                coordinator.storm.peak_depth if coordinator.storm else 0
            ),
            retry_budget_granted=budget.granted_total if budget else 0,
            retry_budget_denied=budget.denied_total if budget else 0,
            metastable_windows=probe.metastable_windows if probe else 0,
            brownout_level=probe.level if probe else 0,
            brownout_events=list(probe.events) if probe else [],
            goodput_windows=list(probe.windows) if probe else [],
            journal_file=(
                str(self.journal_path)
                if self.journal_path is not None
                else None
            ),
            telemetry=telemetry,
        )

    @staticmethod
    def _trace_hedges(tracer, trace_ctxs, records, hedges) -> None:
        """Convert the hedge manager's event log into trace spans.

        Each ``hedge`` / ``hedge-done`` pair becomes one ``hedge`` span
        on the primary app's trace (launch -> win/cancel); a launch with
        no terminal event (crashed run) becomes an instant.
        """
        ctx_of = {
            r.app_id: trace_ctxs.get(r.launch_index) for r in records
        }
        open_hedges = {}
        for event in hedges.events:
            ctx = ctx_of.get(event["app"])
            if ctx is None:
                continue
            key = (event["app"], event["replica"])
            if event["event"] == "hedge":
                open_hedges[key] = event
            elif event["event"] == "hedge-done" and key in open_hedges:
                launch = open_hedges.pop(key)
                tracer.record(
                    ctx, "hedge.replica", "hedge",
                    launch["t"], event["t"],
                    replica=event["replica"],
                    winner=event["winner"],
                    duplicates=event["dup"],
                )
        for key, launch in open_hedges.items():
            ctx = ctx_of.get(launch["app"])
            if ctx is not None:
                tracer.instant(
                    ctx, "hedge.launch", "hedge", launch["t"],
                    replica=launch["replica"],
                )


def _fresh_checkpoint(app_id: str):
    from .checkpoint import AppCheckpoint

    return AppCheckpoint(app_id=app_id)


def run_fleet(apps: Sequence[KernelApp], **kwargs) -> FleetResult:
    """One-call convenience wrapper over :class:`FleetHarness`."""
    return FleetHarness(apps, **kwargs).run()
