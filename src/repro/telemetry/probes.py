"""Standard probes: wire each layer's live state into the registry.

Probes follow a strict pull model — on every sampler tick they *read*
simulation state (queue depths, occupancy, watts, counters) and write it
into registry metrics.  Nothing here mutates the simulation, and nothing
here runs at all when telemetry is disabled, which is how the subsystem
stays byte-identical-off and <2%-overhead-on.

Monotonic model counters (commands issued, grids completed, bytes moved)
are mirrored into registry :class:`~repro.telemetry.registry.Counter`
objects via the *delta pattern*: each probe closure remembers the last
value it saw and increments the counter by the difference, so exported
counters stay genuinely monotonic (Prometheus ``rate()`` works) instead of
being gauges in disguise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Optional

from .sampler import Telemetry

if TYPE_CHECKING:  # pragma: no cover
    from ..fleet.coordinator import FailoverCoordinator
    from ..fleet.health import HealthMonitor
    from ..fleet.registry import DeviceRegistry
    from ..framework.world import DeviceWorld
    from ..gpu.device import GPUDevice
    from ..sim.engine import Environment

__all__ = [
    "instrument_run",
    "instrument_environment",
    "instrument_device",
    "instrument_records",
    "instrument_injector",
    "instrument_health_monitor",
    "instrument_fleet_health",
    "instrument_failover",
    "instrument_hedging",
    "instrument_cascade",
    "instrument_scheduler",
    "instrument_integrity",
]

#: Histogram bucket edges for failover durations (seconds): sub-millisecond
#: detection through multi-second recoveries.
FAILOVER_BUCKETS = (1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0)


def _pull_counter(counter, read: Callable[[], float], **labels) -> Callable[[], None]:
    """Delta-pattern probe: mirror a monotonic model counter into ``counter``."""
    last = [float(read())]

    def probe() -> None:
        current = float(read())
        delta = current - last[0]
        if delta > 0:
            counter.inc(delta, **labels)
            last[0] = current

    return probe


def instrument_run(
    telemetry: Telemetry,
    env: "Environment",
    records: Iterable,
    worlds: Iterable["DeviceWorld"],
    injector=None,
) -> None:
    """Attach ``telemetry`` to a run and wire its standard probes.

    The event loop, then each device world (its GPU and its fault
    injector, labelled by device index), the run's records, and
    ``injector``: one that no world owns, such as the batch harness's
    empty-plan injector.
    """
    telemetry.attach(env)
    instrument_environment(telemetry, env)
    for world in worlds:
        label = str(world.index)
        instrument_device(telemetry, world.gpu, device_label=label)
        instrument_injector(telemetry, world.injector, device_label=label)
    instrument_records(telemetry, records)
    instrument_injector(telemetry, injector)


# -- sim engine ------------------------------------------------------------


def instrument_environment(telemetry: Telemetry, env: "Environment") -> None:
    """Event-loop depth and throughput of the discrete-event engine."""
    depth = telemetry.gauge(
        "repro_sim_calendar_depth", "Events pending in the event calendar"
    )
    events = telemetry.counter(
        "repro_sim_events_total", "Events popped from the calendar"
    )

    telemetry.add_probe(lambda: depth.set(env.queue_size))
    telemetry.add_probe(_pull_counter(events, lambda: env.events_processed))


# -- GPU device ------------------------------------------------------------


def instrument_device(
    telemetry: Telemetry, device: "GPUDevice", device_label: str = "0"
) -> None:
    """Occupancy, DMA, Hyper-Q, grid-engine and power signals of one GPU."""
    dev = device_label

    occupancy = telemetry.gauge(
        "repro_gpu_thread_occupancy",
        "Resident threads / device thread capacity",
        labelnames=("device",),
    )
    busy_smx = telemetry.gauge(
        "repro_gpu_busy_smx",
        "SMXs with at least one resident block",
        labelnames=("device",),
    )
    resident_blocks = telemetry.gauge(
        "repro_gpu_resident_blocks",
        "Thread blocks resident across the device",
        labelnames=("device",),
    )
    smx_occupancy = telemetry.gauge(
        "repro_gpu_smx_occupancy",
        "Per-SMX resident threads / SMX thread capacity",
        labelnames=("device", "smx"),
    )
    watts = telemetry.gauge(
        "repro_gpu_power_watts", "Instantaneous board power", labelnames=("device",)
    )
    active_grids = telemetry.gauge(
        "repro_gpu_active_grids",
        "Grids resident on the grid engine",
        labelnames=("device",),
    )
    inflight = telemetry.gauge(
        "repro_gpu_inflight_commands",
        "Commands dispatched and not yet retired",
        labelnames=("device",),
    )
    active_streams = telemetry.gauge(
        "repro_gpu_active_streams",
        "Streams with in-flight commands",
        labelnames=("device",),
    )
    hq_in_use = telemetry.gauge(
        "repro_gpu_hyperq_queues_in_use",
        "Hardware work queues with at least one stream mapped",
        labelnames=("device",),
    )
    hq_live = telemetry.gauge(
        "repro_gpu_hyperq_live_queues",
        "Hardware work queues with an unretired tail command",
        labelnames=("device",),
    )
    dma_depth = telemetry.gauge(
        "repro_gpu_dma_queue_depth",
        "Memcpy commands waiting for the engine",
        labelnames=("device", "direction"),
    )
    dma_stretch = telemetry.gauge(
        "repro_gpu_dma_latency_stretch",
        "(wire + queueing time) / wire time of served transfers",
        labelnames=("device", "direction"),
    )
    commands = telemetry.counter(
        "repro_gpu_commands_issued_total",
        "Commands enqueued on the device",
        labelnames=("device",),
    )
    grids_done = telemetry.counter(
        "repro_gpu_grids_completed_total",
        "Kernel grids retired",
        labelnames=("device",),
    )
    waves = telemetry.counter(
        "repro_gpu_waves_total",
        "Block-scheduler placement passes that placed work",
        labelnames=("device",),
    )
    hq_depth = telemetry.counter(
        "repro_gpu_hyperq_commands_total",
        "Commands pushed through the hardware work queues",
        labelnames=("device",),
    )
    dma_cmds = telemetry.counter(
        "repro_gpu_dma_commands_total",
        "Memcpy commands served",
        labelnames=("device", "direction"),
    )
    dma_bytes = telemetry.counter(
        "repro_gpu_dma_bytes_total",
        "Bytes moved by the DMA engines",
        labelnames=("device", "direction"),
    )
    dma_busy_s = telemetry.counter(
        "repro_gpu_dma_busy_seconds_total",
        "Accumulated wire time",
        labelnames=("device", "direction"),
    )
    dma_wait_s = telemetry.counter(
        "repro_gpu_dma_wait_seconds_total",
        "Accumulated ready-to-start queueing delay",
        labelnames=("device", "direction"),
    )

    smx_cap = float(device.smx.spec.max_threads)
    fabric = device.fabric

    def sample_device() -> None:
        occupancy.set(device.smx.thread_occupancy, device=dev)
        busy_smx.set(device.smx.busy_smx_count, device=dev)
        resident_blocks.set(device.smx.resident_blocks, device=dev)
        for smx in device.smx:
            smx_occupancy.set(
                smx.resident_threads / smx_cap, device=dev, smx=str(smx.index)
            )
        watts.set(device.power.current_power, device=dev)
        active_grids.set(device.grid_engine.active_grids, device=dev)
        inflight.set(device._inflight, device=dev)
        active_streams.set(device._active_streams, device=dev)
        hq_in_use.set(len(set(fabric._stream_to_queue.values())), device=dev)
        hq_live.set(
            sum(
                1
                for q in fabric.queues
                if q._tail is not None and q._tail.callbacks is not None
            ),
            device=dev,
        )
        for direction, engine in device.dma.items():
            d = direction.value
            dma_depth.set(engine.pending_count, device=dev, direction=d)
            if engine.busy_seconds > 0:
                dma_stretch.set(
                    (engine.busy_seconds + engine.wait_seconds) / engine.busy_seconds,
                    device=dev,
                    direction=d,
                )

    telemetry.add_probe(sample_device)
    telemetry.add_probe(
        _pull_counter(commands, lambda: device.commands_issued, device=dev)
    )
    telemetry.add_probe(
        _pull_counter(grids_done, lambda: device.grid_engine.grids_completed, device=dev)
    )
    telemetry.add_probe(
        _pull_counter(waves, lambda: device.grid_engine.total_waves, device=dev)
    )
    telemetry.add_probe(
        _pull_counter(
            hq_depth,
            lambda: sum(q.depth_total for q in fabric.queues),
            device=dev,
        )
    )
    for direction, engine in device.dma.items():
        d = direction.value
        telemetry.add_probe(
            _pull_counter(
                dma_cmds, lambda e=engine: e.commands_served, device=dev, direction=d
            )
        )
        telemetry.add_probe(
            _pull_counter(
                dma_bytes, lambda e=engine: e.bytes_moved, device=dev, direction=d
            )
        )
        telemetry.add_probe(
            _pull_counter(
                dma_busy_s, lambda e=engine: e.busy_seconds, device=dev, direction=d
            )
        )
        telemetry.add_probe(
            _pull_counter(
                dma_wait_s, lambda e=engine: e.wait_seconds, device=dev, direction=d
            )
        )


# -- resilience ------------------------------------------------------------


def instrument_records(telemetry: Telemetry, records: Iterable) -> None:
    """Retry/fault/watchdog accounting pulled from live ``AppRecord``s."""
    retries = telemetry.counter(
        "repro_resilience_retries_total", "Application retry attempts"
    )
    denied = telemetry.counter(
        "repro_resilience_retries_denied_total",
        "Retries refused by the shared retry budget",
    )
    faults = telemetry.counter(
        "repro_resilience_faults_detected_total", "Faults detected by supervisors"
    )
    watchdog = telemetry.counter(
        "repro_resilience_watchdog_firings_total", "Watchdog deadline hits"
    )

    telemetry.add_probe(
        _pull_counter(retries, lambda: sum(r.retries for r in records))
    )
    telemetry.add_probe(
        _pull_counter(denied, lambda: sum(r.retries_denied for r in records))
    )
    telemetry.add_probe(
        _pull_counter(faults, lambda: sum(r.faults_detected for r in records))
    )
    telemetry.add_probe(
        _pull_counter(watchdog, lambda: sum(r.deadline_hits for r in records))
    )


def instrument_injector(
    telemetry: Telemetry, injector, device_label: str = "0"
) -> None:
    """Per-kind injected-fault counts pulled from a ``FaultInjector``."""
    if injector is None:
        return
    injected = telemetry.counter(
        "repro_resilience_faults_injected_total",
        "Faults armed by the injector, by kind",
        labelnames=("device", "kind"),
    )

    last: dict = {}

    def probe() -> None:
        for kind, n in injector.applied_counts().items():
            key = getattr(kind, "value", str(kind))
            delta = n - last.get(key, 0)
            if delta > 0:
                injected.inc(delta, device=device_label, kind=key)
                last[key] = n

    telemetry.add_probe(probe)


# -- fleet -----------------------------------------------------------------

#: Numeric encoding of device health for the gauge (2 = healthy, 1 =
#: degraded, 0 = lost) — higher is healthier, so dips read naturally.
_HEALTH_SCORE = {"healthy": 2.0, "degraded": 1.0, "lost": 0.0}


def instrument_fleet_health(
    telemetry: Telemetry, registry: "DeviceRegistry"
) -> None:
    """Registry health of every fleet slot."""
    health = telemetry.gauge(
        "repro_fleet_device_health",
        "Registry health (2 healthy / 1 degraded / 0 lost)",
        labelnames=("device",),
    )
    for device in registry:
        label = str(device.index)
        telemetry.add_probe(
            lambda d=device, label=label: health.set(
                _HEALTH_SCORE[d.state.value], device=label
            )
        )


def instrument_health_monitor(
    telemetry: Telemetry, monitor: "HealthMonitor"
) -> None:
    """Heartbeat reads/misses and observed-state transitions."""
    beats = telemetry.counter(
        "repro_fleet_heartbeats_total", "Heartbeat readings taken"
    )
    missed = telemetry.counter(
        "repro_fleet_missed_heartbeats_total",
        "Heartbeats observed missing, per device",
        labelnames=("device",),
    )
    transitions = telemetry.counter(
        "repro_fleet_health_transitions_total",
        "Observed device state transitions",
        labelnames=("device", "to"),
    )

    telemetry.add_probe(_pull_counter(beats, lambda: monitor.heartbeats_read))

    missed_last: dict = {}
    events_seen = [0]

    def probe() -> None:
        for index, n in monitor.missed_heartbeats.items():
            delta = n - missed_last.get(index, 0)
            if delta > 0:
                missed.inc(delta, device=str(index))
                missed_last[index] = n
        for event in monitor.events[events_seen[0]:]:
            transitions.inc(1, device=str(event.device), to=event.new_state)
        events_seen[0] = len(monitor.events)

    telemetry.add_probe(probe)


def instrument_failover(
    telemetry: Telemetry, coordinator: "FailoverCoordinator"
) -> None:
    """Failover counts, durations and migrated-app totals."""
    failovers = telemetry.counter(
        "repro_fleet_failovers_total", "Completed device failovers"
    )
    migrated = telemetry.counter(
        "repro_fleet_migrated_apps_total", "Applications migrated off lost devices"
    )
    duration = telemetry.histogram(
        "repro_fleet_failover_duration_seconds",
        "Loss-to-resume duration of completed failovers",
        buckets=FAILOVER_BUCKETS,
    )

    seen = [0]

    def probe() -> None:
        recoveries = coordinator.recoveries
        for rec in recoveries[seen[0]:]:
            failovers.inc()
            migrated.inc(len(rec.get("apps", ())))
            resumed = rec.get("resumed")
            lost = rec.get("lost")
            if resumed is not None and lost is not None:
                duration.observe(resumed - lost)
        seen[0] = len(recoveries)

    telemetry.add_probe(probe)


def instrument_hedging(telemetry: Telemetry, manager, detector) -> None:
    """Graded health scores plus hedge decision counters.

    ``detector`` feeds a per-device score gauge (1.0 = at the fleet's
    pace); ``manager`` feeds launch/win/duplicate/denial counters via the
    delta pattern.
    """
    score = telemetry.gauge(
        "repro_fleet_health_score",
        "Graded straggler-detector health score (1.0 = at fleet pace)",
        labelnames=("device",),
    )

    def score_probe() -> None:
        for index, health in detector.scores().items():
            score.set(health.score, device=str(index))

    telemetry.add_probe(score_probe)

    launched = telemetry.counter(
        "repro_fleet_hedges_total", "Speculative hedge replicas launched"
    )
    wins = telemetry.counter(
        "repro_fleet_hedge_wins_total", "Hedges whose replica finished first"
    )
    duplicates = telemetry.counter(
        "repro_fleet_duplicate_kernels_total",
        "Kernels executed twice because of hedging",
    )
    denials = telemetry.counter(
        "repro_fleet_hedge_denials_total",
        "Hedge candidates denied, by reason",
        labelnames=("reason",),
    )
    telemetry.add_probe(
        _pull_counter(launched, lambda: manager.hedges_launched)
    )
    telemetry.add_probe(_pull_counter(wins, lambda: manager.hedge_wins))
    telemetry.add_probe(
        _pull_counter(duplicates, lambda: manager.duplicate_kernels)
    )
    telemetry.add_probe(
        _pull_counter(denials, lambda: manager.budget_denials, reason="budget")
    )
    telemetry.add_probe(
        _pull_counter(
            denials, lambda: manager.no_target_denials, reason="no-target"
        )
    )
    telemetry.add_probe(
        _pull_counter(
            denials,
            lambda: manager.retry_budget_denials,
            reason="retry-budget",
        )
    )


def instrument_cascade(
    telemetry: Telemetry, probe=None, storm=None, budget=None
) -> None:
    """Correlated-failure containment signals.

    ``probe`` is a :class:`~repro.resilience.metastable.MetastabilityProbe`
    (brownout ladder level, metastable windows, sheds), ``storm`` a
    :class:`~repro.fleet.storm.MigrationQueue` (depth plus queue/release
    counters), ``budget`` a :class:`~repro.resilience.budget.RetryBudget`
    (grants/denials).  Any of them may be ``None``; read-only pulls only.
    """
    if probe is None and storm is None and budget is None:
        return
    if probe is not None:
        level = telemetry.gauge(
            "repro_fleet_brownout_level",
            "Current brownout-ladder level (0 = off)",
        )
        metastable = telemetry.counter(
            "repro_fleet_metastable_windows_total",
            "Detection windows spent metastable (goodput below floor "
            "past the trip budget)",
        )
        sheds = telemetry.counter(
            "repro_fleet_brownout_sheds_total",
            "Admissions shed by a level-2 brownout",
        )
        telemetry.add_probe(lambda: level.set(float(probe.level)))
        telemetry.add_probe(
            _pull_counter(metastable, lambda: probe.metastable_windows)
        )
        telemetry.add_probe(_pull_counter(sheds, lambda: probe.sheds))
    if storm is not None:
        depth = telemetry.gauge(
            "repro_fleet_migration_queue_depth",
            "Apps queued for paced failover re-admission",
        )
        queued = telemetry.counter(
            "repro_fleet_migrations_queued_total",
            "Detected-lost apps entering the paced migration queue",
        )
        released = telemetry.counter(
            "repro_fleet_migrations_released_total",
            "Queued apps released into a survivor's recovery slot",
        )
        telemetry.add_probe(lambda: depth.set(float(storm.depth)))
        telemetry.add_probe(_pull_counter(queued, lambda: storm.queued_total))
        telemetry.add_probe(
            _pull_counter(released, lambda: storm.released_total)
        )
    if budget is not None:
        spends = telemetry.counter(
            "repro_resilience_retry_budget_total",
            "Retry-budget spend attempts, by verdict",
            labelnames=("verdict",),
        )
        telemetry.add_probe(
            _pull_counter(
                spends, lambda: budget.granted_total, verdict="granted"
            )
        )
        telemetry.add_probe(
            _pull_counter(
                spends, lambda: budget.denied_total, verdict="denied"
            )
        )


# -- integrity -------------------------------------------------------------


def instrument_integrity(
    telemetry: Telemetry, checker, fence=None, journal=None
) -> None:
    """Invariant-check and fencing counters from the integrity subsystem.

    ``checker`` is an :class:`~repro.integrity.invariants.InvariantChecker`
    (or ``None``); ``fence`` an optional :class:`~repro.integrity.fencing.
    GenerationFence`; ``journal`` any object exposing the ``RunJournal``
    counters (``recovered``/``verified``/``appended``).  All three are
    read-only pulls — the probe observes the defenses, it never drives
    them.
    """
    if checker is None and fence is None and journal is None:
        return
    if checker is not None:
        checks = telemetry.counter(
            "repro_integrity_checks_total",
            "Full invariant-catalog passes executed",
        )
        violations = telemetry.counter(
            "repro_integrity_violations_total",
            "Invariant violations found (any mode)",
        )
        telemetry.add_probe(_pull_counter(checks, lambda: checker.checks_run))
        telemetry.add_probe(
            _pull_counter(violations, lambda: checker.violations_found)
        )
    if fence is not None:
        advances = telemetry.counter(
            "repro_integrity_fence_advances_total",
            "Device generation advances (fenced device losses)",
        )
        rejected = telemetry.counter(
            "repro_integrity_stale_writes_rejected_total",
            "Journal writes rejected for carrying a stale fencing token",
        )
        telemetry.add_probe(_pull_counter(advances, lambda: fence.advances))
        telemetry.add_probe(_pull_counter(rejected, lambda: fence.rejected))
    if journal is not None:
        appended = telemetry.counter(
            "repro_integrity_records_appended_total",
            "Envelope records durably appended",
        )
        verified = telemetry.counter(
            "repro_integrity_records_verified_total",
            "Recovered records re-verified by replay",
        )
        telemetry.add_probe(
            _pull_counter(appended, lambda: journal.appended)
        )
        telemetry.add_probe(
            _pull_counter(verified, lambda: journal.verified)
        )


# -- scheduling ------------------------------------------------------------


def instrument_scheduler(telemetry: Telemetry, scheduler) -> None:
    """Decision, prediction and regret signals of a ``BatchScheduler``.

    Pull-model like everything else: each sampler tick mirrors the
    scheduler's decision log into a per-(policy, order) counter, exposes
    the latest decision's predicted vs observed makespan as gauges, and
    tracks the bandit's cumulative regret per device.  Attaching this
    probe never changes a decision — the scheduler is read, not driven.
    """
    decisions = telemetry.counter(
        "repro_sched_decisions_total",
        "Batch scheduling decisions, by policy and chosen order",
        labelnames=("policy", "order"),
    )
    explorations = telemetry.counter(
        "repro_sched_explorations_total",
        "Decisions that were exploratory (bandit arm trials)",
        labelnames=("policy",),
    )
    predicted = telemetry.gauge(
        "repro_sched_predicted_makespan_seconds",
        "Predicted makespan of the most recent decision",
    )
    observed = telemetry.gauge(
        "repro_sched_observed_makespan_seconds",
        "Observed makespan of the most recently measured batch",
    )
    regret = telemetry.gauge(
        "repro_sched_bandit_regret_seconds",
        "Cumulative bandit regret (observed minus best-known makespan)",
        labelnames=("device",),
    )

    seen: dict = {"decisions": 0, "explored": 0}

    def probe() -> None:
        log = scheduler.decisions
        for decision in log[seen["decisions"]:]:
            decisions.inc(
                1, policy=decision.policy, order=decision.order_label
            )
            if decision.explored:
                seen["explored"] += 1
                explorations.inc(1, policy=decision.policy)
        seen["decisions"] = len(log)
        if log:
            predicted.set(log[-1].predicted_makespan)
        measured = [m for m in scheduler.observed if m is not None]
        if measured:
            observed.set(measured[-1])
        for device in sorted(scheduler._policies):
            regret.set(
                scheduler.cumulative_regret(device), device=str(device)
            )

    telemetry.add_probe(probe)
