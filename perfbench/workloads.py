"""The benchmark's four workloads and the output check run on every op.

An *op* is one complete simulation: one paper grid cell, one traffic
chunk or one fleet run.  Every op draws its inputs from
``op_rng(seed, index)`` alone, so op ``i`` of a seed is the same input in
every process, traced or not, whatever ran before it.

Each workload splits an op into ``prepare`` (input building, untimed) and
``run`` (the simulation, timed), and turns the run's result into an
:class:`OpOutcome` holding the accounting, the simulated model outputs and
a SHA-256 digest of everything the simulator produced.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.apps.registry import get_app
from repro.core.runner import ExperimentRunner, RunConfig
from repro.core.workload import SCALES, Workload
from repro.fleet import FleetConfig, FleetHarness
from repro.gpu.commands import CopyDirection
from repro.gpu.specs import tesla_k20
from repro.resilience.faults import FaultKind, FaultPlan, FaultSpec
from repro.scheduling.orders import all_orders
from repro.serving import measure_service_baselines
from repro.workload import TrafficStats, get_scenario, run_traffic

#: The four Rodinia-style application types of the paper.
APP_TYPES: Tuple[str, ...] = ("gaussian", "needle", "nn", "srad")


def op_rng(seed: int, index: int) -> np.random.Generator:
    """The random stream of op ``index`` (inputs depend on nothing else)."""
    return np.random.default_rng([seed, 0, index])


def setup_rng(seed: int) -> np.random.Generator:
    """The random stream of inputs fixed for a whole run."""
    return np.random.default_rng([seed, 1])


def warmup_rng() -> np.random.Generator:
    """The warm-up op's stream: the same for every seed, so set-up costs
    the same whatever the seed."""
    return np.random.default_rng([2])


def digest(payload) -> str:
    """SHA-256 of a payload's ``repr`` (floats print every digit)."""
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


def _record_payload(record) -> tuple:
    return (
        record.app_id, record.type_name, record.instance,
        record.stream_index, record.launch_index, record.spawn_time,
        record.gpu_start, record.complete_time, record.attempts,
        record.failed, record.outcome, record.device_index,
        record.migrations, record.reexecuted_kernels,
        tuple(
            (t.direction.value, t.nbytes, t.buffer, t.enqueued, t.started,
             t.completed)
            for t in record.transfers
        ),
        tuple(
            (k.name, k.num_blocks, k.enqueued, k.started, k.completed,
             k.waves)
            for k in record.kernels
        ),
    )


@dataclass
class OpOutcome:
    """What one op produced, checked and summarised."""

    arrivals: int
    completed: int
    shed: int
    failed: int
    digest: str
    energy: float
    #: Accounting or invariant violations; non-empty fails the op.
    problems: List[str] = field(default_factory=list)
    deadline_met: int = 0
    sojourns: List[float] = field(default_factory=list)
    htod_stretch: float = 0.0
    migrations: int = 0
    reexecuted_kernels: int = 0
    recovery_sim_s: float = 0.0

    def __post_init__(self) -> None:
        settled = self.completed + self.shed + self.failed
        if settled != self.arrivals:
            self.problems.append(
                f"{self.arrivals} arrivals but {self.completed} completed + "
                f"{self.shed} shed + {self.failed} failed = {settled}"
            )


class OutcomeSink(TrafficStats):
    """``TrafficStats`` that also keeps every settled outcome.

    Passed to ``run_traffic`` as ``stats=``; the kept tuples feed the
    output digest and the sojourn percentiles once the run is over.
    """

    def __init__(self) -> None:
        super().__init__()
        self.settled: List[tuple] = []

    def settle(self, record, arrival_time: float) -> None:
        super().settle(record, arrival_time)
        self.settled.append(
            (
                record.app_id, record.type_name, record.outcome,
                record.tenant, record.tenant_id, arrival_time,
                record.slo_deadline, record.gpu_start, record.complete_time,
            )
        )


class BenchWorkload:
    """One benchmark workload: set-up, per-op inputs, the op, its check."""

    name = ""
    #: Ops whose digests are pinned for the default seed and whose exact
    #: cost counters the traced run reports.
    check_ops = 8
    #: Ops are measured in whole rounds so every run sees the same mix.
    round_size = 1
    #: Fewest ops in an untraced run.  It fixes the tail percentile, so
    #: every run reports the same one; set so that a run on a 2-core
    #: shared machine reaches it in about 25 seconds.
    min_ops = 50
    #: Offered load, as printed beside the throughput figures.
    offered_load = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        """Build inputs and baselines, then run one warm-up op."""
        self.build()
        self.run(self.make_inputs(warmup_rng()))

    def prepare(self, index: int):
        return self.make_inputs(op_rng(self.seed, index))

    def build(self) -> None:
        raise NotImplementedError

    def make_inputs(self, rng: np.random.Generator):
        raise NotImplementedError

    def run(self, inputs):
        raise NotImplementedError

    def outcome(self, inputs, result) -> OpOutcome:
        raise NotImplementedError


class PaperGrid(BenchWorkload):
    """Heterogeneous pairs at NA=32 over NS x transfer mutex, small scale."""

    name = "paper-grid"
    check_ops = 6
    round_size = 6
    min_ops = 54
    offered_load = "closed batch of 32 apps"
    num_apps = 32
    scale = "small"
    #: The pairs that include gaussian.  Their cells all cost 0.3-0.7 host
    #: seconds; the three gaussian-free pairs cost a tenth of that, which
    #: would split op times into two clusters with the median between them.
    pairs: Tuple[Tuple[str, str], ...] = (
        ("gaussian", "needle"), ("gaussian", "nn"), ("gaussian", "srad"),
    )
    #: (NS, memory_sync): the paper's serial, half and full concurrency,
    #: each with the transfer mutex off and on.
    combos: Tuple[Tuple[int, bool], ...] = tuple(
        (ns, sync) for ns in (1, 16, 32) for sync in (False, True)
    )

    def build(self) -> None:
        self.runner = ExperimentRunner()
        self.workloads = {
            pair: Workload.heterogeneous_pair(*pair, self.num_apps, scale=self.scale)
            for pair in self.pairs
        }
        # Figure 6's "expected" Le: a solo run of each type, averaged
        # over the pair.
        solo = {}
        for name in APP_TYPES:
            run = self.runner.run_serial(Workload.homogeneous(name, 1, scale=self.scale))
            solo[name] = float(np.mean([
                r.effective_latency(CopyDirection.HTOD) or 0.0
                for r in run.harness.records
            ]))
        self.expected_le = {
            pair: (solo[pair[0]] + solo[pair[1]]) / 2 for pair in self.pairs
        }
        self.spawn_cost = tesla_k20().host.thread_spawn_cost
        self.order_offset = int(setup_rng(self.seed).integers(len(all_orders())))

    def _cell(self, index: int, rng: np.random.Generator) -> RunConfig:
        # Each round runs every pair twice and every (NS, mutex)
        # combination once; six rounds run every pair on every
        # combination twice.  Launch orders rotate from a seed-chosen
        # start, so every run sees the same mix of them: naive FIFO at
        # NS=16 costs twice what round-robin does.
        round_no, slot = divmod(index, self.round_size)
        pair = self.pairs[slot % len(self.pairs)]
        num_streams, sync = self.combos[(slot + round_no) % len(self.combos)]
        orders = all_orders()
        return RunConfig(
            workload=self.workloads[pair],
            num_streams=num_streams,
            order=orders[(index + self.order_offset) % len(orders)],
            memory_sync=sync,
            seed=int(rng.integers(2**31)),
            spawn_jitter=float(rng.uniform(0.0, 2.0 * self.spawn_cost)),
        )

    def make_inputs(self, rng):
        return self._cell(0, rng)

    def prepare(self, index: int):
        return self._cell(index, op_rng(self.seed, index))

    def run(self, config: RunConfig):
        return self.runner.run(config)

    def outcome(self, config: RunConfig, result) -> OpOutcome:
        harness = result.harness
        records = harness.records
        failed = sum(1 for r in records if r.failed)
        pair = tuple(sorted(config.workload.type_counts))
        out = OpOutcome(
            arrivals=config.num_apps,
            completed=sum(1 for r in records if r.ran and not r.failed),
            shed=0,
            failed=failed,
            energy=harness.energy,
            htod_stretch=harness.effective_latency() / self.expected_le[pair],
            digest=digest((
                harness.makespan, harness.total_time, harness.energy,
                harness.peak_power, harness.sampled_average_power,
                tuple(_record_payload(r) for r in records),
            )),
        )
        if harness.makespan <= 0 or harness.energy <= 0:
            out.problems.append("empty schedule: no makespan or energy")
        return out


class _Traffic(BenchWorkload):
    """A canonical scenario served open-loop by ``run_traffic``, tiny scale."""

    scale = "tiny"
    scenario = ""
    load = 0.0
    chunk = 0
    run_kwargs: Dict = {}

    @property
    def offered_load(self) -> str:
        return f"{self.load:g}x capacity, {self.chunk} arrivals per op"

    def build(self) -> None:
        # An explicit spec bypasses the module-level baseline cache, so
        # every set-up pays for the measurement.
        self.baselines = measure_service_baselines(
            APP_TYPES, scale=self.scale, spec=tesla_k20()
        )
        self.template = dataclasses.replace(
            get_scenario(self.scenario), name=self.name, load=self.load
        )

    def make_inputs(self, rng):
        scenario = dataclasses.replace(self.template, seed=int(rng.integers(2**31)))
        return scenario.build(self.chunk, scale=self.scale, baselines=self.baselines)

    def run(self, built):
        sink = OutcomeSink()
        result = run_traffic(built, scale=self.scale, stats=sink, **self.run_kwargs)
        return result, sink

    def outcome(self, built, result) -> OpOutcome:
        traffic, sink = result
        serving = traffic.serving
        out = OpOutcome(
            arrivals=built.requests,
            completed=serving.completed,
            shed=serving.shed,
            failed=serving.failed,
            energy=serving.energy,
            deadline_met=serving.deadline_met,
            sojourns=[s[8] - s[5] for s in sink.settled if s[8] > 0.0],
            digest=digest((
                serving.completion_time, serving.energy, serving.peak_power,
                sorted(serving.outcomes.items()), serving.deadline_met,
                sink.settled,
            )),
        )
        if serving.jobs != built.requests or len(sink.settled) != built.requests:
            out.problems.append(
                f"{built.requests} arrivals generated, {serving.jobs} served, "
                f"{len(sink.settled)} settled"
            )
        return out


class Steady(_Traffic):
    name = "steady"
    scenario = "steady"
    load = 0.6
    chunk = 100
    min_ops = 90
    run_kwargs = {"policy": "reject", "cap": 4}


class OverloadStorm(_Traffic):
    name = "overload-storm"
    scenario = "overload"
    load = 100.0
    chunk = 4000
    min_ops = 60
    run_kwargs = {"policy": "reject", "queue_depth": 4, "front_door": True}


class FleetFailover(BenchWorkload):
    """Four devices, 32 mixed tiny apps, one device lost mid-run."""

    name = "fleet-failover"
    offered_load = "closed batch of 32 apps on 4 devices"
    min_ops = 100
    num_apps = 32
    num_streams = 4
    fleet = FleetConfig(
        num_devices=4,
        heartbeat_interval=2e-5,
        detection_latency=5e-5,
        detection_jitter=1e-5,
    )

    def build(self) -> None:
        rng = setup_rng(self.seed)
        names = [APP_TYPES[i % len(APP_TYPES)] for i in range(self.num_apps)]
        rng.shuffle(names)
        self.app_names: Sequence[str] = tuple(names)
        # Loss instants are placed inside GPU sections of the clean run,
        # so every loss strands in-flight work that must migrate.
        clean = FleetHarness(self._apps(), self.fleet, num_streams=self.num_streams).run()
        self.sections = {
            dev: max(
                ((r.gpu_start, r.complete_time) for r in clean.records
                 if r.device_index == dev),
                key=lambda span: span[1] - span[0],
            )
            for dev in range(self.fleet.num_devices)
        }

    def _apps(self):
        seen: Dict[str, int] = {}
        apps = []
        for name in self.app_names:
            apps.append(get_app(name, instance=seen.get(name, 0), **SCALES["tiny"][name]))
            seen[name] = seen.get(name, 0) + 1
        return apps

    def make_inputs(self, rng):
        device = int(rng.integers(self.fleet.num_devices))
        start, end = self.sections[device]
        lose_at = start + float(rng.uniform(0.25, 0.75)) * (end - start)
        plan = FaultPlan([FaultSpec(FaultKind.DEVICE_LOSS, lose_at, device=device)])
        return self._apps(), plan, int(rng.integers(2**31))

    def run(self, inputs):
        apps, plan, seed = inputs
        return FleetHarness(
            apps, self.fleet, num_streams=self.num_streams, seed=seed, plan=plan
        ).run()

    def outcome(self, inputs, result) -> OpOutcome:
        out = OpOutcome(
            arrivals=self.num_apps,
            completed=result.completed,
            shed=result.shed_apps,
            failed=result.failed - result.shed_apps,
            energy=result.energy,
            migrations=result.migrations,
            reexecuted_kernels=result.reexecuted_kernels,
            recovery_sim_s=result.recovery_time,
            digest=digest((
                result.makespan, result.total_time, result.energy,
                result.peak_power, result.recoveries,
                tuple(_record_payload(r) for r in result.records),
            )),
        )
        if result.completed != self.num_apps or result.failed:
            out.problems.append(
                f"{result.completed}/{self.num_apps} apps completed, "
                f"{result.failed} failed"
            )
        if result.migrations < 1:
            out.problems.append("the device loss caused no migration")
        if result.reexecuted_kernels > result.migrations:
            out.problems.append(
                f"{result.reexecuted_kernels} kernels re-executed for "
                f"{result.migrations} migrations"
            )
        return out


WORKLOADS = {w.name: w for w in (PaperGrid, Steady, OverloadStorm, FleetFailover)}
