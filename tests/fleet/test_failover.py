"""End-to-end failover acceptance tests (issue criterion c).

A fleet of 4 devices runs an 8-app schedule; one device is lost mid-run.
Everything admitted must still complete, re-executed work must stay
bounded by one in-flight kernel per migrated app, and a harness crash
during the failover must resume from the journal to the exact results of
the uninterrupted run.
"""

import json
from collections import defaultdict

import pytest

from repro.analysis.critical_path import extract_critical_paths
from repro.fleet import FleetHarness
from repro.gpu.commands import CopyDirection
from repro.resilience.faults import FaultKind, FaultPlan, FaultSpec
from repro.sim.errors import HarnessCrash
from repro.telemetry import Tracing
from repro.telemetry.tracing import ENGINE_CATEGORIES

from .conftest import FAST_HEALTH, fast_fleet, make_apps

pytestmark = pytest.mark.fleet

NUM_APPS = 8
DEVICES = 4
STREAMS = 2
SEED = 0


def run(fleet=None, plan=None, **kwargs):
    return FleetHarness(
        make_apps(NUM_APPS),
        fleet if fleet is not None else fast_fleet(num_devices=DEVICES),
        num_streams=STREAMS,
        seed=SEED,
        plan=plan,
        **kwargs,
    ).run()


@pytest.fixture(scope="module")
def baseline():
    """A clean fleet run — also the timing source for placing the loss."""
    return run()


@pytest.fixture(scope="module")
def loss_at(baseline):
    """Mid-GPU-section instant of device 0's longest-running app."""
    on_dev0 = [r for r in baseline.records if r.device_index == 0]
    assert on_dev0, "round-robin placement must land apps on device 0"
    target = max(on_dev0, key=lambda r: r.complete_time - r.gpu_start)
    return (target.gpu_start + target.complete_time) / 2


@pytest.fixture(scope="module")
def loss_plan(loss_at):
    return FaultPlan([FaultSpec(FaultKind.DEVICE_LOSS, loss_at, device=0)])


@pytest.fixture(scope="module")
def lossy(loss_plan):
    """The headline run: 1-of-4 device loss with failover on."""
    return run(plan=loss_plan)


class TestCleanFleet:
    def test_all_apps_complete(self, baseline):
        assert baseline.completed == NUM_APPS
        assert baseline.failed == 0
        assert baseline.migrations == 0
        assert baseline.reexecuted_kernels == 0
        assert baseline.devices_lost == 0
        assert baseline.recoveries == []

    def test_round_robin_spreads_devices(self, baseline):
        used = {r.device_index for r in baseline.records}
        assert used == set(range(DEVICES))

    def test_checkpoints_taken_at_phase_boundaries(self, baseline):
        assert baseline.checkpoints > 0


class TestDeviceLossWithFailover:
    def test_all_admitted_apps_complete(self, lossy):
        assert lossy.completed == NUM_APPS
        assert lossy.failed == 0
        assert lossy.devices_lost == 1
        assert lossy.devices[0].state == "lost"

    def test_apps_migrated_off_the_dead_device(self, lossy):
        assert lossy.migrations >= 1
        migrated = [r for r in lossy.records if r.migrations > 0]
        assert migrated
        for record in migrated:
            # Landed on a surviving device.
            assert record.device_index != 0

    def test_reexecuted_work_bounded(self, lossy):
        # Stream FIFO + phase-boundary checkpoints: at most the one
        # in-flight kernel re-runs per migration.
        for record in lossy.records:
            assert record.reexecuted_kernels <= record.migrations
        assert lossy.reexecuted_kernels <= lossy.migrations

    def test_recovery_timeline_ordered(self, lossy, loss_at):
        assert len(lossy.recoveries) == 1
        recovery = lossy.recoveries[0]
        assert recovery["device"] == 0
        assert recovery["lost"] == pytest.approx(loss_at)
        assert recovery["lost"] <= recovery["detected"] <= recovery["resumed"]
        budget = (
            FAST_HEALTH["detection_latency"]
            + FAST_HEALTH["detection_jitter"]
            + FAST_HEALTH["heartbeat_interval"]
        )
        assert recovery["detected"] - recovery["lost"] >= FAST_HEALTH[
            "detection_latency"
        ]
        assert recovery["detected"] - recovery["lost"] <= budget + 1e-12
        assert set(recovery["apps"]) == {
            r.app_id for r in lossy.records if r.migrations > 0
        }
        assert recovery["failed_apps"] == []
        assert recovery["reexecuted_kernels"] == lossy.reexecuted_kernels
        assert lossy.recovery_time >= recovery["detected"] - recovery["lost"]

    def test_health_monitor_observed_the_loss(self, lossy):
        lost_events = [e for e in lossy.health_events if e.new_state == "lost"]
        assert [e.device for e in lost_events] == [0]

    def test_per_device_goodput_attributable(self, lossy):
        goodput = lossy.per_device_goodput()
        assert set(goodput) == set(range(DEVICES))
        completed = sum(d.apps_completed for d in lossy.devices)
        assert completed == NUM_APPS

    def test_migration_keeps_first_attempt_gpu_start(
        self, baseline, lossy, loss_at
    ):
        # A fleet re-bind resumes the same GPU section: gpu_start stays
        # the first attempt's, which the loss-free run shares.
        first = {r.app_id: r.gpu_start for r in baseline.records}
        migrated = [
            r for r in lossy.records
            if r.migrations > 0 and first[r.app_id] < loss_at
        ]
        assert migrated
        for record in migrated:
            assert record.gpu_start == first[record.app_id]

    def test_deterministic_rerun(self, lossy, loss_plan):
        again = run(plan=loss_plan)
        key = lambda r: (
            r.app_id, r.outcome, r.device_index, r.migrations,
            r.reexecuted_kernels, r.complete_time,
        )
        assert [key(r) for r in again.records] == [
            key(r) for r in lossy.records
        ]
        assert again.makespan == lossy.makespan


class TestNoFailoverBaseline:
    def test_apps_on_dead_device_fail(self, loss_plan):
        result = run(fleet=fast_fleet(num_devices=DEVICES, failover=False),
                     plan=loss_plan)
        assert result.failed >= 1
        assert result.completed + result.failed == NUM_APPS
        assert result.migrations == 0
        for record in result.records:
            if record.failed:
                assert record.outcome == "device-lost"
                assert record.device_index == 0


class TestNoCheckpointMigration:
    def test_migrating_without_checkpoints_reexecutes_more(
        self, lossy, loss_plan
    ):
        scratch = run(
            fleet=fast_fleet(num_devices=DEVICES, checkpoint=False),
            plan=loss_plan,
        )
        assert scratch.completed == NUM_APPS
        assert scratch.migrations == lossy.migrations
        # From-scratch restarts wipe all checkpointed progress, so they
        # can only re-run at least as much work.
        assert scratch.reexecuted_kernels >= lossy.reexecuted_kernels


class TestCrashDuringFailoverResume:
    def _journal_run(self, plan, path, resume=False):
        return FleetHarness(
            make_apps(NUM_APPS),
            fast_fleet(num_devices=DEVICES),
            num_streams=STREAMS,
            seed=SEED,
            plan=plan,
            journal_path=path,
            resume=resume,
        ).run()

    def test_resume_reproduces_uninterrupted_run(
        self, tmp_path, lossy, loss_plan, loss_at
    ):
        # Reference: the same lossy run, journaled, never crashed.
        ref_path = tmp_path / "uninterrupted.jsonl"
        reference = self._journal_run(loss_plan, ref_path)

        # Crash the harness mid-failover: after the loss, inside the
        # detection/migration window.
        recovery = lossy.recoveries[0]
        crash_at = (recovery["detected"] + recovery["resumed"]) / 2
        if crash_at <= recovery["lost"]:
            crash_at = recovery["detected"]
        crash_plan = FaultPlan(
            list(loss_plan.faults)
            + [FaultSpec(FaultKind.HARNESS_CRASH, crash_at)]
        )
        crash_path = tmp_path / "crashed.jsonl"
        with pytest.raises(HarnessCrash):
            self._journal_run(crash_plan, crash_path)
        assert crash_path.exists()

        resumed = self._journal_run(crash_plan, crash_path, resume=True)
        assert resumed.resumed
        assert resumed.recovered_entries > 0

        # Byte-identical journal and identical results vs uninterrupted.
        assert crash_path.read_bytes() == ref_path.read_bytes()
        key = lambda r: (
            r.app_id, r.outcome, r.device_index, r.migrations,
            r.reexecuted_kernels, r.complete_time,
        )
        assert [key(r) for r in resumed.records] == [
            key(r) for r in reference.records
        ]
        assert resumed.makespan == reference.makespan

        # The journal carries the full failure narrative.
        from repro.integrity import decode_line

        events = [
            decode_line(line)["event"]
            for line in ref_path.read_bytes().splitlines()[1:]
        ]
        assert "checkpoint" in events
        assert "device-lost" in events
        assert "failover" in events
        assert events.count("app") == NUM_APPS

    def test_crash_after_last_app_is_journaled(self, tmp_path, loss_plan, lossy):
        # Planned past the makespan, the crash fires in the settle pass:
        # it must still be marked in the journal, and resume must still
        # reproduce the uninterrupted run.
        from repro.integrity import decode_line

        ref_path = tmp_path / "uninterrupted.jsonl"
        self._journal_run(loss_plan, ref_path)
        crash_plan = FaultPlan(
            list(loss_plan.faults)
            + [FaultSpec(FaultKind.HARNESS_CRASH, lossy.total_time * 2)]
        )
        crash_path = tmp_path / "crashed.jsonl"
        with pytest.raises(HarnessCrash):
            self._journal_run(crash_plan, crash_path)
        last = decode_line(crash_path.read_bytes().splitlines()[-1])
        assert last.get("journal-marker") == "crash"

        resumed = self._journal_run(crash_plan, crash_path, resume=True)
        assert resumed.completed == NUM_APPS
        assert crash_path.read_bytes() == ref_path.read_bytes()

    def test_resume_against_wrong_plan_rejected(self, tmp_path, loss_plan):
        from repro.serving import JournalMismatchError

        path = tmp_path / "run.jsonl"
        self._journal_run(loss_plan, path)
        other_plan = FaultPlan(
            [FaultSpec(FaultKind.DEVICE_LOSS, 1e-3, device=1)]
        )
        with pytest.raises(JournalMismatchError):
            self._journal_run(other_plan, path, resume=True)


def _engine_spans(record):
    """The engine leaf spans one harvest of ``record``'s events yields."""
    spans = []
    for t in record.transfers:
        if t.started > t.enqueued:
            spans.append(("dma-queue", "dma.queue", t.enqueued, t.started))
        if t.completed > t.started:
            name = (
                "dma.service.htod"
                if t.direction is CopyDirection.HTOD
                else "dma.service.dtoh"
            )
            spans.append(("dma-service", name, t.started, t.completed))
    for k in record.kernels:
        if k.started > k.enqueued:
            spans.append(("hyperq-slot", "hyperq.slot", k.enqueued, k.started))
        if k.completed > k.started:
            spans.append(("smx-exec", k.name, k.started, k.completed))
    return sorted(spans)


@pytest.mark.tracing
class TestTracedFailover:
    """Fleet apps run the framework AppThread, so a traced failover carries
    its wait and engine spans — without changing a single result."""

    @pytest.fixture(scope="class")
    def traced(self, loss_plan):
        tracing = Tracing(seed=SEED)
        return run(plan=loss_plan, tracing=tracing), tracing

    def test_tracing_is_passive(self, lossy, traced):
        result, _ = traced
        key = lambda r: (
            r.app_id, r.spawn_time, r.gpu_start, r.complete_time, r.outcome
        )
        assert lossy.migrations >= 1
        assert [key(r) for r in result.records] == [
            key(r) for r in lossy.records
        ]

    def test_critical_paths_sum_to_sojourn(self, traced):
        paths = extract_critical_paths(traced[1])
        assert len(paths) == NUM_APPS
        for path in paths:
            assert sum(path.categories.values()) == pytest.approx(
                path.sojourn, abs=1e-9
            )

    def test_framework_waits_reach_the_critical_path(self, traced):
        # The fleet harness itself records only prepare and migration
        # stalls; anything else comes from the app thread.
        harness_only = {"prepare", "migration-stall", "service-other"}
        assert any(
            set(path.categories) - harness_only
            for path in extract_critical_paths(traced[1])
        )

    def test_each_command_spans_recorded_once(self, traced):
        # Harvests run at every phase boundary and again after the
        # migration; each harvested command still yields its spans once.
        result, tracing = traced
        by_app = defaultdict(list)
        for span in tracing.spans:
            if span.category in ENGINE_CATEGORIES:
                by_app[span.app].append(
                    (span.category, span.name, span.start, span.end)
                )
        assert by_app
        for record in result.records:
            assert sorted(by_app[record.app_id]) == _engine_spans(record)
