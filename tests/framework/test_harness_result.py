"""Tests for HarnessResult summary helpers and edge behaviour."""

import pytest

from repro.apps.registry import get_app
from repro.framework.harness import HarnessConfig, TestHarness
from repro.gpu.commands import CopyDirection
from repro.gpu.specs import fermi_c2050


def run(num_streams=2, memory_sync=False, **cfg):
    apps = [
        get_app("nn", instance=0, records=2048),
        get_app("needle", instance=0, n=64),
    ]
    return TestHarness(
        HarnessConfig(apps=apps, num_streams=num_streams,
                      memory_sync=memory_sync, **cfg)
    ).run()


class TestSummaries:
    def test_per_type_wall_times(self):
        result = run()
        per_type = result.per_type_wall_times()
        assert set(per_type) == {"nn", "needle"}
        assert all(t > 0 for times in per_type.values() for t in times)

    def test_effective_latency_directions(self):
        result = run()
        htod = result.effective_latency(CopyDirection.HTOD)
        dtoh = result.effective_latency(CopyDirection.DTOH)
        assert htod > 0
        assert dtoh > 0

    def test_total_time_covers_teardown(self):
        result = run()
        assert result.total_time >= result.makespan

    def test_power_disabled(self):
        result = run(monitor_power=False)
        assert result.power_samples == []
        assert result.sampled_average_power == 0.0
        # The exact model still integrates energy.
        assert result.energy > 0


class TestDeviceVariants:
    def test_runs_on_fermi_spec(self):
        result = run(spec=fermi_c2050())
        assert result.makespan > 0
        assert len(result.records) == 2

    def test_fifo_copy_policy(self):
        result = run(copy_policy="fifo")
        assert result.makespan > 0


class TestSyncInteraction:
    def test_sync_single_app_no_deadlock(self):
        apps = [get_app("srad", instance=0, n=64, iterations=2)]
        result = TestHarness(
            HarnessConfig(apps=apps, num_streams=1, memory_sync=True)
        ).run()
        assert result.makespan > 0

    def test_sync_more_apps_than_streams(self):
        apps = [get_app("nn", instance=i, records=2048) for i in range(5)]
        result = TestHarness(
            HarnessConfig(apps=apps, num_streams=2, memory_sync=True)
        ).run()
        assert len(result.records) == 5
        assert result.stream_assignments == {0: 3, 1: 2}
