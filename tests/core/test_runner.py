"""Tests for the experiment runner."""

import pytest

from repro.core.runner import ExperimentRunner, RunConfig, RunResult, quick_run
from repro.core.workload import Workload
from repro.scheduling.orders import SchedulingOrder


@pytest.fixture
def runner():
    return ExperimentRunner()


@pytest.fixture
def workload():
    return Workload.heterogeneous_pair("nn", "needle", 4, scale="tiny")


class TestRunConfig:
    def test_label_contents(self, workload):
        cfg = RunConfig(workload=workload, num_streams=4, memory_sync=True)
        label = cfg.label()
        assert "NS=4" in label
        assert "sync" in label
        assert cfg.num_apps == 4


class TestRun:
    def test_run_executes_all_apps(self, runner, workload):
        result = runner.run(RunConfig(workload=workload, num_streams=2))
        assert len(result.harness.records) == 4
        assert result.makespan > 0
        assert result.energy > 0
        assert runner.runs_executed == 1

    def test_runs_are_deterministic(self, runner, workload):
        cfg = RunConfig(workload=workload, num_streams=4, seed=3)
        a = runner.run(cfg)
        b = runner.run(cfg)
        assert a.makespan == b.makespan
        assert a.energy == b.energy

    def test_order_changes_launch_sequence(self, runner, workload):
        fifo = runner.run(RunConfig(workload=workload, num_streams=2))
        rev = runner.run(
            RunConfig(
                workload=workload,
                num_streams=2,
                order=SchedulingOrder.REVERSE_FIFO,
            )
        )
        first_fifo = min(fifo.harness.records, key=lambda r: r.launch_index)
        first_rev = min(rev.harness.records, key=lambda r: r.launch_index)
        assert first_fifo.type_name == "nn"
        assert first_rev.type_name == "needle"


class TestSerialBaseline:
    def test_serial_uses_one_stream(self, runner, workload):
        serial = runner.run_serial(workload)
        assert serial.config.num_streams == 1
        assert all(r.stream_index == 0 for r in serial.harness.records)

    def test_serial_cached(self, runner, workload):
        a = runner.run_serial(workload)
        b = runner.run_serial(workload)
        assert a is b
        assert runner.runs_executed == 1

    def test_improvement_vs_serial(self, runner, workload):
        pct, run, serial = runner.improvement_vs_serial(
            RunConfig(workload=workload, num_streams=4)
        )
        assert pct == pytest.approx(run.improvement_over(serial))
        assert serial.makespan >= run.makespan  # concurrency never hurts here


class TestComparisons:
    def test_improvement_over(self, runner, workload):
        serial = runner.run_serial(workload)
        conc = runner.run(RunConfig(workload=workload, num_streams=4))
        pct = conc.improvement_over(serial)
        assert 0 < pct < 100
        assert conc.energy_improvement_over(serial) < 100

    def test_ordering_matrix_runs_all_orders(self, runner, workload):
        results = runner.ordering_matrix(workload, num_streams=4, memory_sync=False)
        assert len(results) == 5
        assert {str(o) for o in results} == {
            "naive-fifo", "round-robin", "random-shuffle",
            "reverse-fifo", "reverse-round-robin",
        }


class TestQuickRun:
    def test_quick_run_smoke(self):
        result = quick_run(
            pair=("nn", "needle"), num_apps=4, num_streams=4, scale="tiny"
        )
        assert isinstance(result, RunResult)
        assert "nn" in result.summary()
