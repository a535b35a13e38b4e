"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures at the
paper's problem sizes (override with ``REPRO_SCALE=small`` for a quick
pass) and prints the rows the paper reports.  CSV copies land in
``results/``.

The :class:`~repro.core.runner.ExperimentRunner` is session-scoped so
serial baselines are computed once and shared across benchmark files.
"""

from __future__ import annotations

import json
import os
import traceback
from pathlib import Path
from typing import List

import pytest

# Benchmarks default to the paper's Table III sizes.
os.environ.setdefault("REPRO_SCALE", "paper")

from repro.core.runner import ExperimentRunner  # noqa: E402
from repro.core.workload import resolve_scale  # noqa: E402
from repro.framework.kernel import (  # noqa: E402
    AppProfile,
    Buffer,
    KernelApp,
    KernelPhase,
    TransferPhase,
)
from repro.gpu.commands import CopyDirection  # noqa: E402
from repro.gpu.kernels import Dim3, KernelDescriptor  # noqa: E402

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: The fleet benches' synthetic app: one device-filling 50us kernel per
#: phase, 40 phases, so compute dominates and every phase boundary is a
#: checkpoint.  Full-occupancy launches: 8 resident 256-thread blocks per
#: SMX on the 13-SMX K20 (the threads-per-SMX limit), times two
#: scheduling waves — a one-wave grid would be the degenerate minimum of
#: compute per launch and overstate the relative cost of per-launch hooks.
DENSE_KERNELS = 40
DENSE_GRID_BLOCKS = 13 * 8 * 2
DENSE_BLOCK_DURATION = 50e-6


def dense_app(instance: int) -> KernelApp:
    """One device-filling compute-dense app, checkpointed per kernel."""
    buf = Buffer("data", 1 << 20)
    kernel = KernelDescriptor(
        name="dense",
        grid=Dim3(DENSE_GRID_BLOCKS),
        block=Dim3(256),
        block_duration=DENSE_BLOCK_DURATION,
    )
    phases = [TransferPhase(CopyDirection.HTOD, (buf,))]
    phases += [KernelPhase((kernel,)) for _ in range(DENSE_KERNELS)]
    phases.append(TransferPhase(CopyDirection.DTOH, (buf,)))
    profile = AppProfile(
        name="dense",
        data_dim=f"{DENSE_KERNELS}x{DENSE_BLOCK_DURATION * 1e6:.0f}us",
        host_allocs=(buf,),
        device_allocs=(buf,),
        phases=tuple(phases),
    )
    return KernelApp(profile, instance=instance)


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    """One runner for the whole benchmark session (baseline caching)."""
    return ExperimentRunner()


@pytest.fixture(scope="session")
def scale() -> str:
    """The active problem-size profile."""
    return resolve_scale()


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory where benches drop their CSV/markdown outputs."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


#: Cells that crashed this session; dumped to results/partial_failures.json
#: so an aborted sweep still leaves a machine-readable account of what ran.
_FAILED_CELLS: List[dict] = []


def once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    The experiments are deterministic simulations — statistical rounds
    would triple the wall time without adding information.

    A crashing cell is recorded as a failure entry (and the partial
    results written so far are preserved in ``results/``) before the
    exception is re-raised; pytest then fails this bench and continues
    the sweep with the remaining cells instead of losing the session.
    """
    try:
        return benchmark.pedantic(
            fn, args=args, kwargs=kwargs, rounds=1, iterations=1
        )
    except Exception as exc:
        _FAILED_CELLS.append(
            {
                "bench": getattr(fn, "__qualname__", repr(fn)),
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
            }
        )
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "partial_failures.json").write_text(
            json.dumps(_FAILED_CELLS, indent=2) + "\n"
        )
        raise


def checkpoint_rows(rows: List[dict], csv_name: str) -> Path:
    """Flush partially accumulated benchmark rows to ``results/`` NOW.

    Multi-scenario benches (e.g. the serving overload sweep) call this
    after every completed scenario, so if a later cell crashes the rows
    computed so far — goodput, shed rates, tail latencies — are already
    on disk next to ``partial_failures.json`` instead of dying with the
    process.  Idempotent: each call rewrites the same CSV with the
    current row list.
    """
    from repro.analysis.tables import write_csv

    RESULTS_DIR.mkdir(exist_ok=True)
    return write_csv(rows, RESULTS_DIR / csv_name)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """After the run, print every regenerated figure/table from results/.

    pytest captures the benches' in-test prints; this hook runs after
    capture ends, so ``pytest benchmarks/ --benchmark-only | tee out.txt``
    records the actual paper tables, not just timings.
    """
    import csv

    from repro.analysis.tables import format_table

    if not RESULTS_DIR.exists():
        return
    paths = sorted(RESULTS_DIR.glob("*.csv"))
    if not paths:
        return
    tr = terminalreporter
    tr.section("reproduced figures and tables (results/)")
    for path in paths:
        # A half-written CSV from a crashed cell must not take down the
        # whole summary: report it and move on.
        try:
            with path.open() as fh:
                rows = list(csv.DictReader(fh))
            coerced = []
            for row in rows:
                out = {}
                for key, value in row.items():
                    try:
                        number = float(value)
                        out[key] = (
                            int(number) if number == int(number) else number
                        )
                    except (TypeError, ValueError):
                        out[key] = value
                coerced.append(out)
            table = format_table(coerced, title=f"[{path.name}]")
        except Exception as exc:
            table = f"[{path.name}] unreadable: {type(exc).__name__}: {exc}"
        tr.write_line("")
        tr.write_line(table)
    if _FAILED_CELLS:
        tr.write_line("")
        tr.write_line(
            f"{len(_FAILED_CELLS)} benchmark cell(s) crashed — see "
            "results/partial_failures.json"
        )
