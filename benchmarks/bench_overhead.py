"""Off-path overhead matrix — every opt-in layer, armed but idle, is free.

Six opt-in layers sit on the simulator, each behind a ``None`` default:
resilience, telemetry, integrity probes, causal tracing, hedging and
cascade containment.  Each promises the same bargain: armed on a run
where it has nothing to do, the simulated results are *identical* to the
clean run and the wall-clock cost stays under 2%.  This bench pins that
bargain with one row per layer:

==========  =======  ============================================  ==========================================
row         base     arming                                        check on the armed run
==========  =======  ============================================  ==========================================
resilience  harness  ``ResilienceConfig(plan=FaultPlan())``        —
telemetry   harness  ``Telemetry()``                               —
integrity   harness  ``InvariantChecker(on_violation="record")``   probes ran, no violation
tracing     harness  ``Tracing(seed=0)``                           spans recorded
hedging     fleet    ``HedgeConfig()``                             no hedge launched
cascade     fleet    ``bench_cascade.containment`` stack,          nothing shed, queued or budget-granted
                     calibrated rate, generous deadlines
==========  =======  ============================================  ==========================================

Base cells: ``harness`` is one Figure 4-style cell (gaussian+needle at
NA=8 through :class:`ExperimentRunner`), short enough to sample hundreds
of times; ``fleet`` is 8 devices with one compute-dense app each through
:class:`FleetHarness`.  Harness rows compare each run's makespan, energy
and peak power with the clean run; fleet rows compare every record's
``(app_id, spawn, gpu_start, complete, outcome)``.

**Estimator: the median of per-pair relative deltas.**  Wall clock on a
shared host drifts by several percent over tens of seconds — more than
the effect under measurement — so per-side minima taken over a long loop
can land in different drift regimes.  Instead, every round times the
clean run and each selected armed row of a base cell back to back, and a
row's overhead is the median over rounds of ``(armed - clean) / clean``.
Drift cancels inside a round because its samples are adjacent in time;
the median shrugs off the occasional preemption that hits one sample.
Both sides run once untimed first (imports, caches), ``gc.collect()``
precedes every sample so each starts from the same collector state, the
side that runs first rotates every round, and the others run in a
seeded shuffled order: a run inherits allocator and cache state from
the one before it, and with a fixed order that neighbour bias reached
~1% on the harness cell.  Rounds continue until the base's time budget
is spent, and for at least the base's ``min_pairs`` rounds.

Select a single row with ``pytest -k <row>``; only the selected rows of
a base cell are timed.  Each run appends one point to
``BENCH_overhead.json`` holding ``<row>.overhead_pct`` and
``<row>.pairs`` for every row it measured.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, List, Optional

import pytest
from bench_cascade import DEVICES, containment, kernel_rate
from conftest import dense_app

from repro.analysis.tables import format_table, write_csv
from repro.core.runner import ExperimentRunner, RunConfig
from repro.core.workload import Workload
from repro.fleet import FleetConfig, FleetHarness, HedgeConfig
from repro.integrity import InvariantChecker
from repro.resilience import FaultPlan, ResilienceConfig
from repro.telemetry import Telemetry, Tracing
from repro.telemetry.trajectory import record_trajectory_point

BOUND_PCT = 2.0
TRAJECTORY_PATH = Path(__file__).resolve().parent.parent / "BENCH_overhead.json"

PAIR = ("gaussian", "needle")
NA = 8


def _harness(**knobs):
    workload = Workload.heterogeneous_pair(*PAIR, NA)
    config = RunConfig(workload=workload, num_streams=NA, **knobs)
    return ExperimentRunner().run(config)


def _fleet(deadlines=None, **knobs):
    apps = [dense_app(i) for i in range(DEVICES)]
    config = FleetConfig(num_devices=DEVICES, seed=0, **knobs)
    return FleetHarness(apps, config, deadlines=deadlines).run()


@dataclass(frozen=True)
class Base:
    run: Callable[..., object]
    #: What must match the clean run exactly.
    key: Callable[[object], object]
    #: Sampling seconds per side (the clean run and each selected row),
    #: so a base with k selected rows samples for (k + 1) * budget.
    side_budget_s: float
    #: Rounds sampled even when the budget runs out first: the most
    #: pairs any per-layer bench this matrix replaced collected on a
    #: 2-core host at REPRO_SCALE=small.
    min_pairs: int


BASES: Dict[str, Base] = {
    "harness": Base(
        _harness,
        lambda r: (r.makespan, r.energy, r.peak_power),
        side_budget_s=35.0,
        min_pairs=436,
    ),
    "fleet": Base(
        _fleet,
        lambda r: [
            (a.app_id, a.spawn_time, a.gpu_start, a.complete_time, a.outcome)
            for a in r.records
        ],
        side_budget_s=12.0,
        min_pairs=170,
    ),
}


@lru_cache(maxsize=None)
def _calibration():
    """(per-device kernel rate, deadlines no fault-free run can miss)."""
    clean = _fleet()
    generous = {r.app_id: 2 * r.complete_time for r in clean.records}
    return kernel_rate(clean), generous


def _cascade():
    rate, generous = _calibration()
    return dict(containment(rate), deadlines=generous)


def _integrity_check(knobs, result):
    checker = knobs["integrity"]
    assert result.harness.integrity is checker
    assert checker.checks_run > 0
    assert checker.violations_found == 0


def _tracing_check(knobs, result):
    # Counted without materializing spans: .spans would bill analysis
    # work to the recorder.
    assert len(knobs["tracing"].tracer._raw) > 0


def _hedging_check(knobs, result):
    assert result.hedges_launched == 0


def _cascade_check(knobs, result):
    assert result.shed_apps == 0
    assert result.storm_queued == 0
    assert result.retry_budget_granted == 0


def _no_check(knobs, result):
    pass


@dataclass(frozen=True)
class Row:
    base: str
    #: Fresh run kwargs that arm the hook (built inside the timed window).
    arm: Callable[[], dict]
    check: Callable[[dict, object], None] = _no_check


ROWS: Dict[str, Row] = {
    "resilience": Row(
        "harness", lambda: dict(resilience=ResilienceConfig(plan=FaultPlan()))
    ),
    "telemetry": Row("harness", lambda: dict(telemetry=Telemetry())),
    "integrity": Row(
        "harness",
        lambda: dict(integrity=InvariantChecker(on_violation="record")),
        _integrity_check,
    ),
    "tracing": Row(
        "harness", lambda: dict(tracing=Tracing(seed=0)), _tracing_check
    ),
    "hedging": Row("fleet", lambda: dict(hedging=HedgeConfig()), _hedging_check),
    "cascade": Row("fleet", _cascade, _cascade_check),
}


def _sample(base: Base, row):
    """(wall seconds, armed knobs, result) for one side of a round."""
    gc.collect()
    t0 = time.perf_counter()
    knobs = row.arm() if row else {}
    result = base.run(**knobs)
    return time.perf_counter() - t0, knobs, result


def _measure(base_name: str, names: List[str]) -> Dict[str, dict]:
    """Time the clean run and every row in ``names`` round by round."""
    base = BASES[base_name]
    sides = [None, *names]
    clean_key = base.key(_sample(base, None)[2])
    for name in names:
        _sample(base, ROWS[name])
    times: Dict[object, List[float]] = {side: [] for side in sides}
    shuffle = random.Random(0).shuffle
    deadline = time.perf_counter() + base.side_budget_s * len(sides)
    rounds = 0
    while rounds < base.min_pairs or time.perf_counter() < deadline:
        # The first slot rotates; the rest are shuffled so no side always
        # follows the same neighbour.
        first = sides[rounds % len(sides)]
        rest = [side for side in sides if side != first]
        shuffle(rest)
        for side in [first, *rest]:
            row = ROWS[side] if side else None
            elapsed, knobs, result = _sample(base, row)
            times[side].append(elapsed)
            assert base.key(result) == clean_key, f"{side} changed results"
            if row:
                row.check(knobs, result)
        rounds += 1
    clean = times[None]
    return {
        name: {
            "row": name,
            "base": base_name,
            "pairs": rounds,
            "clean_s": statistics.median(clean),
            "armed_s": statistics.median(times[name]),
            "overhead_pct": statistics.median(
                (armed - c) / c * 100.0 for armed, c in zip(times[name], clean)
            ),
            "results_identical": True,
        }
        for name in names
    }


@pytest.fixture(scope="module")
def matrix(request, results_dir):
    """Row name -> its result, timing each base cell (for the rows this
    session selected) on first use; writes the CSV and trajectory point
    once every row is done."""
    selected = [
        item.callspec.params["row"]
        for item in request.session.items
        if getattr(item, "function", None) is test_overhead
    ]
    # Base -> row results; None while (or if) its measurement raised.
    measured: Dict[str, Optional[Dict[str, dict]]] = {}

    def row_result(name: str) -> dict:
        base = ROWS[name].base
        if base not in measured:
            measured[base] = None
            measured[base] = _measure(
                base, [n for n in selected if ROWS[n].base == base]
            )
        assert measured[base] is not None, f"the {base} cell failed earlier"
        return measured[base][name]

    yield row_result
    rows = [r for base in measured.values() if base for r in base.values()]
    if not rows:
        return
    write_csv(rows, results_dir / "overhead.csv")
    record_trajectory_point(
        TRAJECTORY_PATH,
        "bench_overhead",
        {
            f"{r['row']}.{metric}": r[metric]
            for r in rows
            for metric in ("overhead_pct", "pairs")
        },
    )


@pytest.mark.parametrize("row", list(ROWS))
def test_overhead(row, matrix):
    # Timed by the bench itself: a pytest-benchmark round would time a
    # whole base cell under whichever row happened to run first.
    result = matrix(row)
    print()
    print(format_table([result], title=f"Off-path overhead — {row}"))
    assert result["overhead_pct"] < BOUND_PCT, (
        f"{row} costs {result['overhead_pct']:.2f}% of wall time armed "
        f"but idle (bound: {BOUND_PCT}%)"
    )
