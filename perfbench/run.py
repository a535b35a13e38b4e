"""Host-time throughput of the Hyper-Q simulator, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload steady --seed 1 --seconds 20 --trace 0

One process, one thread: a closed loop that runs one simulation (an *op*)
after another for ``--seconds`` seconds.  Arrivals inside a simulation are
open-loop in simulated time.  Every number this prints about speed is host
time, the cost of running the simulator; simulated results are outputs,
checked on every op and pinned by digest for the default seed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every op
twice, plain and under a cProfile hook (``layers.py``), checks that both
produce the same digest, and prints the per-layer metrics.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md for the workloads and metrics.

``--update-baseline`` rewrites ``baseline.json``: the default seed's
per-op digests and exact cost counters for each workload's check ops.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse
import heapq
import json
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BASELINE = HERE / "baseline.json"

#: The seed whose per-op digests ``baseline.json`` pins.
DEFAULT_SEED = 1
#: Set-ups per run; ``setup_s`` reports imports plus their median.
SETUP_REPEATS = 5
#: Reference duration of :func:`calibration_s`.  Every host time the
#: benchmark reports is rescaled to a machine on which the calibration
#: loop takes this long (see README.md, "Host time on a shared machine").
CALIBRATION_REF_S = 0.020


def import_program():
    """Put the checkout's ``src`` on the path and import the benchmark.

    Raises ``ImportError`` when the checkout holds no simulator.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ImportError(f"no simulator sources under {SRC}")
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import layers
    import workloads

    return layers, workloads


def calibration_s() -> float:
    """Host seconds for a fixed pure-Python loop in three parts.

    Heap pushes and pops on a small heap (interpreter-bound), building and
    reading a dict larger than the L2 cache (memory-bound) and integer
    arithmetic.  Contention slows the three differently; their blend
    tracks the simulator's slow-down far better than any one alone.
    """
    began = time.perf_counter()
    heap: list = []
    counts: dict = {}
    for i in range(6_000):
        heapq.heappush(heap, (i * 7919 % 1009, i))
        if len(heap) > 32:
            key, j = heapq.heappop(heap)
            counts[j & 63] = counts.get(j & 63, 0) + key
    table = {i: (i, float(i)) for i in range(1 << 15)}
    total = 0
    for i in range(15_000):
        total += table[(i * 40503) & 0x7FFF][0]
    for i in range(50_000):
        total += i * i % 7
    return time.perf_counter() - began


def to_reference(seconds: float) -> float:
    """Rescale host seconds just measured to the reference machine speed,
    by the median of five calibrations."""
    calibrations = sorted(calibration_s() for _ in range(5))
    return seconds * CALIBRATION_REF_S / calibrations[2]


def nearest_rank(values: List[float], q: float) -> float:
    """The ``q``-th percentile by nearest rank (``values`` sorted)."""
    rank = max(1, -(-len(values) * q // 100))
    return values[int(rank) - 1]


def tail_percentile(min_ops: int) -> int:
    """The highest whole percentile with at least ten samples beyond it in
    a run of ``min_ops`` ops.  Fixed per workload: a percentile that grew
    with the op count would rise on a faster machine."""
    return (100 * (min_ops - 10)) // min_ops


@dataclass
class Measurement:
    """Every op of one run, plain and (with tracing) profiled.

    ``plain_s`` and ``traced_s`` are reference-speed seconds; ``raw_s``
    are the plain ops' host seconds as the clock read them.
    """

    outcomes: list = field(default_factory=list)
    plain_s: List[float] = field(default_factory=list)
    traced_s: List[float] = field(default_factory=list)
    raw_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed_ops: int = 0
    profiles: list = field(default_factory=list)

    def fail(self, index: int, reason: str) -> None:
        self.failed_ops += 1
        print(f"op {index} failed: {reason}", file=sys.stderr)


def measure(
    workload, layers, seconds: float, trace: bool, min_ops: int, pin: bool = True
) -> Measurement:
    """Run ops until ``seconds`` have passed, ``min_ops`` ran and a round
    is complete; check every op's outputs.

    With ``pin``, the default seed's check ops must also reproduce the
    digests in ``baseline.json``.
    """
    expected = None
    if pin and workload.seed == DEFAULT_SEED:
        expected = expected_digests(workload)
    check_profile, rest_profile = layers.LayerProfile(), layers.LayerProfile()
    out = Measurement(profiles=[check_profile, rest_profile])
    min_ops = max(min_ops, workload.check_ops)
    started = time.perf_counter()
    index = 0
    while (
        index < min_ops
        or index % workload.round_size
        or time.perf_counter() - started < seconds
    ):
        out.attempted += 1
        try:
            inputs = workload.prepare(index)
            began = time.perf_counter()
            result = workload.run(inputs)
            elapsed = time.perf_counter() - began
            outcome = workload.outcome(inputs, result)
            if trace:
                inputs = workload.prepare(index)
                profile = check_profile if index < workload.check_ops else rest_profile
                began = time.perf_counter()
                with profile:
                    result = workload.run(inputs)
                traced_raw = time.perf_counter() - began
                traced = workload.outcome(inputs, result)
                if traced.digest != outcome.digest:
                    outcome.problems.append("traced run changed the outputs")
        except Exception:
            out.fail(index, traceback.format_exc())
            index += 1
            continue
        if expected is not None and index < workload.check_ops:
            if index >= len(expected) or outcome.digest != expected[index]:
                outcome.problems.append("digest differs from baseline.json")
        # One calibration right after the op: co-tenant load on a shared
        # machine drifts over seconds, and slows both alike.
        scale = CALIBRATION_REF_S / calibration_s()
        out.outcomes.append(outcome)
        out.raw_s.append(elapsed)
        out.plain_s.append(elapsed * scale)
        if trace:
            out.traced_s.append(traced_raw * scale)
        if outcome.problems:
            out.fail(index, "; ".join(outcome.problems))
        index += 1
    return out


def expected_digests(workload) -> List[str]:
    if not BASELINE.is_file():
        return []
    entry = json.loads(BASELINE.read_text())["workloads"].get(workload.name, {})
    return entry.get("op_digests", [])


def end_to_end(m: Measurement, workload, setup_s: float) -> Dict[str, tuple]:
    """``name -> (value, unit)`` for the untraced run."""
    host_s = sum(m.plain_s)
    times = sorted(m.plain_s)
    return {
        "completed_per_s": (sum(o.completed for o in m.outcomes) / host_s, "1/s"),
        "arrivals_per_s": (sum(o.arrivals for o in m.outcomes) / host_s, "1/s"),
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_tail": (nearest_rank(times, tail_percentile(workload.min_ops)), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }


def per_layer(m: Measurement, workload, layers) -> Dict[str, tuple]:
    """``name -> (value, unit)`` for the traced run.

    Self times cover every traced op; exact counts and model outputs cover
    the check ops only, so they repeat exactly for a seed.
    """
    check_profile, rest_profile = m.profiles
    checked = m.outcomes[: workload.check_ops]
    counts = check_profile.counts()
    completed = max(1, sum(o.completed for o in checked))
    arrivals = max(1, sum(o.arrivals for o in checked))
    all_completed = max(1, sum(o.completed for o in m.outcomes))
    all_arrivals = max(1, sum(o.arrivals for o in m.outcomes))
    all_events = counts["sim.events"] + rest_profile.counts()["sim.events"]
    # Profiled self times, rescaled to reference speed like every op time.
    speed = sum(m.plain_s) / sum(m.raw_s)
    self_s = {
        layer: seconds * speed
        for layer, seconds in layers.merged_self_times(m.profiles).items()
    }

    metrics = {
        f"{layer}.self_us_per_completed": (
            self_s.get(layer, 0.0) * 1e6 / all_completed, "us"
        )
        for layer in layers.LAYERS
    }
    for name in ("sim.events", "sim.process_resumes", "gpu.power_updates",
                 "gpu.block_passes", "gpu.commands"):
        metrics[f"{name}_per_completed"] = (counts[name] / completed, "count")
    sojourns = sorted(s for o in checked for s in o.sojourns)

    def mean(attr):
        return statistics.fmean(getattr(o, attr) for o in checked)

    metrics.update({
        "sim.host_us_per_event": (sum(m.plain_s) * 1e6 / max(1, all_events), "us"),
        "workload.host_us_per_arrival": (
            self_s.get("workload", 0.0) * 1e6 / all_arrivals, "us"
        ),
        "core.front_door_sheds_per_arrival": (
            counts["core.front_door_sheds"] / arrivals, "ratio"
        ),
        "trace.overhead_ratio": (sum(m.traced_s) / sum(m.plain_s), "ratio"),
        "serving.shed_ratio": (sum(o.shed for o in checked) / arrivals, "ratio"),
        "serving.deadline_met_ratio": (
            sum(o.deadline_met for o in checked) / arrivals, "ratio"
        ),
        "serving.sojourn_p50_sim_s": (
            nearest_rank(sojourns, 50) if sojourns else 0.0, "s"
        ),
        "serving.sojourn_p99_sim_s": (
            nearest_rank(sojourns, 99) if sojourns else 0.0, "s"
        ),
        "gpu.energy_j_per_completed": (
            sum(o.energy for o in checked) / completed, "J"
        ),
        "gpu.htod_stretch": (mean("htod_stretch"), "ratio"),
        "fleet.migrations": (mean("migrations"), "count"),
        "fleet.reexecuted_kernels": (mean("reexecuted_kernels"), "count"),
        "fleet.recovery_sim_s": (mean("recovery_sim_s"), "s"),
    })
    return metrics


def summary(workload, m: Measurement, trace: bool) -> List[str]:
    arrivals = sum(o.arrivals for o in m.outcomes)
    completed = sum(o.completed for o in m.outcomes)
    shed = sum(o.shed for o in m.outcomes)
    lines = [
        f"workload {workload.name}, seed {workload.seed}, trace {int(trace)}: "
        f"offered load {workload.offered_load}",
        f"ops {m.attempted}, failed {m.failed_ops}, op_fail_ratio "
        f"{m.failed_ops / max(1, m.attempted):g}; arrivals {arrivals}, "
        f"completed {completed}, shed ratio {shed / max(1, arrivals):.4f}",
    ]
    if m.raw_s:
        lines.append(
            f"host speed factor {sum(m.raw_s) / sum(m.plain_s):.3f} "
            f"(raw host s per reference s); raw completed_per_s "
            f"{completed / sum(m.raw_s):.6g}, raw arrivals_per_s "
            f"{arrivals / sum(m.raw_s):.6g}"
        )
    if m.plain_s and not trace:
        count = len(m.plain_s)
        q = tail_percentile(workload.min_ops)
        beyond = count - int(max(1, -(-count * q // 100)))
        lines.append(
            f"op_s_tail is the nearest-rank p{q} of {count} op times "
            f"({beyond} beyond it)"
        )
    return lines


def update_baseline(layers, workloads) -> None:
    entries = {}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(DEFAULT_SEED)
        workload.build()
        m = measure(workload, layers, seconds=0.0, trace=True, min_ops=0, pin=False)
        checked = m.outcomes[: workload.check_ops]
        if m.failed_ops or len(checked) < workload.check_ops:
            raise SystemExit(f"{name}: check ops failed; baseline not written")
        completed = sum(o.completed for o in checked)
        counts = m.profiles[0].counts()
        entries[name] = {
            "check_ops": workload.check_ops,
            "op_digests": [o.digest for o in checked],
            "digest": workloads.digest(tuple(o.digest for o in checked)),
            "arrivals": sum(o.arrivals for o in checked),
            "completed": completed,
            "counters": counts,
            "counters_per_completed": {k: v / completed for k, v in counts.items()},
        }
        print(f"{name}: {entries[name]['digest']}")
    BASELINE.write_text(json.dumps(
        {"default_seed": DEFAULT_SEED, "workloads": entries}, indent=2, sort_keys=True
    ) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-baseline", action="store_true")
    args = parser.parse_args(argv)

    try:
        layers, workloads = import_program()
    except ImportError as exc:
        print(f"cannot import the simulator: {exc}", file=sys.stderr)
        return 2
    import_s = to_reference(time.perf_counter() - _STARTED)
    if args.update_baseline:
        update_baseline(layers, workloads)
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")

    setups = []
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        workload = workloads.WORKLOADS[args.workload](args.seed)
        workload.setup()
        setups.append(to_reference(time.perf_counter() - began))
    setup_s = import_s + statistics.median(setups)

    trace = bool(args.trace)
    m = measure(workload, layers, args.seconds, trace, 0 if trace else workload.min_ops)
    if not m.outcomes:
        print("every op failed", file=sys.stderr)
        return 1
    if trace:
        metrics = per_layer(m, workload, layers)
    else:
        metrics = end_to_end(m, workload, setup_s)
    for line in summary(workload, m, trace):
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": m.failed_ops == 0,
        "attempted": m.attempted,
        "failed": m.failed_ops,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
