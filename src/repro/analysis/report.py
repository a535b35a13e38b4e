"""Assemble the EXPERIMENTS.md report from a benchmark run's CSV output.

The benchmark suite (``pytest benchmarks/ --benchmark-only``) drops one CSV
per figure/table into ``results/``.  :func:`build_report` stitches them into
a single markdown document with the paper's claims next to the measured
values — the file committed as ``EXPERIMENTS.md``.

Usage::

    python -m repro report            # reads results/, writes EXPERIMENTS.md
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .tables import format_markdown

__all__ = ["Section", "SECTIONS", "read_results_csv", "build_report"]


@dataclass(frozen=True)
class Section:
    """One report section backed by a results CSV."""

    title: str
    csv_name: str
    paper_claim: str
    columns: Optional[Sequence[str]] = None


#: Report layout: one section per reproduced artifact, in paper order.
SECTIONS: List[Section] = [
    Section(
        title="Figure 1 — false serialization from copy-queue interleaving",
        csv_name="fig01_false_serialization.csv",
        paper_claim=(
            "Independent streams' small HtoD copies serialize and interleave "
            "in the single copy queue, stalling kernel execution."
        ),
    ),
    Section(
        title="Figure 2 — concurrency recovered by transfer synchronization",
        csv_name="fig02_sync_timeline.csv",
        paper_claim=(
            "With the host-side mutex, each stream's transfers occur "
            "consecutively, improving kernel-start times and overlap."
        ),
    ),
    Section(
        title="Figure 3 — launch orders",
        csv_name="fig03_orders.csv",
        paper_claim="Five scheduling policies over m=4 X and n=4 Y instances.",
    ),
    Section(
        title="Figure 4 — concurrency speedup over serialized execution",
        csv_name="fig04_concurrency_speedup.csv",
        paper_claim=(
            "Up to 56% (avg 23.6%) half-concurrent and up to 59% (avg 24.8%) "
            "full-concurrent improvement over serial."
        ),
    ),
    Section(
        title="Figure 5 — LEFTOVER oversubscription snapshot",
        csv_name="fig05_oversubscription.csv",
        paper_claim=(
            "Five kernels totalling 1203 thread blocks (> the K20's 208 "
            "ceiling) overlap on five streams under the lazy policy."
        ),
    ),
    Section(
        title="Figure 6 — effective memory transfer latency",
        csv_name="fig06_effective_latency.csv",
        paper_claim=(
            "Default concurrency stretches the average effective HtoD "
            "latency up to ~8x over expectation; the mutex restores it."
        ),
    ),
    Section(
        title="Figure 7 — ordering effect (default transfers)",
        csv_name="fig07_ordering_default.csv",
        paper_claim="Order affects performance by up to 9.4% (avg 3.8%).",
    ),
    Section(
        title="Figure 8 — ordering effect (memory sync)",
        csv_name="fig08_ordering_sync.csv",
        paper_claim="Order affects performance by up to 31.8% (avg 7.8%).",
    ),
    Section(
        title="Figure 9 — power under increasing concurrency",
        csv_name="fig09_power_concurrency.csv",
        paper_claim=(
            "Peak power rises slightly with concurrency; energy drops 8.5% "
            "on average (up to 22.9% for needle+srad)."
        ),
    ),
    Section(
        title="Figure 9 (energy per pair)",
        csv_name="fig09_energy_by_pair.csv",
        paper_claim="Full-concurrent energy reduction per heterogeneous pair.",
    ),
    Section(
        title="Figure 10 — power with default vs synchronized transfers",
        csv_name="fig10_power_sync.csv",
        paper_claim=(
            "Synchronization does not significantly change power; energy "
            "improves 10.4% on average (up to 25.7%)."
        ),
    ),
    Section(
        title="Figure 10 (energy per pair)",
        csv_name="fig10_energy_by_pair.csv",
        paper_claim="Sync energy reduction vs serial per pair.",
    ),
    Section(
        title="Table III — kernel launch geometry",
        csv_name="table3_geometry.csv",
        paper_claim="Grid/block dimensions, calls, #TB and #TPB per kernel.",
    ),
    Section(
        title="Headline numbers",
        csv_name="headline_numbers.csv",
        paper_claim="The abstract's aggregate claims, paper vs measured.",
    ),
    Section(
        title="Homogeneous self-concurrency scaling",
        csv_name="homogeneous_scaling.csv",
        paper_claim=(
            "(Section IV's homogeneous case.) Underutilizers gain most from "
            "running copies of themselves concurrently."
        ),
    ),
    Section(
        title="Ablation — ordering with shared streams (NA = 2 NS)",
        csv_name="ablation_ordering_shared.csv",
        paper_claim=(
            "(Section III-C's motivation.) With fewer streams than "
            "applications, launch order also decides who serializes behind "
            "whom on a shared stream."
        ),
    ),
    Section(
        title="Ablation — Hyper-Q hardware queue width",
        csv_name="ablation_hyperq_width.csv",
        paper_claim=(
            "(Not a paper figure.) Fermi-style single queue vs Kepler's 32: "
            "what Hyper-Q itself buys."
        ),
    ),
    Section(
        title="Ablation — LEFTOVER vs symbiosis admission",
        csv_name="ablation_admission.csv",
        paper_claim=(
            "(Not a paper figure.) The lazy policy does no worse than the "
            "resource-sum admission control it replaces."
        ),
    ),
    Section(
        title="Ablation — transfer policies",
        csv_name="ablation_transfers.csv",
        paper_claim=(
            "(Not a paper figure.) Batching (the mutex) vs Pai et al. "
            "chunking vs a FIFO copy queue."
        ),
    ),
    Section(
        title="Off-path overhead — opt-in layers armed but idle",
        csv_name="overhead.csv",
        paper_claim=(
            "(Not a paper figure.) With resilience, telemetry, integrity "
            "probes, tracing, hedging or cascade containment armed but with "
            "nothing to do, results are identical to the clean run and the "
            "median paired wall-clock overhead stays under 2%."
        ),
    ),
    Section(
        title="Serving — goodput under overload",
        csv_name="serving_overload.csv",
        paper_claim=(
            "(Future-work extension.) Under a 2x-overload arrival stream, "
            "bounded admission plus deadline-aware shedding achieves higher "
            "goodput and a bounded p99 sojourn than unbounded greedy "
            "dispatch, which completes more jobs but lands them late."
        ),
    ),
    Section(
        title="Scheduling — adaptive vs the five static orders",
        csv_name="scheduler_policies.csv",
        paper_claim=(
            "(Future-work extension.) The greedy transfer/compute "
            "interleaving and the per-mix bandit each reach a makespan no "
            "worse than the median static order on every Figure 8 pair; "
            "after its exploration pass the bandit matches the best static "
            "order within 5%."
        ),
    ),
]


def read_results_csv(path: Path) -> List[Dict[str, str]]:
    """Load one results CSV as a list of row dicts."""
    with path.open() as fh:
        return list(csv.DictReader(fh))


def _coerce(rows: List[Dict[str, str]]) -> List[Dict[str, object]]:
    """Parse numeric-looking cells so markdown formatting is tidy."""
    out: List[Dict[str, object]] = []
    for row in rows:
        parsed: Dict[str, object] = {}
        for key, value in row.items():
            try:
                number = float(value)
                parsed[key] = int(number) if number == int(number) else number
            except (TypeError, ValueError):
                parsed[key] = value
        out.append(parsed)
    return out


def build_report(
    results_dir: Path,
    title: str = "EXPERIMENTS — paper vs measured",
    preamble: str = "",
) -> str:
    """Build the full markdown report from ``results_dir``.

    Sections whose CSV is missing are listed as "not yet generated" so a
    partial benchmark run still yields a coherent document.
    """
    lines: List[str] = [f"# {title}", ""]
    if preamble:
        lines.append(preamble.strip())
        lines.append("")
    for section in SECTIONS:
        lines.append(f"## {section.title}")
        lines.append("")
        lines.append(f"*Paper:* {section.paper_claim}")
        lines.append("")
        path = results_dir / section.csv_name
        if not path.exists():
            lines.append(
                f"_Not yet generated — run `pytest benchmarks/ "
                f"--benchmark-only` to produce `{section.csv_name}`._"
            )
        else:
            rows = _coerce(read_results_csv(path))
            lines.append(format_markdown(rows, columns=section.columns))
        lines.append("")
    return "\n".join(lines)
