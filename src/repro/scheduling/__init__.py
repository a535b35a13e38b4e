"""Adaptive scheduling: online ordering, sync and concurrency decisions.

The paper's largest win — up to 31.8% makespan improvement — comes from
choosing a launch order plus the host-side transfer mutex (Figures 3, 7,
8), but those five orderings were only ever swept *offline*.  This package
puts the choice online, between serving admission and the framework
harness.  Per admitted batch, a :class:`BatchScheduler` selects

(a) a **launch order** (one of the five static policies, a greedy
    transfer/compute interleaving, or an epsilon-greedy bandit that learns
    the best static order per workload-mix signature),
(b) whether to take the Section III-B **HtoD transfer mutex**, and
(c) a **concurrency width** (how many streams the batch may spread over).

Layout:

* :mod:`~repro.scheduling.orders` — the five Figure 3 static orders.
* :mod:`~repro.scheduling.characterize` — transfer-heavy vs compute-heavy
  classification from declared Table III geometry blended with observed
  per-record telemetry.
* :mod:`~repro.scheduling.policies` — the policy registry: five static
  wrappers, ``greedy-interleave`` and ``bandit``.
* :mod:`~repro.scheduling.scheduler` — :class:`BatchScheduler`: decision
  journaling (crash-resume replays choices byte-identically), per-device
  policy state, predicted-vs-observed accounting.

Everything is deterministic under a fixed seed; see ``docs/scheduling.md``.
"""

from __future__ import annotations

from .orders import (
    FIGURE_3,
    SchedulingOrder,
    all_orders,
    make_schedule,
    ordering_rows,
    schedule_signature,
)

__all__ = [
    "FIGURE_3",
    "SchedulingOrder",
    "all_orders",
    "make_schedule",
    "ordering_rows",
    "schedule_signature",
    # lazy (see __getattr__):
    "AppClass",
    "TypeProfile",
    "WorkloadCharacterizer",
    "BatchContext",
    "SchedulingDecision",
    "SchedulingPolicy",
    "StaticOrderPolicy",
    "GreedyInterleavePolicy",
    "EpsilonGreedyBanditPolicy",
    "POLICY_NAMES",
    "make_policy",
    "SchedulerConfig",
    "BatchScheduler",
]

#: name -> submodule for the adaptive layer.  Resolved lazily so that
#: importing ``repro.framework`` (whose ``scheduler`` shim pulls in
#: :mod:`.orders`) does not drag the characterizer / harness stack along —
#: which would be a circular import during package initialization.
_LAZY = {
    "AppClass": "characterize",
    "TypeProfile": "characterize",
    "WorkloadCharacterizer": "characterize",
    "BatchContext": "policies",
    "SchedulingDecision": "policies",
    "SchedulingPolicy": "policies",
    "StaticOrderPolicy": "policies",
    "GreedyInterleavePolicy": "policies",
    "EpsilonGreedyBanditPolicy": "policies",
    "POLICY_NAMES": "policies",
    "make_policy": "policies",
    "SchedulerConfig": "scheduler",
    "BatchScheduler": "scheduler",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
