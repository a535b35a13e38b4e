"""Per-layer host self time and exact call counts from one cProfile run.

A *layer* is a ``repro.<pkg>`` package.  A function's self time is charged
to the package whose file defines it.  Builtins, the standard library and
other third-party code have no layer of their own: their self time is
charged to the layers that called them, in proportion to the self time
cProfile recorded on each calling edge (recursively, when the caller is
itself layerless).  Time that reaches no layer at all is charged to
``"other"``; the benchmark's own files are the ``"bench"`` layer.

The hook lives entirely in the benchmark: the simulator is profiled as
shipped, with no instrumentation of its own.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import types
from collections import defaultdict
from typing import Dict, Iterable, Optional, Tuple

from repro.core import streaming
from repro.gpu.block_scheduler import GridEngine
from repro.gpu.commands import Command
from repro.gpu.power import PowerModel
from repro.sim.engine import Environment
from repro.sim.process import Process

#: The layers that do work in at least one workload, in report order.
LAYERS: Tuple[str, ...] = (
    "sim", "gpu", "framework", "apps", "core", "serving", "workload",
    "fleet", "resilience",
)

_REPRO_DIR = os.path.dirname(os.path.dirname(os.path.abspath(streaming.__file__)))
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

FuncKey = Tuple[str, int, str]


def _key(code: types.CodeType) -> FuncKey:
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _nested(code: types.CodeType, name: str) -> types.CodeType:
    """The code object of a function defined (at any depth) inside ``code``."""
    stack = [code]
    while stack:
        current = stack.pop()
        if current.co_name == name:
            return current
        stack.extend(c for c in current.co_consts if isinstance(c, types.CodeType))
    raise LookupError(f"no nested function {name!r} in {code.co_name}")


#: Exact cost counters: calls into these functions.
COUNTERS: Dict[str, FuncKey] = {
    "sim.events": _key(Environment.step.__code__),
    "sim.process_resumes": _key(Process._resume.__code__),
    "gpu.power_updates": _key(PowerModel.update.__code__),
    "gpu.block_passes": _key(GridEngine._run_pass.__code__),
    "gpu.commands": _key(Command.__init__.__code__),
    "core.front_door_sheds": _key(
        _nested(streaming.run_streaming.__code__, "front_door_shed")
    ),
}


def layer_of(filename: str) -> Optional[str]:
    """The layer a source file belongs to, or ``None`` if it has none."""
    path = os.path.abspath(filename) if os.sep in filename else filename
    if path.startswith(_REPRO_DIR + os.sep):
        package, sep, _ = path[len(_REPRO_DIR) + 1:].partition(os.sep)
        return package if sep else "repro"
    if path.startswith(_BENCH_DIR + os.sep):
        return "bench"
    return None


class LayerProfile:
    """A cProfile run whose results are read per layer."""

    def __init__(self) -> None:
        self.profile = cProfile.Profile()
        self._stats: Optional[dict] = None
        self._used = False

    def __enter__(self) -> "LayerProfile":
        self._stats = None
        self._used = True
        self.profile.enable()
        return self

    def __exit__(self, *exc) -> None:
        self.profile.disable()

    def stats(self) -> dict:
        """``pstats`` entries: ``func -> (cc, nc, tt, ct, callers)``."""
        if self._stats is None:
            # pstats cannot read a profile that never ran.
            self._stats = pstats.Stats(self.profile).stats if self._used else {}
        return self._stats

    def counts(self) -> Dict[str, int]:
        """Calls into each :data:`COUNTERS` function."""
        stats = self.stats()
        return {
            name: stats[key][1] if key in stats else 0
            for name, key in COUNTERS.items()
        }

    def self_times(self) -> Dict[str, float]:
        """Self seconds per layer (see the module docstring)."""
        return self_times(self.stats())


def merged_self_times(profiles: Iterable[LayerProfile]) -> Dict[str, float]:
    totals: Dict[str, float] = defaultdict(float)
    for profile in profiles:
        for layer, seconds in profile.self_times().items():
            totals[layer] += seconds
    return dict(totals)


def self_times(stats: dict) -> Dict[str, float]:
    """Charge every function's self time to a layer."""
    shares: Dict[FuncKey, Dict[str, float]] = {}

    def share(func: FuncKey, path: frozenset) -> Dict[str, float]:
        known = shares.get(func)
        if known is not None:
            return known
        layer = layer_of(func[0])
        if layer is not None:
            result = {layer: 1.0}
        else:
            callers = stats[func][4] if func in stats else {}
            weights = {c: edge[2] for c, edge in callers.items()}
            total = sum(weights.values())
            if total <= 0:
                weights = {c: edge[1] for c, edge in callers.items()}
                total = sum(weights.values())
            result = defaultdict(float)
            if total <= 0:
                result["other"] = 1.0
            for caller, weight in weights.items():
                if caller in path or caller not in stats:
                    result["other"] += weight / total
                    continue
                for name, part in share(caller, path | {func}).items():
                    result[name] += part * weight / total
            result = dict(result)
        shares[func] = result
        return result

    totals: Dict[str, float] = defaultdict(float)
    for func, entry in stats.items():
        tottime = entry[2]
        if tottime <= 0:
            continue
        for layer, part in share(func, frozenset()).items():
            totals[layer] += part * tottime
    return dict(totals)
