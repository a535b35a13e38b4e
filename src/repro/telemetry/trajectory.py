"""Perf-trajectory recorder: append benchmark points to ``BENCH_*.json``.

The repo's benchmarks pin regressions run-to-run, but until now nothing
recorded the *trajectory* — how a benchmark's numbers move across commits.
``record_trajectory_point`` appends one dated point per invocation to a
JSON file at the repo root (``BENCH_overhead.json``, ``BENCH_cascade.json``
and so on — one file per benchmark family), so CI artifacts accumulate a
history that can be plotted or diffed.

The file is a JSON object ``{"benchmark": ..., "points": [...]}``; each
point carries the commit (when available from ``GITHUB_SHA`` or a plain
``git rev-parse``), a wall-clock ISO date (*metadata only* — never a
metric value, so determinism guarantees are untouched), and the caller's
metric dict.
"""

from __future__ import annotations

import json
import os
import subprocess
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, Optional

__all__ = ["record_trajectory_point", "load_trajectory"]


def _current_commit(repo_dir: Path) -> Optional[str]:
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_dir,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:  # pragma: no cover - git missing entirely
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def load_trajectory(path) -> dict:
    """Read a trajectory file, tolerating absence and torn writes."""
    path = Path(path)
    if not path.exists():
        return {"benchmark": path.stem, "points": []}
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return {"benchmark": path.stem, "points": []}
    if not isinstance(data, dict) or not isinstance(data.get("points"), list):
        return {"benchmark": path.stem, "points": []}
    return data


def record_trajectory_point(
    path, benchmark: str, metrics: Dict[str, float]
) -> dict:
    """Append one ``{commit, date, metrics}`` point to ``path``.

    Returns the full trajectory after the append.  Writes are
    whole-file-replace via a temp file so a crash never leaves a torn
    JSON document behind.
    """
    path = Path(path)
    data = load_trajectory(path)
    data["benchmark"] = benchmark
    point = {
        "commit": _current_commit(path.parent),
        "date": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "metrics": {k: float(v) for k, v in sorted(metrics.items())},
    }
    data["points"].append(point)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, path)
    return data
