"""Host-side memory-transfer synchronization (paper Section III-B).

The paper's fix for DMA copy-queue interleaving is a host-side mutex around
each application's HtoD transfer stage: an application acquires the mutex,
enqueues *all* of its HtoD copies, waits for them to complete, and only then
releases — a "pseudo-burst transfer mechanism" functionally equivalent to
batching the small transfers.  While one application holds the mutex, no
other application's copies enter the copy queue, so the single DMA engine
serves one application's transfers consecutively (Figure 2) instead of
interleaving them (Figure 1).

:class:`TransferSynchronizer` wraps a :class:`~repro.sim.resources.Mutex`
and records hold statistics; :class:`NullSynchronizer` is the disabled
(default CUDA behaviour) variant with the same interface, so application
code is policy-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, List, Optional, Tuple

from ..sim.resources import Mutex, Request

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Environment

__all__ = ["TransferSynchronizer", "NullSynchronizer", "make_synchronizer"]


@dataclass
class _HoldRecord:
    """One completed critical section (per-app transfer burst)."""

    app_id: str
    acquired: float
    released: float

    @property
    def duration(self) -> float:
        return self.released - self.acquired


class TransferSynchronizer:
    """The paper's HtoD transfer mutex."""

    enabled = True

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.mutex = Mutex(env, name="htod-transfer-mutex")
        self.holds: List[_HoldRecord] = []
        self._open: dict = {}

    def acquire(self, app_id: str) -> Generator:
        """Acquire the transfer mutex (``yield from`` in a process).

        Interrupt-safe like :meth:`Stream.occupy`: a cancelled waiter
        withdraws (or releases) its request instead of leaking the mutex.
        """
        request = self.mutex.request()
        try:
            yield request
        except BaseException:
            if self.mutex.holds(request):
                self.mutex.unlock(request)
            else:
                request.cancel()
            raise
        self._open[app_id] = (request, self.env.now)
        return request

    def release(self, app_id: str, request: Request) -> None:
        """Release after the app's transfers have fully completed."""
        _req, acquired = self._open.pop(app_id)
        self.holds.append(
            _HoldRecord(app_id=app_id, acquired=acquired, released=self.env.now)
        )
        self.mutex.unlock(request)

    # -- diagnostics ---------------------------------------------------------

    @property
    def total_holds(self) -> int:
        """Completed critical sections."""
        return len(self.holds)

    @property
    def max_wait_queue(self) -> int:
        """Peak number of applications queued on the mutex."""
        return self.mutex.peak_queue_length

    def hold_intervals(self) -> List[Tuple[float, float]]:
        """(acquired, released) per hold — tests assert these are disjoint."""
        return [(h.acquired, h.released) for h in self.holds]


class NullSynchronizer:
    """Disabled synchronization: acquire/release are free no-ops."""

    enabled = False

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.total_holds = 0

    def acquire(self, app_id: str) -> Generator:
        """Immediately 'acquires'; never blocks."""
        return
        yield  # pragma: no cover - makes this a generator function

    def release(self, app_id: str, request: Optional[Request]) -> None:
        """No-op."""
        self.total_holds += 1


def make_synchronizer(env: "Environment", enabled: bool):
    """Factory: the paper's mutex when ``enabled``, else the null variant."""
    return TransferSynchronizer(env) if enabled else NullSynchronizer(env)
