"""Hardware work queues: Hyper-Q (Kepler) vs single queue (Fermi).

A CUDA stream is a *software* ordering domain.  What the device actually
consumes are hardware work queues.  On Fermi there is exactly one: commands
from all streams merge into it, and a command cannot be dispatched until the
previous command in the queue has completed — independent streams therefore
*falsely serialize* on each other.  Kepler's Hyper-Q provides 32 hardware
queues; each stream maps onto one, and only streams that alias onto the same
queue (more than 32 streams) still suffer false dependencies.

This module implements both: a :class:`QueueFabric` with ``n`` queues and a
deterministic stream->queue mapping (round-robin by stream id, matching the
driver's grab-next-connection behaviour).  A command becomes ready (its
``ready_time`` is set) when *both* its stream predecessor and its
hardware-queue predecessor have completed.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..sim.engine import Environment
from ..sim.events import Event
from .commands import Command

__all__ = ["HardwareQueue", "QueueFabric"]


class HardwareQueue:
    """One hardware work queue: a chain of completion dependencies."""

    def __init__(self, env: Environment, index: int) -> None:
        self.env = env
        self.index = index
        #: ``done`` event of the most recently enqueued command.
        self._tail: Optional[Event] = None
        self.depth_total: int = 0

    def push(self, cmd: Command) -> Optional[Event]:
        """Append ``cmd``; return the event it must wait on (or ``None``)."""
        prev = self._tail
        self._tail = cmd.done
        self.depth_total += 1
        return prev

    def __repr__(self) -> str:
        return f"<HardwareQueue {self.index}>"


class QueueFabric:
    """The set of hardware queues of one device.

    Parameters
    ----------
    env:
        Simulation environment.
    num_queues:
        32 for Kepler/Hyper-Q, 1 for Fermi.
    """

    def __init__(self, env: Environment, num_queues: int) -> None:
        if num_queues < 1:
            raise ValueError("need at least one hardware queue")
        self.env = env
        self.queues: List[HardwareQueue] = [
            HardwareQueue(env, i) for i in range(num_queues)
        ]
        self._stream_to_queue: Dict[int, int] = {}

    @property
    def num_queues(self) -> int:
        """Number of hardware queues in the fabric."""
        return len(self.queues)

    def queue_for_stream(self, stream_id: int) -> HardwareQueue:
        """Deterministic stream -> queue mapping (stream id mod queues).

        With more streams than queues this aliases multiple streams onto a
        queue, reintroducing false serialization among them — exactly the
        behaviour of exceeding ``CUDA_DEVICE_MAX_CONNECTIONS``.
        """
        qidx = self._stream_to_queue.get(stream_id)
        if qidx is None:
            qidx = stream_id % len(self.queues)
            self._stream_to_queue[stream_id] = qidx
        return self.queues[qidx]

    def aliased_streams(self, stream_id: int) -> List[int]:
        """Stream ids sharing a queue with ``stream_id`` (diagnostics)."""
        qidx = self.queue_for_stream(stream_id).index
        return [
            sid
            for sid, q in self._stream_to_queue.items()
            if q == qidx and sid != stream_id
        ]
