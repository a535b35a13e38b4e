"""Stream-level commands exchanged between host code and device engines.

CUDA's execution model is: host threads *enqueue* commands (async memory
copies, kernel launches, event records) onto streams; the device consumes
them subject to (a) in-stream FIFO ordering and (b) hardware work-queue
ordering (see :mod:`repro.gpu.hyperq`).  Each command carries one event
and two timestamps:

``done``
    Event: fully complete (last byte / last thread block retired).  This
    is what host code synchronizes on.
``ready_time``
    All ordering dependencies satisfied; the command became eligible for
    its engine (DMA or grid).
``start_time``
    The engine began executing it (first byte on the wire / first thread
    block placed).  ``None`` for a kernel whose launch failed.

The two instants are profiler timestamps, not sync points, so they cost
no calendar entry.  A caller that does want to wait on one reads the
``ready`` / ``started`` property, which builds an :class:`Event` on first
use: pending (and triggered at the instant, exactly like ``done``) when
read before it, already processed with the timestamp as value when read
after it.
"""

from __future__ import annotations

from enum import Enum
from itertools import count
from typing import TYPE_CHECKING, Optional

from ..sim.errors import EventError
from ..sim.events import Event
from .kernels import KernelDescriptor

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Environment

__all__ = ["CopyDirection", "Command", "MemcpyCommand", "KernelLaunchCommand", "MarkerCommand"]

_command_ids = count(1)


def _instant_event(env: "Environment", time: Optional[float]) -> Event:
    """The event a waiter gets for an instant: pending before it, already
    processed (value ``time``, no calendar entry) after it."""
    event = Event(env)
    if time is not None:
        event._value = time
        event.callbacks = None
    return event


class CopyDirection(Enum):
    """Transfer direction; each direction has its own DMA engine."""

    HTOD = "HtoD"
    DTOH = "DtoH"

    def __str__(self) -> str:
        return self.value


class Command:
    """Base class for everything that can sit in a stream.

    Attributes
    ----------
    cid:
        Globally unique id, monotone in creation order — ties in engine
        queues are broken by it, keeping the whole simulation deterministic.
    stream_id / queue_id:
        Filled in by the device when the command is enqueued.
    app_id:
        The application instance that issued the command (``None`` for
        infrastructure commands); metrics group spans by it.
    ready_time / start_time:
        Set by the device and engines through :meth:`mark_ready` /
        :meth:`mark_started`; ``None`` until then.
    """

    __slots__ = (
        "cid", "env", "app_id", "stream_id", "queue_id", "enqueue_time",
        "ready_time", "start_time", "done", "_ready", "_started",
    )

    kind = "command"

    def __init__(self, env: "Environment", app_id: Optional[str] = None) -> None:
        self.cid: int = next(_command_ids)
        self.env = env
        self.app_id = app_id
        self.stream_id: Optional[int] = None
        self.queue_id: Optional[int] = None
        self.enqueue_time: Optional[float] = None
        self.ready_time: Optional[float] = None
        self.start_time: Optional[float] = None
        self.done: Event = Event(env)
        # Events built on demand by the ready / started properties.
        self._ready: Optional[Event] = None
        self._started: Optional[Event] = None

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} #{self.cid} app={self.app_id!r} "
            f"stream={self.stream_id}>"
        )

    @property
    def label(self) -> str:
        """Short human-readable description used in traces."""
        return self.kind

    # -- instants --------------------------------------------------------

    @property
    def ready(self) -> Event:
        """Event for :attr:`ready_time`, built on first read."""
        event = self._ready
        if event is None:
            event = self._ready = _instant_event(self.env, self.ready_time)
        return event

    @property
    def started(self) -> Event:
        """Event for :attr:`start_time`, built on first read."""
        event = self._started
        if event is None:
            event = self._started = _instant_event(self.env, self.start_time)
        return event

    def mark_ready(self, now: float) -> None:
        """Record that every dependency is met; trigger a waiter's event."""
        if self.ready_time is not None:
            raise EventError(f"{self!r} is already ready")
        self.ready_time = now
        if self._ready is not None:
            self._ready.succeed(now)

    def mark_started(self, now: float) -> None:
        """Record that the engine began the command; trigger a waiter's
        event."""
        if self.start_time is not None:
            raise EventError(f"{self!r} has already started")
        self.start_time = now
        if self._started is not None:
            self._started.succeed(now)


class MemcpyCommand(Command):
    """An asynchronous ``cudaMemcpyAsync`` of ``nbytes`` in ``direction``.

    ``buffer`` is a free-form label naming what is being moved (e.g.
    ``"matrix_a"``) so timelines read like the paper's profiler screenshots.
    """

    __slots__ = ("direction", "nbytes", "buffer")

    kind = "memcpy"

    def __init__(
        self,
        env: "Environment",
        direction: CopyDirection,
        nbytes: int,
        buffer: str = "",
        app_id: Optional[str] = None,
    ) -> None:
        super().__init__(env, app_id=app_id)
        if nbytes <= 0:
            raise ValueError(f"memcpy of {nbytes} bytes")
        self.direction = direction
        self.nbytes = int(nbytes)
        self.buffer = buffer

    @property
    def label(self) -> str:
        return f"memcpy{self.direction}({self.buffer or self.nbytes})"


class KernelLaunchCommand(Command):
    """A kernel launch: the full grid described by ``descriptor``."""

    __slots__ = ("descriptor", "waves", "first_block_time", "last_block_time")

    kind = "kernel"

    def __init__(
        self,
        env: "Environment",
        descriptor: KernelDescriptor,
        app_id: Optional[str] = None,
    ) -> None:
        super().__init__(env, app_id=app_id)
        self.descriptor = descriptor
        #: Filled by the block scheduler: number of scheduling waves used.
        self.waves: int = 0
        #: Time the first / last block was placed (diagnostics).
        self.first_block_time: Optional[float] = None
        self.last_block_time: Optional[float] = None

    @property
    def label(self) -> str:
        return self.descriptor.name


class MarkerCommand(Command):
    """A no-op ordering marker (models ``cudaEventRecord``).

    Completes as soon as it becomes ready; used by host code to wait for a
    prefix of a stream without synchronizing the entire device.
    """

    __slots__ = ("name",)

    kind = "marker"

    def __init__(self, env: "Environment", name: str = "event", app_id: Optional[str] = None) -> None:
        super().__init__(env, app_id=app_id)
        self.name = name

    @property
    def label(self) -> str:
        return f"marker({self.name})"
