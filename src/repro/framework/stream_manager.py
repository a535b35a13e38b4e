"""The framework's ``StreamManager`` (paper Section III-E).

Creates, destroys and hands out :class:`~repro.framework.stream.Stream`
objects.  The paper stresses that their harness "dynamically assigns GPU
streams to [application] threads as they are needed"; the manager implements
that with a deterministic round-robin over the stream pool in *request
order* — the application launched first gets stream 0, the second stream 1,
and so on, wrapping when NA > NS.  Because launch order is exactly what the
scheduling policies of Section III-C permute, the assignment ties the
schedule to the hardware queues the paper reasons about.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from ..gpu.device import GPUDevice
from .stream import Stream

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Environment

__all__ = ["StreamManager"]


class StreamManager:
    """Pool of framework streams over one device.

    Parameters
    ----------
    env, device:
        Simulation environment and the GPU the streams belong to.
    num_streams:
        NS — the paper sweeps this from 1 (serialized) to 32 (fully
        parallel, one Hyper-Q queue per stream).
    """

    def __init__(
        self, env: "Environment", device: GPUDevice, num_streams: int
    ) -> None:
        if num_streams < 1:
            raise ValueError("need at least one stream")
        self.env = env
        self.device = device
        self.streams: List[Stream] = [
            Stream(env, device.create_stream(), i) for i in range(num_streams)
        ]
        self._next = 0

    def __repr__(self) -> str:
        return f"<StreamManager {len(self.streams)} streams>"

    @property
    def num_streams(self) -> int:
        """NS — size of the stream pool."""
        return len(self.streams)

    # -- assignment ----------------------------------------------------------

    def acquire(self, app_id: str) -> Stream:
        """Assign a stream to an application (called once per app thread)."""
        stream = self.streams[self._next % len(self.streams)]
        self._next += 1
        return stream

    # -- teardown ------------------------------------------------------------

    def destroy_all(self) -> None:
        """Destroy every managed stream (host must have synchronized)."""
        for stream in self.streams:
            self.device.destroy_stream(stream.device_stream)
        self.streams.clear()
